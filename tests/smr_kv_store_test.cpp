// Unit tests for the SMR building blocks: wire formats, KvStore
// semantics, session dedup, and Replica stream application — all without
// a cluster (RoundResults are built by hand).
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "core/batch.hpp"
#include "smr/kv_store.hpp"
#include "smr/replica.hpp"
#include "smr/session.hpp"
#include "test_env.hpp"

namespace allconcur::smr {
namespace {

using allconcur::testing::test_seed;

Bytes b(std::string_view s) { return to_bytes(s); }

// ---------------------------------------------------------------------------
// Wire formats
// ---------------------------------------------------------------------------

TEST(SmrCommand, CommandRoundTripsIncludingBinaryKeys) {
  Command cmd = Command::cas(Bytes{0x00, 0xff, 0x00}, Bytes{0x01, 0x00},
                             Bytes{0xde, 0xad, 0x00, 0xbe});
  const auto bytes = encode_command(cmd);
  const auto back = decode_command(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, Command::Op::kCas);
  EXPECT_EQ(back->key, cmd.key);
  EXPECT_EQ(back->value, cmd.value);
  EXPECT_EQ(back->expected, cmd.expected);
  EXPECT_FALSE(back->expect_absent);

  const auto absent = decode_command(
      encode_command(Command::cas_absent(b("k"), b("v"))));
  ASSERT_TRUE(absent.has_value());
  EXPECT_TRUE(absent->expect_absent);
}

TEST(SmrCommand, EnvelopeRoundTripsAndRejectsForeignBytes) {
  const auto cmd = encode_command(Command::put(b("key"), b("value")));
  const auto env = encode_envelope(0x123456789abcdef0ull, 42, cmd);
  const auto back = decode_envelope(env);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->session, 0x123456789abcdef0ull);
  EXPECT_EQ(back->seq, 42u);
  EXPECT_EQ(Bytes(back->command.begin(), back->command.end()), cmd);

  EXPECT_FALSE(decode_envelope(cmd).has_value());  // no magic
  EXPECT_FALSE(decode_envelope(Bytes{kEnvelopeMagic, 1, 2}).has_value());
  EXPECT_FALSE(decode_envelope(Bytes{}).has_value());
}

TEST(SmrCommand, ResponseRoundTrips) {
  KvResponse r;
  r.status = KvResponse::Status::kCasFailed;
  r.value = Bytes{0x00, 0x01, 0x02};
  r.has_value = true;
  const auto back = decode_response(encode_response(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, KvResponse::Status::kCasFailed);
  EXPECT_EQ(back->value, r.value);
  EXPECT_TRUE(back->has_value);
}

TEST(SmrCommand, DecodersNeverCrashOnRandomBytes) {
  Rng rng(test_seed() ^ 0xf022ull);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(rng.next_below(64));
    for (auto& x : junk) x = static_cast<std::uint8_t>(rng.next_u64());
    (void)decode_command(junk);
    (void)decode_envelope(junk);
    (void)decode_response(junk);
  }
  // Truncations of a valid frame must decode to nullopt, never misparse
  // out of bounds.
  const auto env = encode_envelope(
      1, 2, encode_command(Command::put(b("key"), b("value"))));
  for (std::size_t cut = 0; cut < env.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(env.data(), cut);
    if (const auto e = decode_envelope(prefix)) {
      EXPECT_FALSE(decode_command(e->command).has_value());
    }
  }
}

// ---------------------------------------------------------------------------
// KvStore semantics
// ---------------------------------------------------------------------------

Bytes apply_bytes(KvStore& store, std::span<const std::uint8_t> command) {
  Bytes response;
  store.apply(command, response);
  return response;
}

KvResponse apply(KvStore& store, const Command& cmd) {
  const auto resp = decode_response(apply_bytes(store, encode_command(cmd)));
  EXPECT_TRUE(resp.has_value());
  return resp.value_or(KvResponse{});
}

TEST(KvStore, PutGetDeleteSemantics) {
  KvStore store;
  EXPECT_TRUE(apply(store, Command::put(b("a"), b("1"))).ok());
  EXPECT_TRUE(apply(store, Command::put(b("b"), b("2"))).ok());

  const auto got = apply(store, Command::get(b("a")));
  EXPECT_TRUE(got.ok());
  EXPECT_TRUE(got.has_value);
  EXPECT_EQ(got.value, b("1"));

  EXPECT_EQ(apply(store, Command::get(b("missing"))).status,
            KvResponse::Status::kNotFound);
  EXPECT_TRUE(apply(store, Command::del(b("a"))).ok());
  EXPECT_EQ(apply(store, Command::del(b("a"))).status,
            KvResponse::Status::kNotFound);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get_local(b("b")), b("2"));
  EXPECT_FALSE(store.get_local(b("a")).has_value());
}

TEST(KvStore, CasSemantics) {
  KvStore store;
  // Create-if-absent succeeds once.
  EXPECT_TRUE(apply(store, Command::cas_absent(b("k"), b("v1"))).ok());
  const auto lost = apply(store, Command::cas_absent(b("k"), b("v2")));
  EXPECT_EQ(lost.status, KvResponse::Status::kCasFailed);
  EXPECT_EQ(lost.value, b("v1"));  // loser learns the current value

  // Value-conditioned swap.
  EXPECT_TRUE(apply(store, Command::cas(b("k"), b("v1"), b("v2"))).ok());
  EXPECT_EQ(apply(store, Command::cas(b("k"), b("v1"), b("v3"))).status,
            KvResponse::Status::kCasFailed);
  EXPECT_EQ(store.get_local(b("k")), b("v2"));

  // CAS on a missing key fails (nothing to compare).
  EXPECT_EQ(apply(store, Command::cas(b("nope"), b("x"), b("y"))).status,
            KvResponse::Status::kCasFailed);
}

TEST(KvStore, MalformedCommandYieldsDeterministicError) {
  KvStore a, c;
  const Bytes junk{0x99, 0x01, 0x02};
  const auto ra = apply_bytes(a, junk);
  const auto rc = apply_bytes(c, junk);
  EXPECT_EQ(ra, rc);
  const auto resp = decode_response(ra);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, KvResponse::Status::kBadCommand);
  EXPECT_EQ(a.state_hash(), c.state_hash());
}

TEST(KvStore, HashTracksAppliedHistory) {
  KvStore a, c;
  const std::uint64_t fresh = a.state_hash();
  apply(a, Command::put(b("x"), b("1")));
  apply(c, Command::put(b("x"), b("1")));
  EXPECT_EQ(a.state_hash(), c.state_hash());
  EXPECT_NE(a.state_hash(), fresh);

  // Same final map, different history ⇒ different hash (the guard
  // detects ordering divergence, not just state divergence).
  apply(a, Command::put(b("y"), b("2")));
  apply(a, Command::put(b("z"), b("3")));
  apply(c, Command::put(b("z"), b("3")));
  apply(c, Command::put(b("y"), b("2")));
  EXPECT_EQ(a.contents(), c.contents());
  EXPECT_NE(a.state_hash(), c.state_hash());
}

TEST(KvStore, SnapshotRestoreRoundTrips) {
  KvStore store;
  Rng rng(test_seed() ^ 0x51709ull);
  for (int i = 0; i < 64; ++i) {
    Bytes key(rng.next_below(16) + 1), value(rng.next_below(64));
    for (auto& x : key) x = static_cast<std::uint8_t>(rng.next_u64());
    for (auto& x : value) x = static_cast<std::uint8_t>(rng.next_u64());
    apply(store, Command::put(key, value));
  }
  const auto snap = store.snapshot();

  KvStore restored;
  ASSERT_TRUE(restored.restore(snap));
  EXPECT_EQ(restored.contents(), store.contents());
  EXPECT_EQ(restored.state_hash(), store.state_hash());
  EXPECT_EQ(restored.commands_applied(), store.commands_applied());
  // Determinism: equal state ⇒ byte-identical snapshots.
  EXPECT_EQ(restored.snapshot(), snap);

  // Corruption is rejected, not absorbed.
  auto bad = snap;
  bad.pop_back();
  KvStore reject;
  EXPECT_FALSE(reject.restore(bad));
  EXPECT_FALSE(reject.restore(Bytes{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

TEST(SessionTable, DedupAndResponseCache) {
  SessionTable table;
  EXPECT_EQ(table.find(7), nullptr);
  Bytes* first = table.admit(7, 1);
  ASSERT_NE(first, nullptr);
  *first = Bytes{0xaa};
  EXPECT_EQ(table.admit(7, 1), nullptr);  // a duplicate records nothing
  ASSERT_NE(table.find(7), nullptr);
  EXPECT_EQ(table.find(7)->last_seq, 1u);  // so seq 2 is still new
  EXPECT_EQ(table.find(8), nullptr);
  EXPECT_EQ(table.response(7, 1), Bytes{0xaa});

  Bytes* second = table.admit(7, 2);
  ASSERT_NE(second, nullptr);
  *second = Bytes{0xbb};
  EXPECT_EQ(table.admit(7, 1), nullptr);  // older seqs stay duplicates
  EXPECT_EQ(table.response(7, 2), Bytes{0xbb});
  EXPECT_FALSE(table.response(7, 1).has_value());  // only latest cached
}

TEST(SessionTable, SerializationRoundTrips) {
  SessionTable table;
  *table.admit(3, 5) = Bytes{1, 2, 3};
  ASSERT_NE(table.admit(0xffffffffffffffffull, 1), nullptr);
  std::vector<std::uint8_t> out;
  table.encode_into(out);

  SessionTable back;
  std::size_t at = 0;
  ASSERT_TRUE(back.decode_from(out, at));
  EXPECT_EQ(at, out.size());
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(back.admit(3, 5), nullptr);  // restored as applied
  EXPECT_EQ(back.response(3, 5), (Bytes{1, 2, 3}));

  std::size_t bad_at = 0;
  out.pop_back();
  SessionTable reject;
  EXPECT_FALSE(reject.decode_from(out, bad_at));
}

TEST(KvSession, IssueNumbersCommandsAndRetriesByteIdentically) {
  KvSession session(99);
  EXPECT_EQ(session.last_seq(), 0u);
  const auto first = session.issue(Command::put(b("k"), b("v")));
  EXPECT_EQ(session.last_seq(), 1u);
  EXPECT_EQ(session.retry(), first);
  const auto second = session.issue(Command::del(b("k")));
  EXPECT_EQ(session.last_seq(), 2u);
  EXPECT_NE(second, first);
  EXPECT_EQ(session.retry(), second);
}

// ---------------------------------------------------------------------------
// Replica: hand-built rounds
// ---------------------------------------------------------------------------

core::RoundResult round_of(
    Round r, const std::vector<std::pair<NodeId, std::vector<Bytes>>>& msgs) {
  core::RoundResult result;
  result.round = r;
  result.view_size = msgs.size();
  for (const auto& [origin, envelopes] : msgs) {
    core::Delivery d;
    d.origin = origin;
    std::vector<core::Request> requests;
    requests.reserve(envelopes.size());
    for (const auto& env : envelopes) {
      requests.push_back(core::Request::of_data(env));
    }
    d.payload = core::pack_batch(requests);
    result.deliveries.push_back(std::move(d));
  }
  return result;
}

TEST(Replica, AppliesInOrderAndSuppressesDuplicates) {
  Replica replica(std::make_unique<KvStore>());
  KvSession s1(1), s2(2);
  const auto put_a = s1.issue(Command::put(b("a"), b("from-s1")));
  const auto put_b = s2.issue(Command::put(b("b"), b("from-s2")));

  // Round 0 carries the command AND a duplicate of it in another node's
  // batch (the client broadcast through two contact nodes).
  replica.on_round(round_of(0, {{0, {put_a}}, {1, {put_a, put_b}}}));
  EXPECT_EQ(replica.next_round(), 1u);
  EXPECT_EQ(replica.commands_applied(), 2u);
  EXPECT_EQ(replica.duplicates_suppressed(), 1u);

  // A late retry rides a later round: still suppressed.
  replica.on_round(round_of(1, {{0, {}}, {1, {put_a}}}));
  EXPECT_EQ(replica.commands_applied(), 2u);
  EXPECT_EQ(replica.duplicates_suppressed(), 2u);

  const auto& kv = dynamic_cast<const KvStore&>(replica.machine());
  EXPECT_EQ(kv.get_local(b("a")), b("from-s1"));
  EXPECT_EQ(kv.get_local(b("b")), b("from-s2"));
  // The cached response replays to the retrying client.
  EXPECT_TRUE(replica.response(1, 1).has_value());
}

TEST(Replica, IgnoresForeignPayloadsInTheStream) {
  Replica replica(std::make_unique<KvStore>());
  KvSession s(1);
  core::RoundResult r = round_of(
      0, {{0, {s.issue(Command::put(b("k"), b("v")))}},
          {1, {Bytes{0x01, 0x02, 0x03}}}});  // non-envelope data request
  // And one size-only delivery (bench traffic): null payload, bytes > 0.
  core::Delivery opaque;
  opaque.origin = 2;
  opaque.bytes = 4096;
  r.deliveries.push_back(opaque);
  r.view_size = 3;
  replica.on_round(r);
  EXPECT_EQ(replica.commands_applied(), 1u);
  const auto& kv = dynamic_cast<const KvStore&>(replica.machine());
  EXPECT_EQ(kv.get_local(b("k")), b("v"));
}

TEST(Replica, SnapshotRestoreResumesMidStreamWithDedupIntact) {
  Replica source(std::make_unique<KvStore>());
  KvSession s(5);
  const auto c1 = s.issue(Command::put(b("x"), b("1")));
  const auto c2 = s.issue(Command::put(b("y"), b("2")));
  source.on_round(round_of(0, {{0, {c1}}, {1, {}}}));
  source.on_round(round_of(1, {{0, {c2}}, {1, {}}}));

  Replica restored(std::make_unique<KvStore>());
  ASSERT_TRUE(restored.restore(source.snapshot()));
  EXPECT_EQ(restored.next_round(), 2u);
  EXPECT_EQ(restored.state_hash(), source.state_hash());

  // The dedup table crossed the boundary: a retry of c2 after restore
  // does not re-apply.
  const auto c3 = s.issue(Command::del(b("x")));
  const auto round2 = round_of(2, {{0, {c2, c3}}, {1, {}}});
  restored.on_round(round2);
  source.on_round(round2);
  EXPECT_EQ(restored.duplicates_suppressed(), source.duplicates_suppressed());
  EXPECT_EQ(restored.state_hash(), source.state_hash());
  const auto& kv = dynamic_cast<const KvStore&>(restored.machine());
  EXPECT_FALSE(kv.get_local(b("x")).has_value());
  EXPECT_EQ(kv.get_local(b("y")), b("2"));

  // Garbage is rejected (including a bare KvStore snapshot: wrong magic).
  Replica reject(std::make_unique<KvStore>());
  EXPECT_FALSE(reject.restore(KvStore().snapshot()));
  EXPECT_FALSE(reject.restore(Bytes{0xde, 0xad}));
}

}  // namespace
}  // namespace allconcur::smr
