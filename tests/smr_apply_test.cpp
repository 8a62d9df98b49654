// Differential and determinism tests of the replica apply path.
//
// Replica walks each batch in place, decodes commands as views into the
// agreed payload and writes responses into reused session buffers. Here a
// straightforward model built from the owning codecs (core::unpack_batch,
// decode_command, encode_response) over a std::map replays the same seeded
// command streams, and every response, the final contents, the divergence
// hash and the snapshot bytes must match it exactly. The streams mix in
// what an agreed history may carry besides good commands: retries and
// stale duplicates, truncated commands, bad op and flag bytes, foreign
// (non-envelope) data, membership controls, size-only deliveries and
// malformed batches.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/batch.hpp"
#include "smr/kv_store.hpp"
#include "smr/replica.hpp"
#include "smr/session.hpp"
#include "smr/wire.hpp"
#include "test_env.hpp"

namespace allconcur::smr {
namespace {

using allconcur::testing::test_seed;

// ---------------------------------------------------------------------------
// The model: the owning codecs over ordered maps.
// ---------------------------------------------------------------------------

struct Model {
  std::map<Bytes, Bytes> kv;
  struct Session {
    std::uint64_t last_seq = 0;
    Bytes response;
  };
  std::map<std::uint64_t, Session> sessions;
  std::vector<std::uint64_t> first_seen;
  std::uint64_t hash = kFnv64Offset;
  std::uint64_t applied = 0;
  std::uint64_t duplicates = 0;

  Bytes execute(std::span<const std::uint8_t> command) {
    hash = fnv1a64(hash, command);
    KvResponse r;
    const auto cmd = decode_command(command);
    if (!cmd) {
      r.status = KvResponse::Status::kBadCommand;
      return encode_response(r);
    }
    const auto it = kv.find(cmd->key);
    switch (cmd->op) {
      case Command::Op::kPut:
        kv[cmd->key] = cmd->value;
        break;
      case Command::Op::kGet:
        if (it == kv.end()) {
          r.status = KvResponse::Status::kNotFound;
        } else {
          r.value = it->second;
          r.has_value = true;
        }
        break;
      case Command::Op::kDelete:
        if (it == kv.end()) {
          r.status = KvResponse::Status::kNotFound;
        } else {
          kv.erase(it);
        }
        break;
      case Command::Op::kCas: {
        const bool match = cmd->expect_absent
                               ? it == kv.end()
                               : it != kv.end() && it->second == cmd->expected;
        if (match) {
          kv[cmd->key] = cmd->value;
        } else {
          r.status = KvResponse::Status::kCasFailed;
          if (it != kv.end()) {
            r.value = it->second;
            r.has_value = true;
          }
        }
        break;
      }
    }
    return encode_response(r);
  }

  void on_round(const core::RoundResult& result) {
    for (const core::Delivery& d : result.deliveries) {
      const auto batch = core::unpack_batch(d.payload);
      if (!batch) continue;
      for (const core::Request& request : *batch) {
        if (request.kind != core::Request::Kind::kData) continue;
        const auto env = decode_envelope(request.data);
        if (!env) continue;
        const auto it = sessions.find(env->session);
        if (it != sessions.end() && env->seq <= it->second.last_seq) {
          ++duplicates;
          continue;
        }
        if (it == sessions.end()) first_seen.push_back(env->session);
        Session& s = sessions[env->session];
        s.last_seq = env->seq;
        s.response = execute(env->command);
        ++applied;
      }
    }
  }

  /// KvStore::snapshot's format, built from the ordered map.
  Bytes kv_snapshot() const {
    Bytes out;
    wire::put_u64(out, hash);
    wire::put_u64(out, applied);
    wire::put_u64(out, kv.size());
    for (const auto& [key, value] : kv) {
      wire::put_blob(out, key);
      wire::put_blob(out, value);
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Seeded stream generator
// ---------------------------------------------------------------------------

class StreamGen {
 public:
  StreamGen(std::uint64_t seed, std::size_t keys, std::size_t sessions)
      : rng_(seed) {
    // Binary-safe keys: the empty key, keys with zero bytes, long keys
    // that share an eight-byte prefix (the snapshot sort's tie-break).
    keys_.push_back({});
    keys_.push_back({0x00});
    keys_.push_back({0x00, 0x00});
    keys_.push_back(to_bytes("shared-prefix-a"));
    keys_.push_back(to_bytes("shared-prefix-b"));
    keys_.push_back(to_bytes("shared-p"));
    while (keys_.size() < keys) {
      Bytes k(1 + rng_.next_below(12));
      for (auto& x : k) x = static_cast<std::uint8_t>(rng_.next_u64());
      keys_.push_back(std::move(k));
    }
    for (std::size_t s = 0; s < sessions; ++s) {
      clients_.emplace_back(1000 + 7 * s);  // ids need not be dense
    }
  }

  core::RoundResult round(Round r) {
    core::RoundResult result;
    result.round = r;
    const std::size_t deliveries = 1 + rng_.next_below(4);
    for (std::size_t i = 0; i < deliveries; ++i) {
      core::Delivery d;
      d.origin = static_cast<NodeId>(i);
      const std::uint64_t shape = rng_.next_below(20);
      if (shape == 0) {
        d.bytes = 512;  // size-only delivery: no payload
      } else {
        std::vector<core::Request> batch;
        const std::size_t n = rng_.next_below(7);
        for (std::size_t k = 0; k < n; ++k) batch.push_back(request());
        d.payload = core::pack_batch(batch);
        if (shape == 1 && d.payload) {
          // A malformed batch: cut inside the last request.
          auto bytes = *d.payload;
          bytes.pop_back();
          d.payload = core::make_payload(std::move(bytes));
        }
      }
      result.deliveries.push_back(std::move(d));
    }
    result.view_size = result.deliveries.size();
    return result;
  }

 private:
  Bytes value() {
    // Lengths vary a lot so response buffers both grow and shrink.
    Bytes v(rng_.next_below(3) == 0 ? rng_.next_below(200)
                                    : rng_.next_below(16));
    for (auto& x : v) x = static_cast<std::uint8_t>(rng_.next_u64());
    return v;
  }

  Command command() {
    const Bytes& key = keys_[rng_.next_below(keys_.size())];
    switch (rng_.next_below(6)) {
      case 0:
      case 1:
        return Command::put(key, value());
      case 2:
        return Command::get(key);
      case 3:
        return Command::del(key);
      case 4: {
        // Expected value: often the last one written (so some CAS
        // succeed), otherwise a fresh one (a mismatch).
        const Bytes expected = rng_.next_below(2) ? last_value_ : value();
        return Command::cas(key, expected, value());
      }
      default:
        return Command::cas_absent(key, value());
    }
  }

  Bytes command_bytes() {
    Command cmd = command();
    if (cmd.op == Command::Op::kPut) last_value_ = cmd.value;
    Bytes bytes = encode_command(cmd);
    switch (rng_.next_below(16)) {
      case 0:  // truncated
        bytes.resize(rng_.next_below(bytes.size()));
        break;
      case 1:  // bad op byte
        bytes[0] = rng_.next_below(2) ? 0 : static_cast<std::uint8_t>(
                                                5 + rng_.next_below(250));
        break;
      case 2:  // bad flags byte
        bytes[1] = 2;
        break;
      case 3:  // lengths disagree with the bytes
        bytes.push_back(0x42);
        break;
      default:
        break;
    }
    return bytes;
  }

  core::Request request() {
    switch (rng_.next_below(20)) {
      case 0:
        return core::Request::join(static_cast<NodeId>(rng_.next_below(8)));
      case 1: {  // foreign data: not an envelope
        Bytes junk(rng_.next_below(24));
        for (auto& x : junk) x = static_cast<std::uint8_t>(rng_.next_u64());
        if (!junk.empty() && junk[0] == kEnvelopeMagic) junk[0] = 0;
        return core::Request::of_data(std::move(junk));
      }
      case 2:  // an envelope too short to hold session and seq
        return core::Request::of_data({kEnvelopeMagic, 1, 2, 3});
      default:
        break;
    }
    Client& c = clients_[rng_.next_below(clients_.size())];
    const std::uint64_t pick = rng_.next_below(10);
    if (pick == 0 && c.seq > 0) {
      // A retry of the latest command: byte-identical, a duplicate.
      return core::Request::of_data(c.last);
    }
    if (pick == 1 && c.seq > 1) {
      // A stale command from further back.
      return core::Request::of_data(
          encode_envelope(c.id, 1 + rng_.next_below(c.seq - 1),
                          command_bytes()));
    }
    ++c.seq;
    c.last = encode_envelope(c.id, c.seq, command_bytes());
    return core::Request::of_data(c.last);
  }

  struct Client {
    explicit Client(std::uint64_t id) : id(id) {}
    std::uint64_t id;
    std::uint64_t seq = 0;
    Bytes last;
  };

  Rng rng_;
  std::vector<Bytes> keys_;
  std::vector<Client> clients_;
  Bytes last_value_;
};

const KvStore& kv_of(const Replica& r) {
  return dynamic_cast<const KvStore&>(r.machine());
}

void expect_matches_model(const Replica& replica, const Model& model) {
  ASSERT_EQ(replica.commands_applied(), model.applied);
  ASSERT_EQ(replica.duplicates_suppressed(), model.duplicates);
  ASSERT_EQ(replica.sessions().size(), model.sessions.size());
  for (const auto& [id, s] : model.sessions) {
    const SessionTable::Entry* e = replica.sessions().find(id);
    ASSERT_NE(e, nullptr) << "session " << id;
    ASSERT_EQ(e->last_seq, s.last_seq) << "session " << id;
    ASSERT_EQ(e->response, s.response) << "session " << id;
  }
}

/// Session ids in the order SessionTable::encode_into writes them:
/// [u32 count] then [u64 session][u64 last_seq][u32 len][bytes] each.
std::vector<std::uint64_t> encoded_session_order(const SessionTable& table) {
  Bytes out;
  table.encode_into(out);
  std::vector<std::uint64_t> order;
  std::size_t at = 4;
  std::uint64_t session = 0, seq = 0;
  Bytes response;
  while (wire::get_u64(out, at, session) && wire::get_u64(out, at, seq) &&
         wire::get_blob(out, at, response)) {
    order.push_back(session);
  }
  EXPECT_EQ(at, out.size());
  return order;
}

void run_differential(std::uint64_t seed, std::size_t keys) {
  StreamGen gen(seed, keys, 24);
  Model model;
  Replica replica(std::make_unique<KvStore>());
  for (Round r = 0; r < 400; ++r) {
    const core::RoundResult round = gen.round(r);
    model.on_round(round);
    replica.on_round(round);
    expect_matches_model(replica, model);
    if (::testing::Test::HasFatalFailure()) return;
  }
  const KvStore& kv = kv_of(replica);
  EXPECT_EQ(kv.contents(), model.kv);
  EXPECT_EQ(kv.size(), model.kv.size());
  for (const auto& [key, value] : model.kv) {
    EXPECT_EQ(kv.get_local(key), value);
  }
  EXPECT_EQ(kv.state_hash(), model.hash);
  // The snapshot format is the sorted one, byte for byte.
  EXPECT_EQ(kv.snapshot(), model.kv_snapshot());
  // The session table is written in first-seen order.
  EXPECT_EQ(encoded_session_order(replica.sessions()), model.first_seen);
}

TEST(SmrApply, ResponsesMatchTheOwningModelOnFewKeys) {
  for (std::uint64_t s = 0; s < 4; ++s) {
    SCOPED_TRACE(s);
    run_differential(test_seed() ^ (0xd1ffull + s), 8);
  }
}

TEST(SmrApply, ResponsesMatchTheOwningModelOnManyKeys) {
  // Hundreds of keys with deletes: the table grows and shifts entries
  // back on erase many times over.
  for (std::uint64_t s = 0; s < 4; ++s) {
    SCOPED_TRACE(s);
    run_differential(test_seed() ^ (0xb16ull + s), 600);
  }
}

TEST(SmrApply, MalformedBatchAppliesNothing) {
  KvSession session(1);
  const auto cmd = session.issue(Command::put(to_bytes("k"), to_bytes("v")));
  auto bytes = *core::pack_batch({core::Request::of_data(cmd),
                                  core::Request::of_data(cmd)});
  bytes.pop_back();  // the second request runs past the end
  core::RoundResult round;
  round.round = 0;
  core::Delivery d;
  d.payload = core::make_payload(std::move(bytes));
  ASSERT_FALSE(core::unpack_batch(d.payload).has_value());
  round.deliveries.push_back(d);
  Replica replica(std::make_unique<KvStore>());
  replica.on_round(round);
  EXPECT_EQ(replica.commands_applied(), 0u);
  EXPECT_EQ(replica.sessions().size(), 0u);
  EXPECT_FALSE(kv_of(replica).contains(to_bytes("k")));
}

// ---------------------------------------------------------------------------
// Determinism of snapshots
// ---------------------------------------------------------------------------

TEST(SmrApply, SameHistoryGivesIdenticalSnapshots) {
  StreamGen gen(test_seed() ^ 0x5a5aull, 64, 16);
  std::vector<core::RoundResult> history;
  for (Round r = 0; r < 200; ++r) history.push_back(gen.round(r));

  Replica a(std::make_unique<KvStore>()), b(std::make_unique<KvStore>());
  for (const auto& round : history) a.on_round(round);
  for (const auto& round : history) b.on_round(round);
  const Bytes snap = a.snapshot();
  EXPECT_EQ(b.snapshot(), snap);

  // Restore then snapshot gives the same bytes...
  Replica restored(std::make_unique<KvStore>());
  ASSERT_TRUE(restored.restore(snap));
  EXPECT_EQ(restored.snapshot(), snap);

  // ...and the restored replica stays in lockstep: same responses, same
  // hash, same snapshot after more of the history.
  for (Round r = 200; r < 300; ++r) {
    const core::RoundResult round = gen.round(r);
    a.on_round(round);
    restored.on_round(round);
  }
  EXPECT_EQ(restored.state_hash(), a.state_hash());
  EXPECT_EQ(restored.snapshot(), a.snapshot());
}

TEST(SmrApply, SessionTableKeepsFirstSeenOrderAcrossRestore) {
  SessionTable table;
  for (const std::uint64_t id : {9u, 3u, 7u}) {
    *table.admit(id, 1) = Bytes{static_cast<std::uint8_t>(id)};
  }
  ASSERT_EQ(table.admit(3, 1), nullptr);  // duplicate: nothing recorded
  *table.admit(3, 2) = Bytes{0x33};
  EXPECT_EQ(encoded_session_order(table),
            (std::vector<std::uint64_t>{9, 3, 7}));
  Bytes out;
  table.encode_into(out);
  ASSERT_EQ(out.size(), table.encoded_size());

  SessionTable back;
  std::size_t pos = 0;
  ASSERT_TRUE(back.decode_from(out, pos));
  Bytes again;
  back.encode_into(again);
  EXPECT_EQ(again, out);
  EXPECT_EQ(back.response(3, 2), Bytes{0x33});
}

TEST(SmrApply, DecodeRejectsDuplicateSessionIds) {
  SessionTable table;
  *table.admit(5, 1) = Bytes{1};
  *table.admit(6, 1) = Bytes{2};
  Bytes out;
  table.encode_into(out);
  // Rewrite the second entry's id (after [u32 count] and the first
  // 21-byte entry) to the first one's.
  Bytes dup = out;
  const std::uint64_t five = 5;
  std::memcpy(dup.data() + 4 + 21, &five, 8);
  SessionTable reject;
  std::size_t at = 0;
  EXPECT_FALSE(reject.decode_from(dup, at));

  // The same corruption inside a replica snapshot fails the restore.
  Replica source(std::make_unique<KvStore>());
  KvSession s1(5), s2(6);
  core::RoundResult round;
  core::Delivery d;
  d.payload = core::pack_batch(
      {core::Request::of_data(s1.issue(Command::put(to_bytes("a"), {}))),
       core::Request::of_data(s2.issue(Command::put(to_bytes("b"), {})))});
  round.deliveries.push_back(d);
  source.on_round(round);
  Bytes snap = source.snapshot();
  // Replica header: [u32 magic][u64 round][u64 applied][u64 dups] = 28 B;
  // each session entry is 20 B plus its 6-byte put response.
  std::memcpy(snap.data() + 28 + 4 + 26, &five, 8);
  Replica broken(std::make_unique<KvStore>());
  EXPECT_FALSE(broken.restore(snap));
}

TEST(SmrApply, KvRestoreRejectsDuplicateKeys) {
  Model model;
  model.kv[to_bytes("a")] = to_bytes("1");
  model.kv[to_bytes("b")] = to_bytes("2");
  Bytes snap = model.kv_snapshot();
  KvStore ok;
  ASSERT_TRUE(ok.restore(snap));
  // Entries are [u32 1]["a"][u32 1]["1"]: make the second key "a" too.
  snap[24 + 10 + 4] = 'a';
  KvStore dup;
  EXPECT_FALSE(dup.restore(snap));
}

}  // namespace
}  // namespace allconcur::smr
