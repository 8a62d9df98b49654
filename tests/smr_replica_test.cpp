// Integration tests: the replicated KV store mounted on simulated
// AllConcur deployments — convergence, read barriers, crash-failure,
// dynamic membership with snapshot catch-up.
//
// The SimKvCluster itself asserts the per-round divergence guard (every
// replica must land on the reference state hash after every round), so
// merely running these scenarios is already a strong check; the EXPECTs
// below verify the client-visible semantics on top.
#include "smr/kv_cluster.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "test_env.hpp"

namespace allconcur::smr {
namespace {

using allconcur::testing::scaled;

Bytes b(std::string_view s) { return to_bytes(s); }

SimKvOptions small_cluster(std::size_t n) {
  SimKvOptions opt;
  opt.cluster.n = n;
  opt.cluster.detection_delay = ms(1);
  return opt;
}

// Every live replica that applied rounds agrees with the reference hash.
void expect_converged(SimKvCluster& c) {
  EXPECT_TRUE(c.converged());
  std::optional<std::uint64_t> hash;
  for (NodeId id : c.cluster().live_nodes()) {
    if (!c.has_replica(id)) continue;
    const Round next = c.replica(id).next_round();
    if (!hash && next > 0) hash = c.hash_after(next - 1);
  }
  ASSERT_TRUE(hash.has_value()) << "nobody applied anything";
}

TEST(SimKv, PutGetConvergesEverywhere) {
  SimKvCluster c(small_cluster(8));
  auto alice = c.make_session();
  auto bob = c.make_session();

  const auto put = c.execute(0, alice, Command::put(b("city"), b("zurich")));
  ASSERT_TRUE(put.has_value());
  EXPECT_TRUE(put->ok());

  const auto put2 = c.execute(3, bob, Command::put(b("lake"), b("geneva")));
  ASSERT_TRUE(put2.has_value());
  EXPECT_TRUE(put2->ok());

  // A linearizable read through the stream, from yet another node.
  auto carol = c.make_session();
  const auto got = c.execute(5, carol, Command::get(b("city")));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok());
  EXPECT_EQ(got->value, b("zurich"));

  // Everyone that kept up holds both keys.
  const Round seen = c.replica(0).next_round() - 1;
  for (NodeId id : c.cluster().live_nodes()) {
    ASSERT_TRUE(c.read_barrier(id, seen, scaled(sec(5)))) << "node " << id;
    EXPECT_EQ(c.kv(id).get_local(b("city")), b("zurich")) << "node " << id;
    EXPECT_EQ(c.kv(id).get_local(b("lake")), b("geneva")) << "node " << id;
  }
  expect_converged(c);
}

TEST(SimKv, ReadBarrierGivesReadYourWrites) {
  SimKvCluster c(small_cluster(8));
  auto session = c.make_session();
  ASSERT_TRUE(c.execute(1, session, Command::put(b("k"), b("v"))));
  // The client observed its command applied at node 1, i.e. some round R.
  const Round observed = c.replica(1).next_round() - 1;
  // Reading at a different node is only safe after a barrier on R.
  ASSERT_TRUE(c.read_barrier(6, observed, scaled(sec(5))));
  EXPECT_EQ(c.kv(6).get_local(b("k")), b("v"));
  expect_converged(c);
}

TEST(SimKv, CasArbitratesConcurrentWriters) {
  SimKvCluster c(small_cluster(8));
  auto s0 = c.make_session();
  auto s1 = c.make_session();
  // Two clients race create-if-absent on the same key in the same round.
  c.submit(2, s0, Command::cas_absent(b("leader"), b("node2-client")));
  c.submit(5, s1, Command::cas_absent(b("leader"), b("node5-client")));
  c.cluster().broadcast_all_now();
  ASSERT_TRUE(c.cluster().run_until_round_done(0, scaled(sec(5))));

  const auto r0 = c.replica(2).response(s0.id(), 1);
  const auto r1 = c.replica(2).response(s1.id(), 1);
  ASSERT_TRUE(r0.has_value());
  ASSERT_TRUE(r1.has_value());
  const bool ok0 = decode_response(*r0)->ok();
  const bool ok1 = decode_response(*r1)->ok();
  EXPECT_NE(ok0, ok1) << "exactly one CAS must win";
  // Delivery order is by origin id, so node 2's client wins everywhere.
  EXPECT_TRUE(ok0);
  EXPECT_EQ(c.kv(0).get_local(b("leader")), b("node2-client"));
  expect_converged(c);
}

TEST(SimKv, SurvivesCrashAndRetryAppliesExactlyOnce) {
  SimKvCluster c(small_cluster(8));
  auto session = c.make_session();
  ASSERT_TRUE(c.execute(0, session, Command::put(b("stable"), b("yes"))));

  // The client's contact node crashes right as the command is submitted:
  // the broadcast may or may not make it out (here: it does not — the
  // crash lands before the broadcast is scheduled).
  c.cluster().crash_at(3, c.sim().now());
  c.submit(3, session, Command::put(b("risky"), b("attempt-1")));
  c.cluster().broadcast_now(3);
  // No response from the dead node; the client retries elsewhere with
  // the same session envelope.
  const auto retried = c.retry(5, session, scaled(sec(10)));
  ASSERT_TRUE(retried.has_value());
  EXPECT_TRUE(retried->ok());

  // Exactly once: the key holds the value, and survivors agree.
  const Round seen = c.replica(5).next_round() - 1;
  for (NodeId id : c.cluster().live_nodes()) {
    ASSERT_TRUE(c.read_barrier(id, seen, scaled(sec(10)))) << "node " << id;
    EXPECT_EQ(c.kv(id).get_local(b("risky")), b("attempt-1"));
    EXPECT_EQ(c.kv(id).get_local(b("stable")), b("yes"));
  }
  expect_converged(c);
}

TEST(SimKv, CrashedBroadcastThatEscapedIsNotAppliedTwice) {
  SimKvCluster c(small_cluster(8));
  auto session = c.make_session();
  // The contact node dies right after its broadcast left (§2.3 fail-stop
  // timing): the command IS agreed, the client just never hears back.
  // Same-timestamp events run FIFO, so the broadcast precedes the crash.
  c.submit(3, session, Command::put(b("double"), b("once")));
  c.cluster().broadcast_all_now();
  c.cluster().crash_at(3, c.sim().now());
  ASSERT_TRUE(c.cluster().run_until_round_done(0, scaled(sec(10))));

  // The retry through a live node answers instantly from the session
  // cache (the command was agreed in round 0)...
  const auto retried = c.retry(0, session, scaled(sec(10)));
  ASSERT_TRUE(retried.has_value());
  EXPECT_TRUE(retried->ok());
  // ...and once the round carrying the duplicate envelope completes, the
  // replicas suppress it instead of re-applying.
  ASSERT_TRUE(c.cluster().run_until_round_done(1, c.sim().now() +
                                                      scaled(sec(10))));
  std::uint64_t duplicates = 0;
  for (NodeId id : c.cluster().live_nodes()) {
    duplicates += c.replica(id).duplicates_suppressed();
  }
  EXPECT_GT(duplicates, 0u) << "the duplicate must have been suppressed";
  EXPECT_EQ(c.kv(0).get_local(b("double")), b("once"));
  expect_converged(c);
}

TEST(SimKv, JoinerMountsFromTheStateAtItsFirstRound) {
  SimKvCluster c(small_cluster(8));
  auto session = c.make_session();
  for (int i = 0; i < 10; ++i) {
    const auto key = b("key-" + std::to_string(i));
    ASSERT_TRUE(c.execute(0, session, Command::put(key, b("v"))));
  }

  const NodeId joiner = c.cluster().schedule_join(c.sim().now(), 0);
  std::optional<Round> first;  // the joiner's first round
  c.on_deliver = [&](NodeId, const core::RoundResult& r, TimeNs) {
    for (NodeId id : r.joined) {
      if (id == joiner) first = r.round + 1;
    }
  };
  // Drive rounds until the joiner has applied two of its own (its replica
  // mounts from the snapshot taken when the round admitting it was
  // applied, then the per-round hash guard checks it like everyone else).
  const TimeNs deadline = c.sim().now() + scaled(sec(20));
  while (!(first && c.has_replica(joiner) &&
           c.replica(joiner).next_round() > *first + 1) &&
         c.sim().now() < deadline) {
    c.cluster().broadcast_all_now();
    c.cluster().run_for(ms(5));
  }
  ASSERT_TRUE(first.has_value()) << "the join never committed";
  ASSERT_TRUE(c.has_replica(joiner)) << "joiner never mounted a replica";
  ASSERT_GT(c.replica(joiner).next_round(), *first + 1);
  EXPECT_EQ(c.kv(joiner).get_local(b("key-9")), b("v"));
  // Quiesce: with no more broadcasts every node stops at the same round,
  // where the joiner's state is replica 0's byte for byte.
  c.cluster().run_for(ms(50));
  ASSERT_EQ(c.replica(joiner).next_round(), c.replica(0).next_round());
  EXPECT_EQ(c.replica(joiner).snapshot(), c.replica(0).snapshot());
  expect_converged(c);
}

// The guard's memory is bounded by how far replicas lag, not by the run:
// once every live replica is past a round, its hash is dropped.
TEST(SimKv, GuardDropsHashesEveryReplicaChecked) {
  SimKvCluster c(small_cluster(5));
  c.on_deliver = [&](NodeId who, const core::RoundResult&, TimeNs) {
    c.cluster().broadcast_now(who);  // keep rounds going
  };
  c.cluster().broadcast_all_now();
  const TimeNs deadline = c.sim().now() + scaled(sec(20));
  while (c.replica(0).next_round() < 200 && c.sim().now() < deadline) {
    c.cluster().run_for(ms(1));
  }
  ASSERT_GE(c.replica(0).next_round(), 200u);
  EXPECT_FALSE(c.hash_after(0).has_value());
  EXPECT_FALSE(c.hash_after(100).has_value());
  const Round last = c.replica(0).next_round() - 1;
  EXPECT_TRUE(c.hash_after(last).has_value());
  expect_converged(c);
}

// Join at W > 1: a heartbeat-detected crash makes auto-heal admit a
// standby while rounds are pipelined around the join. The standby's
// replica mounts at its first round (the round after the one that
// admitted it) and matches replica 0 byte for byte from then on. The
// digest covers deliveries, the event count and every live replica's
// state hash; the SMR layer only observes the stream, so how the joiner
// catches up must not move it.
TEST(SimKv, PipelinedJoinerMountsAtItsFirstRound) {
  SimKvOptions opt;
  opt.cluster.n = 8;
  opt.cluster.window = 4;
  opt.cluster.heartbeat_fd = true;
  opt.cluster.auto_heal = true;
  SimKvCluster c(opt);
  constexpr NodeId kJoiner = 8;  // the first standby id

  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a over the fields
  auto mix = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest = (digest ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  };
  std::size_t deliveries = 0;
  std::optional<Round> joiner_first;
  bool compared = false;
  c.on_deliver = [&](NodeId who, const core::RoundResult& r, TimeNs t) {
    ++deliveries;
    mix(who);
    mix(r.round);
    mix(static_cast<std::uint64_t>(t));
    for (const auto& d : r.deliveries) {
      mix(d.origin);
      mix(d.bytes);
    }
    for (NodeId id : r.removed) mix(id);
    for (NodeId id : r.joined) {
      mix(id);
      if (id == kJoiner && !joiner_first) joiner_first = r.round + 1;
    }
    if (who == kJoiner || who == 0) {
      // The first time both stand at the same round past the join, the
      // joiner's state is replica 0's, counters and sessions included.
      if (!compared && c.has_replica(kJoiner) &&
          c.replica(kJoiner).next_round() > *joiner_first &&
          c.replica(kJoiner).next_round() == c.replica(0).next_round()) {
        compared = true;
        EXPECT_EQ(c.replica(kJoiner).snapshot(), c.replica(0).snapshot());
      }
    }
    c.cluster().broadcast_now(who);  // keep rounds going
  };

  constexpr NodeId kContacts[] = {0, 1, 2, 4, 5, 6, 7};  // 3 crashes
  std::vector<KvSession> writers;
  for (int i = 0; i < 3; ++i) writers.push_back(c.make_session());
  c.cluster().crash_at(3, ms(5));
  for (int step = 0; step < 40; ++step) {
    const NodeId node = kContacts[(step * 3) % 7];
    const auto r = c.execute(node, writers[step % 3],
                             Command::put(b("k" + std::to_string(step % 13)),
                                          b(std::to_string(step))));
    ASSERT_TRUE(r.has_value()) << "step " << step;
    mix(r->value.size());
  }
  // Fixed-length tail: the joiner's mount must not steer the run.
  c.cluster().broadcast_all_now();
  c.cluster().run_for(ms(300));

  ASSERT_TRUE(joiner_first.has_value()) << "the standby was never admitted";
  ASSERT_TRUE(c.has_replica(kJoiner)) << "joiner never mounted a replica";
  EXPECT_TRUE(c.cluster().alive(kJoiner));
  EXPECT_FALSE(c.cluster().alive(3));
  EXPECT_GT(c.replica(kJoiner).next_round(), *joiner_first);
  EXPECT_TRUE(compared) << "joiner and replica 0 never stood at one round";
  EXPECT_EQ(c.kv(kJoiner).get_local(b("k0")), c.kv(0).get_local(b("k0")));
  EXPECT_TRUE(c.converged());
  expect_converged(c);

  mix(c.sim().events_processed());
  for (NodeId id : c.cluster().live_nodes()) {
    mix(id);
    mix(c.replica(id).next_round());
    mix(c.replica(id).state_hash());
  }
  EXPECT_EQ(*joiner_first, 69u);
  EXPECT_EQ(deliveries, 33071u);
  EXPECT_EQ(c.sim().events_processed(), 1392197u);
  EXPECT_EQ(digest, 7596610324126362806ull);
}

// ---------------------------------------------------------------------
// Event order on the externally driven path. SimClusterEventOrder's
// digest is one run_for, so nothing is scheduled between two run_until
// calls; here the client does exactly that (execute, submit +
// broadcast_now between short run_for chunks) while a crash is detected
// by heartbeat. The constants were recorded from the binary-heap event
// queue; any later change to the event core must reproduce them.
// ---------------------------------------------------------------------

TEST(SimKvEventOrder, PinnedDigest) {
  SimKvOptions opt;
  opt.cluster.n = 8;
  opt.cluster.window = 2;
  opt.cluster.heartbeat_fd = true;
  SimKvCluster c(opt);

  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a over the fields
  auto mix = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest = (digest ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  };
  std::size_t deliveries = 0;
  c.on_deliver = [&](NodeId who, const core::RoundResult& r, TimeNs t) {
    ++deliveries;
    mix(who);
    mix(r.round);
    mix(static_cast<std::uint64_t>(t));
    for (const auto& d : r.deliveries) {
      mix(d.origin);
      mix(d.bytes);
    }
    c.cluster().broadcast_now(who);  // keep rounds going
  };

  constexpr NodeId kContacts[] = {0, 1, 2, 3, 4, 6, 7};  // 5 crashes
  std::vector<KvSession> writers;
  for (int i = 0; i < 3; ++i) writers.push_back(c.make_session());
  c.cluster().crash_at(5, ms(3));
  std::size_t answered = 0;
  for (int step = 0; step < 90; ++step) {
    const NodeId node = kContacts[(step * 3) % 7];
    const Bytes key = b("k" + std::to_string(step % 11));
    if (step % 4 == 0) {
      const auto r = c.execute(node, writers[step % 3],
                               Command::put(key, b(std::to_string(step))));
      ASSERT_TRUE(r.has_value()) << "step " << step;
      ++answered;
      mix(r->value.size());
    } else {
      auto reader = c.make_session();
      c.submit(node, reader, Command::get(key));
      if (step % 3 != 0) c.cluster().broadcast_now(node);
      c.cluster().run_for(us(40 + 70 * (step % 5)));
    }
  }
  c.cluster().broadcast_all_now();
  c.cluster().run_for(ms(20));
  mix(c.sim().events_processed());
  mix(c.replica(0).next_round());
  mix(c.replica(0).state_hash());

  EXPECT_FALSE(c.cluster().alive(5));
  EXPECT_EQ(c.cluster().live_nodes().size(), 7u);
  EXPECT_TRUE(c.converged());
  EXPECT_EQ(answered, 23u);
  EXPECT_EQ(deliveries, 4912u);
  EXPECT_EQ(c.sim().events_processed(), 177677u);
  EXPECT_EQ(digest, 4339578205592876096ull);
}

}  // namespace
}  // namespace allconcur::smr
