// Integration tests: full AllConcur deployments on the simulated fabric,
// with timing, oracle/heartbeat failure detection and dynamic membership.
#include "api/sim_cluster.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "chaos/scenario.hpp"
#include "plus/plus.hpp"

namespace allconcur::api {
namespace {

using core::Request;
using core::RoundResult;

TEST(SimCluster, SingleRoundCompletesWithPlausibleLatency) {
  ClusterOptions opt;
  opt.n = 8;
  opt.fabric = sim::FabricParams::infiniband();
  SimCluster c(opt);
  std::map<NodeId, TimeNs> delivered_at;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs t) {
    EXPECT_EQ(r.round, 0u);
    delivered_at[who] = t;
  };
  c.broadcast_all_now();
  ASSERT_TRUE(c.run_until_round_done(0, sec(1)));
  EXPECT_EQ(delivered_at.size(), 8u);
  for (const auto& [who, t] : delivered_at) {
    // GS(8,3), D=2: at least 2 hops of latency; well under a millisecond
    // on InfiniBand.
    EXPECT_GT(t, 2 * ns(1250)) << "node " << who;
    EXPECT_LT(t, ms(1)) << "node " << who;
  }
}

TEST(SimCluster, LatencyScalesWithFabric) {
  auto median_latency = [](sim::FabricParams fabric) {
    ClusterOptions opt;
    opt.n = 8;
    opt.fabric = fabric;
    SimCluster c(opt);
    TimeNs last = 0;
    c.on_deliver = [&](NodeId, const RoundResult&, TimeNs t) {
      last = std::max(last, t);
    };
    c.broadcast_all_now();
    c.run_until_round_done(0, sec(1));
    return last;
  };
  // TCP (o=1.8us, L=12us) must be several times slower than IBV.
  EXPECT_GT(median_latency(sim::FabricParams::tcp_ib()),
            3 * median_latency(sim::FabricParams::infiniband()));
}

TEST(SimCluster, ManyRoundsBackToBack) {
  ClusterOptions opt;
  opt.n = 8;
  SimCluster c(opt);
  std::map<NodeId, std::size_t> rounds_done;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    ++rounds_done[who];
    EXPECT_EQ(r.deliveries.size(), 8u);
    c.broadcast_now(who);  // immediately start the next round
  };
  c.broadcast_all_now();
  ASSERT_TRUE(c.run_until_round_done(19, sec(10)));
  for (const auto& [who, n] : rounds_done) EXPECT_GE(n, 20u) << who;
}

TEST(SimCluster, OracleDetectionResolvesCrash) {
  ClusterOptions opt;
  opt.n = 8;
  opt.detection_delay = ms(1);
  SimCluster c(opt);
  std::map<NodeId, RoundResult> results;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    results[who] = r;
  };
  c.crash_at(3, 0);  // dead before it ever broadcasts
  c.broadcast_all_now();
  ASSERT_TRUE(c.run_until_round_done(0, sec(10)));
  for (NodeId id : c.live_nodes()) {
    ASSERT_TRUE(results.count(id)) << "node " << id;
    EXPECT_EQ(results[id].deliveries.size(), 7u);
    EXPECT_EQ(results[id].removed, (std::vector<NodeId>{3}));
  }
}

TEST(SimCluster, MidBroadcastCrashStillAgrees) {
  ClusterOptions opt;
  opt.n = 8;
  opt.detection_delay = ms(1);
  opt.seed = 7;
  SimCluster c(opt);
  std::map<NodeId, std::vector<NodeId>> origins;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    for (const auto& d : r.deliveries) origins[who].push_back(d.origin);
  };
  c.crash_after_sends(5, us(1), 1);  // one copy escapes
  c.broadcast_all_now();
  ASSERT_TRUE(c.run_until_round_done(0, sec(10)));
  const auto reference = origins[c.live_nodes()[0]];
  for (NodeId id : c.live_nodes()) {
    EXPECT_EQ(origins[id], reference) << "node " << id;
  }
}

TEST(SimCluster, HeartbeatFdDetectsCrash) {
  ClusterOptions opt;
  opt.n = 8;
  opt.heartbeat_fd = true;
  opt.fd_params.period = ms(10);
  opt.fd_params.timeout = ms(100);
  SimCluster c(opt);
  std::map<NodeId, RoundResult> results;
  std::map<NodeId, TimeNs> finished;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs t) {
    results[who] = r;
    finished[who] = t;
  };
  c.crash_at(2, 0);  // dead before it can broadcast: the round must stall
  c.broadcast_all_now();
  ASSERT_TRUE(c.run_until_round_done(0, sec(30)));
  for (NodeId id : c.live_nodes()) {
    EXPECT_EQ(results[id].removed, (std::vector<NodeId>{2}));
    // Unavailability is dominated by the heartbeat timeout (~100ms),
    // the shape the paper reports in Fig. 7.
    EXPECT_GT(finished[id], ms(90));
    EXPECT_LT(finished[id], ms(400));
  }
}

TEST(SimCluster, HeartbeatFdQuietWithoutFailures) {
  ClusterOptions opt;
  opt.n = 6;
  opt.heartbeat_fd = true;
  opt.fd_params.period = ms(10);
  opt.fd_params.timeout = ms(100);
  SimCluster c(opt);
  std::size_t rounds = 0;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    ++rounds;
    EXPECT_TRUE(r.removed.empty());
    c.broadcast_now(who);
  };
  c.broadcast_all_now();
  c.run_for(sec(2));
  EXPECT_GT(rounds, 100u);  // no false suspicions stalling the pipeline
  EXPECT_EQ(c.aggregate_stats().dropped_suspected, 0u);
}

TEST(SimCluster, JoinGrowsTheView) {
  ClusterOptions opt;
  opt.n = 6;
  opt.detection_delay = ms(1);
  SimCluster c(opt);
  std::map<NodeId, std::vector<RoundResult>> results;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    results[who].push_back(r);
    c.broadcast_now(who);
  };
  const NodeId joiner = c.schedule_join(ms(1), /*sponsor=*/0);
  EXPECT_EQ(joiner, 6u);
  c.broadcast_all_now();
  // Run well past the join submission plus a few commit rounds.
  c.run_for(ms(3));
  // The joiner participates and delivers rounds after its activation.
  ASSERT_TRUE(c.exists(joiner));
  EXPECT_TRUE(c.alive(joiner));
  ASSERT_FALSE(results[joiner].empty());
  EXPECT_EQ(results[joiner].back().view_size, 7u);
  // Everyone agrees on the view growth.
  for (NodeId id : c.live_nodes()) {
    EXPECT_EQ(results[id].back().view_size, 7u) << "node " << id;
  }
}

TEST(SimCluster, FailThenJoinRestoresSize) {
  ClusterOptions opt;
  opt.n = 8;
  opt.detection_delay = ms(1);
  SimCluster c(opt);
  std::map<NodeId, std::vector<RoundResult>> results;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    results[who].push_back(r);
    c.broadcast_now(who);
  };
  c.crash_at(4, ms(2));
  c.schedule_join(ms(4), /*sponsor=*/1);
  c.broadcast_all_now();
  // Past the crash (plus detection) and the join commit.
  c.run_for(ms(10));
  for (NodeId id : c.live_nodes()) {
    EXPECT_EQ(results[id].back().view_size, 8u) << "node " << id;
    EXPECT_NE(id, 4u);
  }
  EXPECT_GE(results[c.live_nodes().back()].size(), 3u);
}

TEST(SimCluster, PayloadsFlowThroughFabric) {
  ClusterOptions opt;
  opt.n = 6;
  SimCluster c(opt);
  std::set<NodeId> saw_payload;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    for (const auto& d : r.deliveries) {
      if (d.origin == 2 && d.payload) {
        const auto reqs = core::unpack_batch(d.payload);
        ASSERT_TRUE(reqs.has_value());
        ASSERT_EQ(reqs->size(), 1u);
        EXPECT_EQ((*reqs)[0].data, (std::vector<std::uint8_t>{1, 2, 3}));
        saw_payload.insert(who);
      }
    }
  };
  c.submit(2, Request::of_data({1, 2, 3}));
  c.broadcast_all_now();
  ASSERT_TRUE(c.run_until_round_done(0, sec(1)));
  EXPECT_EQ(saw_payload.size(), 6u);
}

TEST(SimCluster, DeterministicAcrossRuns) {
  auto run = [] {
    ClusterOptions opt;
    opt.n = 8;
    SimCluster c(opt);
    TimeNs last = 0;
    c.on_deliver = [&](NodeId, const RoundResult&, TimeNs t) {
      last = std::max(last, t);
    };
    c.broadcast_all_now();
    c.run_until_round_done(0, sec(1));
    return last;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimCluster, BroadcastTimesRecorded) {
  ClusterOptions opt;
  opt.n = 6;
  SimCluster c(opt);
  c.on_deliver = [](NodeId, const RoundResult&, TimeNs) {};
  c.broadcast_all_now();
  c.run_until_round_done(0, sec(1));
  for (NodeId id : c.live_nodes()) {
    EXPECT_TRUE(c.broadcast_time(id, 0).has_value()) << "node " << id;
  }
  EXPECT_FALSE(c.broadcast_time(0, 99).has_value());
}

// ---------------------------------------------------------------------
// Pinned event order. One fixed-seed run drives every hop path of the
// simulated fabric (plain, duplicated, corrupted, jittered and gray-slowed
// frames) next to the control events (heartbeat and watchdog ticks, the
// crash timer, sampled-trace send spans, broadcast_now). The digest covers
// every delivery with its virtual time, so any change to the order in
// which the simulator runs equal-time events moves it. The constants were
// recorded from the simulator that kept one std::function per event; the
// typed-hop queue must reproduce them exactly, and so must any later
// change to the event core.
// ---------------------------------------------------------------------

TEST(SimClusterEventOrder, PinnedDigest) {
  chaos::LinkFaults f;
  f.duplicate = 0.08;
  f.corrupt = 0.03;
  f.reorder = 0.3;
  f.reorder_jitter = us(200);
  ClusterOptions opt;
  opt.n = 8;
  opt.window = 2;
  opt.heartbeat_fd = true;
  opt.fast_builder = plus::make_unreliable_builder();
  opt.fallback_timeout = ms(30);
  opt.trace_sample_period = 4;
  opt.chaos = std::make_shared<chaos::ScenarioEngine>(
      chaos::Scenario(0xD16E57)
          .faults(0, ms(80), f)
          .gray(ms(80), ms(160), 2, us(300), 0.1));
  SimCluster c(opt);

  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a over the fields
  auto mix = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest = (digest ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  };
  std::size_t deliveries = 0;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs t) {
    ++deliveries;
    mix(who);
    mix(r.round);
    mix(static_cast<std::uint64_t>(t));
    for (const auto& d : r.deliveries) {
      mix(d.origin);
      mix(d.bytes);
    }
    c.submit_opaque(who, 32 * (1 + r.round % 4));
    c.broadcast_now(who);
  };
  c.crash_after_sends(5, ms(30), 3);
  c.broadcast_all_now();
  c.run_for(ms(400));
  mix(c.sim().events_processed());
  mix(c.corrupt_dropped());

  EXPECT_FALSE(c.alive(5));
  EXPECT_EQ(c.live_nodes().size(), 7u);
  EXPECT_EQ(c.corrupt_delivered(), 0u);
  EXPECT_EQ(deliveries, 32335u);
  EXPECT_EQ(c.sim().events_processed(), 849082u);
  EXPECT_EQ(c.corrupt_dropped(), 45u);
  EXPECT_EQ(digest, 9888443618028761708ull);
}

// The ⋄P counterpart: n=9, W=3 with the FWD/BWD delivery gate. A gray
// phase stalls node 2's heartbeats past the detector timeout (a false
// suspicion: node 2 is evicted while alive, auto-heal admits a standby),
// then node 6 crashes. Failure pairs are carried across the window and
// across both epoch switches (node 2's own suspicions of its
// predecessors outlive node 2). Same FNV-1a digest as above.
ClusterOptions diamond_p_options() {
  ClusterOptions opt;
  opt.n = 9;
  opt.window = 3;
  opt.fd_mode = core::FdMode::kEventuallyPerfect;
  opt.heartbeat_fd = true;
  opt.fd_params = {.period = ms(5), .timeout = ms(20)};
  opt.auto_heal = true;
  opt.chaos = std::make_shared<chaos::ScenarioEngine>(
      chaos::Scenario(0xD1A9).gray(ms(40), ms(70), 2, ms(30)));
  return opt;
}

TEST(SimClusterEventOrder, DiamondPPinnedDigest) {
  SimCluster c(diamond_p_options());

  std::uint64_t digest = 0xcbf29ce484222325ull;
  auto mix = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest = (digest ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  };
  std::size_t deliveries = 0;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs t) {
    ++deliveries;
    mix(who);
    mix(r.round);
    mix(static_cast<std::uint64_t>(t));
    for (const auto& d : r.deliveries) {
      mix(d.origin);
      mix(d.bytes);
    }
    for (NodeId id : r.removed) mix(id);
    for (NodeId id : r.joined) mix(id);
    c.submit_opaque(who, 32 * (1 + r.round % 4));
    c.broadcast_now(who);
  };
  c.crash_at(6, ms(120));
  c.broadcast_all_now();
  c.run_for(ms(250));
  mix(c.sim().events_processed());

  // Node 2 was evicted while alive, node 6 crashed, and auto-heal
  // restored the membership size with two standbys.
  const auto& view = c.engine(0).view();
  EXPECT_FALSE(view.contains(2));
  EXPECT_FALSE(view.contains(6));
  EXPECT_FALSE(c.alive(6));
  EXPECT_EQ(view.size(), 9u);
  EXPECT_EQ(deliveries, 7701u);
  EXPECT_EQ(c.sim().events_processed(), 907824u);
  EXPECT_EQ(digest, 1567377241879172244ull);
}

// Every dropped_* increment records a kDroppedMsg of the matching reason,
// per node, over the same false-suspicion-plus-crash run.
TEST(SimClusterDrops, EveryDropIsRecorded) {
  ClusterOptions opt = diamond_p_options();
  // Plus a link outage: node 0 falsely suspects its predecessor 4, which
  // stays a member (its messages arrive relayed), so 4's later traffic
  // over the healed link is dropped as from a suspect.
  opt.chaos = std::make_shared<chaos::ScenarioEngine>(
      chaos::Scenario(0xD1A9)
          .gray(ms(40), ms(70), 2, ms(30))
          .link_down(ms(90), ms(115), 4, 0));
  opt.recorder_capacity = 1 << 15;
  SimCluster c(opt);
  c.on_deliver = [&](NodeId who, const RoundResult&, TimeNs) {
    c.submit_opaque(who, 64);
    c.broadcast_now(who);
  };
  c.crash_at(6, ms(120));
  c.broadcast_all_now();
  c.run_for(ms(160));

  core::EngineStats total;
  for (NodeId id = 0; c.exists(id); ++id) {
    const obs::FlightRecorder* rec = c.recorder(id);
    ASSERT_EQ(rec->dropped(), 0u) << "node " << id << ": ring too small";
    std::uint64_t recorded[4] = {};
    for (const auto& e : rec->events()) {
      if (e.kind == obs::EventKind::kDroppedMsg) ++recorded[e.a];
    }
    const core::EngineStats& s = c.engine(id).stats();
    using R = obs::DropReason;
    EXPECT_EQ(recorded[static_cast<int>(R::kStale)], s.dropped_stale)
        << "node " << id;
    EXPECT_EQ(recorded[static_cast<int>(R::kSuspectedOrigin)],
              s.dropped_suspected)
        << "node " << id;
    EXPECT_EQ(recorded[static_cast<int>(R::kForeignEpoch)], s.dropped_foreign)
        << "node " << id;
    EXPECT_EQ(recorded[static_cast<int>(R::kLostRace)], s.dropped_lost)
        << "node " << id;
    total.dropped_suspected += s.dropped_suspected;
    total.dropped_foreign += s.dropped_foreign;
  }
  EXPECT_GT(total.dropped_suspected, 0u);
  EXPECT_GT(total.dropped_foreign, 0u);
}

// ---------------------------------------------------------------------
// Auto-heal (§4.2.2 deployment note): failed servers are replaced by
// standbys through ordinary agreed joins, restoring the membership size.
// ---------------------------------------------------------------------

TEST(AutoHeal, CrashTriggersReplacementJoin) {
  ClusterOptions opt;
  opt.n = 8;
  opt.detection_delay = ms(1);
  opt.auto_heal = true;
  SimCluster c(opt);
  std::map<NodeId, std::vector<RoundResult>> results;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    results[who].push_back(r);
    c.broadcast_now(who);
  };
  c.crash_at(5, ms(1));
  c.broadcast_all_now();
  c.run_for(ms(20));

  // The standby (id 8) must have been admitted and the view restored to 8.
  ASSERT_TRUE(c.exists(8));
  EXPECT_TRUE(c.alive(8));
  for (NodeId id : c.live_nodes()) {
    ASSERT_FALSE(results[id].empty());
    EXPECT_EQ(results[id].back().view_size, 8u) << "node " << id;
  }
  EXPECT_FALSE(c.alive(5));
}

TEST(AutoHeal, SequentialCrashesKeepHealing) {
  ClusterOptions opt;
  opt.n = 8;
  opt.detection_delay = ms(1);
  opt.auto_heal = true;
  SimCluster c(opt);
  std::map<NodeId, std::vector<RoundResult>> results;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    results[who].push_back(r);
    c.broadcast_now(who);
  };
  c.crash_at(3, ms(1));
  c.crash_at(6, ms(10));
  c.broadcast_all_now();
  c.run_for(ms(40));

  ASSERT_TRUE(c.exists(8));
  ASSERT_TRUE(c.exists(9));
  for (NodeId id : c.live_nodes()) {
    EXPECT_EQ(results[id].back().view_size, 8u) << "node " << id;
  }
}

TEST(AutoHeal, DisabledMeansShrink) {
  ClusterOptions opt;
  opt.n = 8;
  opt.detection_delay = ms(1);
  opt.auto_heal = false;
  SimCluster c(opt);
  std::map<NodeId, std::vector<RoundResult>> results;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    results[who].push_back(r);
    c.broadcast_now(who);
  };
  c.crash_at(5, ms(1));
  c.broadcast_all_now();
  c.run_for(ms(20));
  EXPECT_FALSE(c.exists(8));
  for (NodeId id : c.live_nodes()) {
    EXPECT_EQ(results[id].back().view_size, 7u) << "node " << id;
  }
}

}  // namespace
}  // namespace allconcur::api
