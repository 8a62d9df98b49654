// Network partitions on the timed simulator (§3.3): links drop, heartbeat
// detectors suspect naturally, and in ⋄P mode only the majority partition
// keeps delivering; the minority stalls exactly as §3.3.2 prescribes, and
// can re-enter as fresh members after healing.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "api/sim_cluster.hpp"
#include "chaos/scenario.hpp"
#include "graph/digraph.hpp"

namespace allconcur::api {
namespace {

using core::RoundResult;

ClusterOptions dp_options(std::size_t n) {
  ClusterOptions opt;
  opt.n = n;
  opt.fd_mode = core::FdMode::kEventuallyPerfect;
  opt.heartbeat_fd = true;
  opt.fd_params.period = ms(10);
  opt.fd_params.timeout = ms(60);
  return opt;
}

/// Fully separates `group` from everyone else during [from, until) of the
/// virtual clock (the cluster pins the scenario epoch to t = 0).
chaos::ScenarioEngineRef partition(std::vector<NodeId> group, TimeNs from,
                                   TimeNs until = kTimeNever) {
  return std::make_shared<chaos::ScenarioEngine>(
      chaos::Scenario(/*seed=*/1).partition(from, until, std::move(group)));
}

TEST(Partition, MinorityStallsMajorityProceeds) {
  // Split {5,6,7} away before any round starts.
  ClusterOptions opt = dp_options(8);
  opt.chaos = partition({5, 6, 7}, 0);
  SimCluster c(opt);
  std::map<NodeId, std::vector<RoundResult>> results;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    results[who].push_back(r);
    c.broadcast_now(who);
  };
  c.broadcast_all_now();
  c.run_for(sec(2));

  // Majority {0..4} evicted the minority and kept running rounds.
  for (NodeId id : {0u, 1u, 2u, 3u, 4u}) {
    ASSERT_FALSE(results[id].empty()) << "node " << id;
    EXPECT_GE(results[id].size(), 3u) << "node " << id;
    EXPECT_EQ(results[id].back().view_size, 5u) << "node " << id;
  }
  // Minority never passed the FWD/BWD gate.
  for (NodeId id : {5u, 6u, 7u}) {
    EXPECT_TRUE(results[id].empty()) << "node " << id;
    EXPECT_EQ(c.engine(id).current_round(), 0u) << "node " << id;
  }
}

TEST(Partition, PerfectModeWouldSplitBrain) {
  // The §3.3.2 motivation, timed edition: under plain P semantics both
  // sides of the partition deliver different sets. A complete overlay is
  // used so that every server has suspecting successors on both sides —
  // on a sparse GS overlay the minority often cannot even resolve its
  // tracking digraphs (some majority servers have no minority successor
  // to report them), which stalls it by accident rather than by design.
  ClusterOptions opt = dp_options(8);
  opt.builder = [](std::size_t m) { return graph::make_complete(m); };
  opt.fd_mode = core::FdMode::kPerfect;
  opt.chaos = partition({5, 6, 7}, 0);
  SimCluster c(opt);
  std::map<NodeId, std::vector<RoundResult>> results;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    results[who].push_back(r);
  };
  c.broadcast_all_now();
  c.run_for(sec(2));
  ASSERT_FALSE(results[0].empty());
  ASSERT_FALSE(results[5].empty());
  EXPECT_EQ(results[0][0].deliveries.size(), 5u);
  EXPECT_EQ(results[5][0].deliveries.size(), 3u);  // split brain!
}

TEST(Partition, EvictedMinorityRejoinsAfterHeal) {
  ClusterOptions opt = dp_options(8);
  opt.chaos = partition({6, 7}, 0, /*until=*/ms(600));
  SimCluster c(opt);
  std::map<NodeId, std::vector<RoundResult>> results;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    results[who].push_back(r);
    c.broadcast_now(who);
  };
  // After the heal, the operator re-admits replacements for the evicted
  // servers through an agreed join (§3.3.2: "restart ... and rejoin").
  c.schedule_join(ms(800), /*sponsor=*/0);
  c.schedule_join(ms(820), /*sponsor=*/1);
  c.broadcast_all_now();
  c.run_for(sec(3));

  for (NodeId id : {0u, 1u, 2u, 3u, 4u, 5u}) {
    ASSERT_FALSE(results[id].empty()) << "node " << id;
    EXPECT_EQ(results[id].back().view_size, 8u) << "node " << id;
  }
  EXPECT_TRUE(c.exists(8));
  EXPECT_TRUE(c.exists(9));
  ASSERT_FALSE(results[8].empty());
  EXPECT_EQ(results[8].back().view_size, 8u);
}

TEST(Partition, TransientLinkLossIsRiddenOut) {
  // A short glitch below the FD timeout: no suspicion, no eviction, just
  // latency — reliable links may delay messages, not lose them, so the
  // harness re-sends nothing; the glitch here only affects heartbeats
  // between rounds.
  // Rounds complete quickly; the glitch happens while idle between rounds
  // and heals well inside the 60 ms timeout.
  ClusterOptions opt = dp_options(6);
  opt.chaos = partition({0, 1, 2}, ms(10), /*until=*/ms(30));
  SimCluster c(opt);
  std::map<NodeId, std::vector<RoundResult>> results;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    results[who].push_back(r);
  };
  c.broadcast_all_now();
  c.run_for(ms(205));
  c.broadcast_all_now();
  c.run_for(ms(200));
  for (NodeId id : c.live_nodes()) {
    ASSERT_EQ(results[id].size(), 2u) << "node " << id;
    EXPECT_EQ(results[id].back().view_size, 6u) << "node " << id;
    EXPECT_TRUE(results[id].back().removed.empty()) << "node " << id;
  }
  // The glitch really cut links (heartbeats crossing the split were lost).
  EXPECT_GT(opt.chaos->stats().dropped, 0u);
}

}  // namespace
}  // namespace allconcur::api
