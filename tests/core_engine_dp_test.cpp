// ⋄P mode (§3.3.2): FWD/BWD surviving-partition gate, tolerance of false
// suspicions, and the split-brain contrast with plain P under partitions.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.hpp"
#include "graph/digraph.hpp"
#include "loopback_cluster.hpp"

namespace allconcur::core {
namespace {

using testing::LoopbackCluster;

GraphBuilder complete_builder() {
  return [](std::size_t n) { return graph::make_complete(n); };
}

EngineOptions dp_mode() {
  EngineOptions o;
  o.fd_mode = FdMode::kEventuallyPerfect;
  return o;
}

std::vector<NodeId> origins(const RoundResult& r) {
  std::vector<NodeId> out;
  for (const auto& d : r.deliveries) out.push_back(d.origin);
  return out;
}

TEST(DpMode, FailureFreeRoundDeliversEverywhere) {
  LoopbackCluster c(5, complete_builder(), dp_mode());
  for (NodeId i = 0; i < 5; ++i) c.engine(i).broadcast_now();
  c.pump();
  for (NodeId i = 0; i < 5; ++i) {
    ASSERT_TRUE(c.has_delivered(i)) << "server " << i;
    EXPECT_EQ(c.delivered(i)[0].deliveries.size(), 5u);
  }
}

TEST(DpMode, FwdBwdTrafficFlows) {
  LoopbackCluster c(5, complete_builder(), dp_mode());
  for (NodeId i = 0; i < 5; ++i) c.engine(i).broadcast_now();
  c.pump();
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_GT(c.engine(i).stats().fwd_bwd_received, 0u);
  }
}

TEST(DpMode, FwdBwdSentCountsActualSends) {
  // Every frame the engines hand to their send hooks crosses the filter
  // (which drops none): the engines' fwd_bwd_sent must add up to the
  // FWD/BWD frames on the links, like bcast_sent and fail_sent do. (Most
  // of them reach a server that already delivered the round and are
  // dropped as stale, so fwd_bwd_received cannot serve as the reference.)
  LoopbackCluster c(5, complete_builder(), dp_mode());
  std::uint64_t on_links = 0;
  c.drop_filter = [&on_links](NodeId, NodeId, const Message& m) {
    if (m.type == MsgType::kFwd || m.type == MsgType::kBwd) ++on_links;
    return false;
  };
  for (int r = 0; r < 3; ++r) {
    for (NodeId i = 0; i < 5; ++i) c.engine(i).broadcast_now();
    c.pump();
  }
  std::uint64_t sent = 0;
  for (NodeId i = 0; i < 5; ++i) sent += c.engine(i).stats().fwd_bwd_sent;
  EXPECT_GT(on_links, 0u);
  EXPECT_EQ(sent, on_links);
}

TEST(DpMode, MultipleRoundsIterate) {
  LoopbackCluster c(5, complete_builder(), dp_mode());
  for (int r = 0; r < 3; ++r) {
    for (NodeId i = 0; i < 5; ++i) c.engine(i).broadcast_now();
    c.pump();
  }
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(c.delivered(i).size(), 3u);
  }
}

TEST(DpMode, FalseSuspicionDoesNotLoseTheMessage) {
  // p0 falsely suspects p4 before any traffic: it drops p4's direct
  // message but accepts relayed copies; the round delivers all 5 sets
  // identically and nobody is removed... except p4 may be tagged only if
  // its message had been lost, which it is not here.
  LoopbackCluster c(5, complete_builder(), dp_mode());
  c.engine(0).on_suspect(4);
  for (NodeId i = 0; i < 5; ++i) c.engine(i).broadcast_now();
  c.pump();
  for (NodeId i = 0; i < 5; ++i) {
    ASSERT_TRUE(c.has_delivered(i)) << "server " << i;
    const auto& r = c.delivered(i)[0];
    const auto o = origins(r);
    EXPECT_EQ(o, origins(c.delivered(0)[0]));
    EXPECT_EQ(std::count(o.begin(), o.end(), 4), 1);
    EXPECT_TRUE(r.removed.empty());
  }
  EXPECT_GE(c.engine(0).stats().dropped_suspected, 1u);
}

TEST(DpMode, RealCrashStillResolved) {
  LoopbackCluster c(5, complete_builder(), dp_mode());
  c.crash(3, 0);
  for (NodeId i = 0; i < 5; ++i) {
    if (!c.is_crashed(i)) c.engine(i).broadcast_now();
  }
  c.pump();
  c.suspect_everywhere(3);
  c.pump();
  for (NodeId i = 0; i < 5; ++i) {
    if (c.is_crashed(i)) continue;
    ASSERT_TRUE(c.has_delivered(i)) << "server " << i;
    EXPECT_EQ(c.delivered(i)[0].removed, (std::vector<NodeId>{3}));
  }
}

// ---------------------------------------------------------------------
// Partition: {0,1} vs {2,3,4} with all cross-group traffic dropped and
// mutual suspicion. Only the majority side may deliver.
// ---------------------------------------------------------------------
void partition(LoopbackCluster& c, const std::vector<bool>& side) {
  c.drop_filter = [side](NodeId src, NodeId dst, const Message&) {
    return side[src] != side[dst];
  };
  for (NodeId i = 0; i < side.size(); ++i) {
    for (NodeId j = 0; j < side.size(); ++j) {
      if (i != j && side[i] != side[j]) c.engine(i).on_suspect(j);
    }
  }
}

TEST(DpMode, MinorityPartitionBlocksDelivery) {
  LoopbackCluster c(5, complete_builder(), dp_mode());
  partition(c, {true, true, false, false, false});
  for (NodeId i = 0; i < 5; ++i) c.engine(i).broadcast_now();
  c.pump();
  // Majority {2,3,4} delivers a consistent set without m0, m1.
  for (NodeId i : {2u, 3u, 4u}) {
    ASSERT_TRUE(c.has_delivered(i)) << "server " << i;
    const auto o = origins(c.delivered(i)[0]);
    EXPECT_EQ(o, (std::vector<NodeId>{2, 3, 4}));
    EXPECT_EQ(c.delivered(i)[0].removed, (std::vector<NodeId>{0, 1}));
  }
  // Minority {0,1} decided its set but cannot pass the majority gate.
  for (NodeId i : {0u, 1u}) {
    EXPECT_FALSE(c.has_delivered(i)) << "server " << i;
    EXPECT_EQ(c.engine(i).active_tracking(), 0u);  // set decided...
  }
}

TEST(DpMode, PerfectModeSplitsBrainUnderPartition) {
  // The contrast the paper warns about (§3.3.2): with plain P semantics a
  // partition with false suspicions makes both sides deliver different
  // sets. This test documents why the ⋄P gate exists.
  LoopbackCluster c(5, complete_builder());  // default: FdMode::kPerfect
  partition(c, {true, true, false, false, false});
  for (NodeId i = 0; i < 5; ++i) c.engine(i).broadcast_now();
  c.pump();
  ASSERT_TRUE(c.has_delivered(0));
  ASSERT_TRUE(c.has_delivered(2));
  EXPECT_EQ(origins(c.delivered(0)[0]), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(origins(c.delivered(2)[0]), (std::vector<NodeId>{2, 3, 4}));
}

TEST(DpMode, EvenSplitBlocksBothSides) {
  LoopbackCluster c(4, complete_builder(), dp_mode());
  partition(c, {true, true, false, false});
  for (NodeId i = 0; i < 4; ++i) c.engine(i).broadcast_now();
  c.pump();
  // n=4 needs ⌊4/2⌋ = 2 *other* FWD/BWD origins: a 2-side has only one
  // other server, so neither side can deliver.
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_FALSE(c.has_delivered(i)) << "server " << i;
  }
}

}  // namespace
}  // namespace allconcur::core
