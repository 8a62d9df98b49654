// Failure-free engine behaviour: Algorithm 1's happy path, round
// iteration, batching, determinism.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "graph/binomial_graph.hpp"
#include "graph/gs_digraph.hpp"
#include "loopback_cluster.hpp"

namespace allconcur::core {
namespace {

using testing::LoopbackCluster;

GraphBuilder gs_builder(std::size_t d) {
  return [d](std::size_t n) {
    if (n < 2 * d || n < 6) return graph::make_complete(n);
    return graph::make_gs_digraph(n, d);
  };
}

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> b) {
  return std::vector<std::uint8_t>(b);
}

TEST(Engine, SingleRoundAllDeliverSameSet) {
  LoopbackCluster c(8, gs_builder(3));
  for (NodeId i = 0; i < 8; ++i) {
    c.engine(i).submit(Request::of_data(bytes({static_cast<uint8_t>(i)})));
    c.engine(i).broadcast_now();
  }
  c.pump();
  for (NodeId i = 0; i < 8; ++i) {
    ASSERT_TRUE(c.has_delivered(i)) << "server " << i;
    const auto& rounds = c.delivered(i);
    ASSERT_EQ(rounds.size(), 1u);
    EXPECT_EQ(rounds[0].round, 0u);
    EXPECT_EQ(rounds[0].deliveries.size(), 8u);
    EXPECT_TRUE(rounds[0].removed.empty());
  }
}

TEST(Engine, DeliveriesInDeterministicOrder) {
  LoopbackCluster c(8, gs_builder(3));
  // Broadcast in scrambled order; delivery order must still be by id.
  for (NodeId i : {5u, 2u, 7u, 0u, 3u, 6u, 1u, 4u}) {
    c.engine(i).broadcast_now();
  }
  c.pump();
  for (NodeId i = 0; i < 8; ++i) {
    const auto& d = c.delivered(i)[0].deliveries;
    for (std::size_t k = 0; k + 1 < d.size(); ++k) {
      EXPECT_LT(d[k].origin, d[k + 1].origin);
    }
  }
}

TEST(Engine, PayloadsArriveIntact) {
  LoopbackCluster c(6, gs_builder(3));
  c.engine(2).submit(Request::of_data(bytes({0xde, 0xad, 0xbe, 0xef})));
  for (NodeId i = 0; i < 6; ++i) c.engine(i).broadcast_now();
  c.pump();
  for (NodeId i = 0; i < 6; ++i) {
    const auto& d = c.delivered(i)[0].deliveries;
    const auto batch = unpack_batch(d[2].payload);
    ASSERT_TRUE(batch.has_value());
    ASSERT_EQ(batch->size(), 1u);
    EXPECT_EQ((*batch)[0].data, bytes({0xde, 0xad, 0xbe, 0xef}));
  }
}

TEST(Engine, OneSpontaneousSenderTriggersEveryone) {
  // Only p0 has something to say; everyone else A-broadcasts empty
  // messages as a reaction (Algorithm 1 line 15).
  LoopbackCluster c(8, gs_builder(3));
  c.engine(0).broadcast_now();
  c.pump();
  for (NodeId i = 0; i < 8; ++i) {
    ASSERT_TRUE(c.has_delivered(i));
    EXPECT_EQ(c.delivered(i)[0].deliveries.size(), 8u);
  }
}

TEST(Engine, MultipleRoundsIterate) {
  LoopbackCluster c(8, gs_builder(3));
  for (int round = 0; round < 5; ++round) {
    for (NodeId i = 0; i < 8; ++i) c.engine(i).broadcast_now();
    c.pump();
  }
  for (NodeId i = 0; i < 8; ++i) {
    ASSERT_EQ(c.delivered(i).size(), 5u);
    for (std::size_t r = 0; r < 5; ++r) {
      EXPECT_EQ(c.delivered(i)[r].round, r);
      EXPECT_EQ(c.delivered(i)[r].deliveries.size(), 8u);
    }
    EXPECT_EQ(c.engine(i).current_round(), 5u);
  }
}

TEST(Engine, RequestsBatchIntoNextRound) {
  LoopbackCluster c(6, gs_builder(3));
  c.engine(0).submit(Request::of_data(bytes({1})));
  c.engine(0).broadcast_now();
  // Submitted after the broadcast: goes into round 1's message.
  c.engine(0).submit(Request::of_data(bytes({2})));
  c.pump();
  for (NodeId i = 0; i < 6; ++i) c.engine(i).broadcast_now();
  c.pump();
  const auto& rounds = c.delivered(3);
  ASSERT_EQ(rounds.size(), 2u);
  const auto b0 = unpack_batch(rounds[0].deliveries[0].payload);
  const auto b1 = unpack_batch(rounds[1].deliveries[0].payload);
  ASSERT_TRUE(b0 && b1);
  ASSERT_EQ(b0->size(), 1u);
  ASSERT_EQ(b1->size(), 1u);
  EXPECT_EQ((*b0)[0].data, bytes({1}));
  EXPECT_EQ((*b1)[0].data, bytes({2}));
}

TEST(Engine, BroadcastNowIsIdempotent) {
  LoopbackCluster c(6, gs_builder(3));
  c.engine(0).broadcast_now();
  c.engine(0).broadcast_now();
  c.engine(0).broadcast_now();
  for (NodeId i = 1; i < 6; ++i) c.engine(i).broadcast_now();
  c.pump();
  EXPECT_EQ(c.delivered(1)[0].deliveries.size(), 6u);
}

TEST(Engine, SizeOnlyPayloadsCarrySizes) {
  LoopbackCluster c(6, gs_builder(3));
  c.engine(4).submit_opaque(4096);
  for (NodeId i = 0; i < 6; ++i) c.engine(i).broadcast_now();
  c.pump();
  const auto& d = c.delivered(0)[0].deliveries;
  EXPECT_EQ(d[4].bytes, 4096u);
  EXPECT_EQ(d[4].payload, nullptr);
  EXPECT_EQ(d[0].bytes, 0u);
}

TEST(Engine, OpaqueLoadWaitsBehindAStructuredBatch) {
  // Structured requests and size-only load pending for the same round: the
  // round carries the structured batch alone (its declared size is its
  // payload's, so the frame encodes), and the opaque bytes go out in the
  // next round's broadcast.
  LoopbackCluster c(6, gs_builder(3));
  c.engine(4).submit(Request::of_data(bytes({1, 2, 3})));
  c.engine(4).submit_opaque(4096);
  for (NodeId i = 0; i < 6; ++i) c.engine(i).broadcast_now();
  c.pump();
  ASSERT_EQ(c.delivered(0).size(), 1u);
  const Delivery first = c.delivered(0)[0].deliveries[4];
  ASSERT_NE(first.payload, nullptr);
  EXPECT_EQ(first.bytes, first.payload->size());
  const auto batch = unpack_batch(first.payload);
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].data, bytes({1, 2, 3}));
  EXPECT_EQ(c.engine(4).pending_bytes(), 4096u);

  for (NodeId i = 0; i < 6; ++i) c.engine(i).broadcast_now();
  c.pump();
  for (NodeId i = 0; i < 6; ++i) {
    ASSERT_EQ(c.delivered(i).size(), 2u) << "server " << i;
    const Delivery& second = c.delivered(i)[1].deliveries[4];
    EXPECT_EQ(second.bytes, 4096u);
    EXPECT_EQ(second.payload, nullptr);
  }
  EXPECT_EQ(c.engine(4).pending_bytes(), 0u);
}

TEST(Engine, WorkMatchesAnalysis) {
  // §4.1: without failures every server receives an A-broadcast message
  // from each of its d predecessors for every origin — but our relays skip
  // the link a message arrived on, so received <= (n-1)*d and > (n-1).
  const std::size_t n = 8, d = 3;
  LoopbackCluster c(n, gs_builder(d));
  for (NodeId i = 0; i < n; ++i) c.engine(i).broadcast_now();
  c.pump();
  for (NodeId i = 0; i < n; ++i) {
    const auto& s = c.engine(i).stats();
    EXPECT_LE(s.bcast_received, (n - 1) * d);
    EXPECT_GE(s.bcast_received, n - 1);
    EXPECT_EQ(s.fail_received, 0u);
    EXPECT_EQ(s.dropped_suspected, 0u);
    EXPECT_EQ(s.dropped_lost, 0u);
  }
}

TEST(Engine, SingleServerDeliversAlone) {
  LoopbackCluster c(1, gs_builder(3));
  c.engine(0).submit(Request::of_data(bytes({9})));
  c.engine(0).broadcast_now();
  c.pump();
  ASSERT_TRUE(c.has_delivered(0));
  EXPECT_EQ(c.delivered(0)[0].deliveries.size(), 1u);
}

TEST(Engine, TwoServers) {
  LoopbackCluster c(2, gs_builder(3));
  c.engine(0).broadcast_now();
  c.engine(1).broadcast_now();
  c.pump();
  EXPECT_EQ(c.delivered(0)[0].deliveries.size(), 2u);
  EXPECT_EQ(c.delivered(1)[0].deliveries.size(), 2u);
}

TEST(Engine, BinomialOverlayWorksToo) {
  LoopbackCluster c(9, [](std::size_t n) {
    return graph::make_binomial_graph(n);
  });
  for (NodeId i = 0; i < 9; ++i) c.engine(i).broadcast_now();
  c.pump();
  for (NodeId i = 0; i < 9; ++i) {
    EXPECT_EQ(c.delivered(i)[0].deliveries.size(), 9u);
  }
}

TEST(Engine, RelayIsEncodedOnceAndCountsActualSends) {
  // n = 4 complete graph: out-degree 3 from every node.
  std::vector<NodeId> members{0, 1, 2, 3};
  std::vector<std::pair<NodeId, FrameRef>> sent;
  Engine::Hooks hooks;
  hooks.send = [&](NodeId dst, const FrameRef& f) {
    sent.emplace_back(dst, f);
  };
  hooks.deliver = [](const RoundResult&) {};
  const GraphBuilder complete = [](std::size_t n) {
    return graph::make_complete(n);
  };
  Engine e(0, View(members, complete), complete, hooks);

  const Payload inbound = make_payload({1, 2, 3});
  e.on_message(1, Message::bcast(0, 1, inbound));

  // Line 15 first A-broadcasts our own message (3 successors), then the
  // relay goes to every successor except the inbound link (2 sends).
  ASSERT_EQ(sent.size(), 5u);
  // All sends of one message share the same frame object: encoded once
  // per message regardless of out-degree.
  EXPECT_EQ(sent[0].second.get(), sent[1].second.get());
  EXPECT_EQ(sent[1].second.get(), sent[2].second.get());
  EXPECT_EQ(sent[3].second.get(), sent[4].second.get());
  EXPECT_NE(sent[2].second.get(), sent[3].second.get());
  EXPECT_EQ(e.stats().frames_encoded, 2u);
  // The relayed frame shares the inbound payload bytes: zero copies.
  EXPECT_EQ(sent[3].second->msg().origin, 1u);
  EXPECT_EQ(sent[3].second->wire_payload().get(), inbound.get());
  // bcast_sent counts actual sends — 3 own + 2 relayed (the inbound link
  // is skipped), not 2 * out-degree.
  EXPECT_EQ(e.stats().bcast_sent, 5u);
  for (std::size_t i = 3; i < sent.size(); ++i) {
    EXPECT_NE(sent[i].first, 1u) << "relayed back on the inbound link";
  }
}

TEST(Engine, FullRoundEncodesEachMessageOncePerNode) {
  LoopbackCluster c(8, gs_builder(3));  // GS(8, 3): out-degree 3
  for (NodeId i = 0; i < 8; ++i) c.engine(i).broadcast_now();
  c.pump();
  for (NodeId i = 0; i < 8; ++i) {
    const auto& s = c.engine(i).stats();
    // One frame per message this node emitted: its own broadcast plus one
    // relay per peer message — n frames per failure-free round, while the
    // sends fan out over the out-degree.
    EXPECT_EQ(s.frames_encoded, 8u) << "node " << i;
    EXPECT_GT(s.bcast_sent, s.frames_encoded) << "node " << i;
  }
}

TEST(Engine, LargeDeploymentDelivers) {
  const std::size_t n = 90;
  LoopbackCluster c(n, gs_builder(5));
  for (NodeId i = 0; i < n; ++i) c.engine(i).broadcast_now();
  c.pump();
  for (NodeId i = 0; i < n; ++i) {
    ASSERT_TRUE(c.has_delivered(i));
    EXPECT_EQ(c.delivered(i)[0].deliveries.size(), n);
  }
}

}  // namespace
}  // namespace allconcur::core
