// Dual-digraph fast path (AllConcur+ mode): paired overlay construction,
// the ⟨UBCAST⟩/⟨FALLBACK⟩ wire protocol, fast bitmap completion with zero
// tracking work, every fallback trigger (timeout, suspicion, peer
// ⟨FALLBACK⟩, ⟨FAIL⟩), the retention assist, and fast-path resumption
// after a membership change.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.hpp"
#include "graph/gs_digraph.hpp"
#include "graph/properties.hpp"
#include "loopback_cluster.hpp"
#include "plus/dual_overlay.hpp"
#include "plus/fallback_timer.hpp"

namespace allconcur::core {
namespace {

using testing::LoopbackCluster;

GraphBuilder gs_builder(std::size_t d) {
  return [d](std::size_t n) {
    if (n < 2 * d || n < 6) return graph::make_complete(n);
    return graph::make_gs_digraph(n, d);
  };
}

EngineOptions dual_options(std::size_t window = 1) {
  EngineOptions o;
  o.window = window;
  o.fast_builder = plus::make_unreliable_builder();
  return o;
}

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> b) {
  return std::vector<std::uint8_t>(b);
}

// ---------------------------------------------------------------------------
// Overlay pairing.
// ---------------------------------------------------------------------------

TEST(DualOverlay, UnreliableBuilderIsStronglyConnectedLowDegree) {
  const auto builder = plus::make_unreliable_builder();
  for (std::size_t n = 1; n <= 48; ++n) {
    const auto g = builder(n);
    ASSERT_EQ(g.order(), n);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_FALSE(g.has_edge(v, v)) << "self-loop at " << v << " n=" << n;
      EXPECT_LE(g.out_degree(v), 2u) << "n=" << n;
    }
    if (n >= 2) {
      EXPECT_TRUE(graph::is_strongly_connected(g)) << "n=" << n;
    }
  }
}

TEST(DualOverlay, DiameterLogarithmic) {
  const auto builder = plus::make_unreliable_builder();
  // GB(n,2) minus self-loops: diameter stays within ~log2(n) + slack.
  for (std::size_t n : {8u, 16u, 32u, 64u, 128u}) {
    const auto d = graph::diameter(builder(n));
    ASSERT_TRUE(d.has_value());
    std::size_t log2n = 0;
    while ((1u << log2n) < n) ++log2n;
    EXPECT_LE(*d, log2n + 2) << "n=" << n;
  }
}

TEST(DualOverlay, PairingTableFastPathIsCheaper) {
  for (std::size_t n : {8u, 16u, 32u}) {
    const auto p = plus::analyze_pairing(n, plus::make_unreliable_builder(),
                                         make_default_graph_builder());
    EXPECT_EQ(p.n, n);
    EXPECT_LE(p.u_degree, 2u);
    EXPECT_GE(p.u_connectivity, 1u);
    EXPECT_GE(p.r_connectivity, p.u_connectivity);
    // The point of the pairing: a fast round moves fewer messages.
    EXPECT_LT(p.u_edges, p.r_edges) << "n=" << n;
    EXPECT_FALSE(plus::describe_pairing(p).empty());
  }
}

// ---------------------------------------------------------------------------
// Wire messages.
// ---------------------------------------------------------------------------

TEST(DualWire, UbcastAndFallbackRoundTrip) {
  const Message u = Message::ubcast(
      7, 3, make_payload(bytes({0xaa, 0xbb, 0xcc})), 3);
  const auto u_bytes = encode(u);
  const auto u2 = decode(std::span(u_bytes.data(), u_bytes.size()));
  ASSERT_TRUE(u2.has_value());
  EXPECT_EQ(u2->type, MsgType::kUBcast);
  EXPECT_EQ(u2->round, 7u);
  EXPECT_EQ(u2->origin, 3u);
  ASSERT_TRUE(u2->payload != nullptr);
  EXPECT_EQ(*u2->payload, bytes({0xaa, 0xbb, 0xcc}));

  const Message f = Message::fallback(9, 5);
  const auto f_frame = Frame::make(f);
  const auto f2 = decode(*f_frame);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, MsgType::kFallback);
  EXPECT_EQ(f2->round, 9u);
  EXPECT_EQ(f2->origin, 5u);
  EXPECT_EQ(f2->payload_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Fast path.
// ---------------------------------------------------------------------------

TEST(DualEngine, FailureFreeRoundsCompleteFastWithZeroTrackingWork) {
  LoopbackCluster c(8, gs_builder(3), dual_options());
  for (Round r = 0; r < 5; ++r) {
    for (NodeId i = 0; i < 8; ++i) {
      c.engine(i).submit(Request::of_data(bytes({static_cast<uint8_t>(r)})));
      c.engine(i).broadcast_now();
    }
    c.pump();
  }
  for (NodeId i = 0; i < 8; ++i) {
    ASSERT_EQ(c.delivered(i).size(), 5u);
    for (const auto& rr : c.delivered(i)) {
      EXPECT_EQ(rr.deliveries.size(), 8u);  // fast set = full view
    }
    const auto& s = c.engine(i).stats();
    EXPECT_EQ(s.fast_rounds, 5u);
    EXPECT_EQ(s.fallback_rounds, 0u);
    EXPECT_EQ(s.tracking_resets, 0u);  // the fast-path invariant
    EXPECT_EQ(s.bcast_sent, 0u);       // no G_R protocol traffic at all
    EXPECT_EQ(s.fallback_sent, 0u);
    EXPECT_GT(s.ubcast_sent, 0u);
  }
}

TEST(DualEngine, FastRelayStaysOnUnreliableOverlay) {
  // Every UBCAST a node emits must target a G_U successor.
  LoopbackCluster c(8, gs_builder(3), dual_options());
  bool checked = false;
  c.drop_filter = [&](NodeId src, NodeId dst, const Message& m) {
    if (m.type == MsgType::kUBcast) {
      const auto succs = c.engine(src).view().fast_successors_of(src);
      EXPECT_TRUE(std::find(succs.begin(), succs.end(), dst) != succs.end())
          << src << " -> " << dst;
      checked = true;
    }
    return false;
  };
  for (NodeId i = 0; i < 8; ++i) c.engine(i).broadcast_now();
  c.pump();
  EXPECT_TRUE(checked);
}

// ---------------------------------------------------------------------------
// Fallback triggers.
// ---------------------------------------------------------------------------

TEST(DualEngine, TimeoutFallbackRecoversDroppedFastTraffic) {
  // All G_U traffic from node 2 toward node 0 is lost (a lossy fast
  // overlay, no server failure). Node 0 cannot complete fast; its timeout
  // fallback must recover the full set over G_R at every node.
  LoopbackCluster c(6, gs_builder(3), dual_options());
  c.drop_filter = [](NodeId src, NodeId dst, const Message& m) {
    return m.type == MsgType::kUBcast && dst == 0 && m.origin == 2;
  };
  for (NodeId i = 0; i < 6; ++i) {
    c.engine(i).submit(Request::of_data(bytes({static_cast<uint8_t>(i)})));
    c.engine(i).broadcast_now();
  }
  c.pump();
  ASSERT_FALSE(c.has_delivered(0));  // stuck: missing m_2 over G_U
  c.engine(0).on_round_timeout(0);
  c.pump();
  for (NodeId i = 0; i < 6; ++i) {
    ASSERT_TRUE(c.has_delivered(i)) << "server " << i;
    EXPECT_EQ(c.delivered(i)[0].deliveries.size(), 6u);
  }
  EXPECT_EQ(c.engine(0).stats().fallbacks_initiated, 1u);
  EXPECT_EQ(c.engine(0).stats().fallback_rounds, 1u);
  // A peer that had already fast-completed keeps the completion (its
  // delivered set is identical anyway).
  std::size_t kept_fast = 0;
  for (NodeId i = 1; i < 6; ++i) {
    kept_fast += c.engine(i).stats().fast_rounds;
  }
  EXPECT_GT(kept_fast, 0u);
}

TEST(DualEngine, SpuriousFallbackIsHarmless) {
  LoopbackCluster c(6, gs_builder(3), dual_options());
  for (NodeId i = 0; i < 6; ++i) {
    c.engine(i).submit(Request::of_data(bytes({static_cast<uint8_t>(i)})));
    c.engine(i).broadcast_now();
  }
  // Force the fallback before any traffic moved: nothing is wrong, the
  // round simply re-executes reliably and decides the same full set.
  c.engine(3).on_round_timeout(0);
  c.pump();
  for (NodeId i = 0; i < 6; ++i) {
    ASSERT_TRUE(c.has_delivered(i));
    EXPECT_EQ(c.delivered(i)[0].deliveries.size(), 6u);
    EXPECT_TRUE(c.delivered(i)[0].removed.empty());
  }
  // Idle rounds are not armed: a timeout with no activity must not spin.
  LoopbackCluster idle(4, gs_builder(3), dual_options());
  idle.engine(1).on_round_timeout(0);
  EXPECT_EQ(idle.pump(), 0u);
  EXPECT_EQ(idle.engine(1).stats().fallbacks_initiated, 0u);
}

TEST(DualEngine, CrashFallsBackRemovesAndResumesFast) {
  LoopbackCluster c(7, gs_builder(3), dual_options());
  c.crash(4);  // clean crash: nothing of round 0 ever leaves node 4
  for (NodeId i = 0; i < 7; ++i) {
    if (i == 4) continue;
    c.engine(i).submit(Request::of_data(bytes({static_cast<uint8_t>(i)})));
    c.engine(i).broadcast_now();
  }
  c.pump();
  c.suspect_everywhere(4);
  c.pump();
  for (NodeId i = 0; i < 7; ++i) {
    if (i == 4) continue;
    ASSERT_TRUE(c.has_delivered(i)) << "server " << i;
    const auto& r0 = c.delivered(i)[0];
    EXPECT_EQ(r0.deliveries.size(), 6u);
    ASSERT_EQ(r0.removed.size(), 1u);
    EXPECT_EQ(r0.removed[0], 4u);
    EXPECT_EQ(c.engine(i).stats().fallback_rounds, 1u);
  }
  // The next round runs under the shrunk view — failure-free again, so
  // the fast path must resume.
  for (NodeId i = 0; i < 7; ++i) {
    if (i == 4) continue;
    c.engine(i).submit(Request::of_data(bytes({0x77})));
    c.engine(i).broadcast_now();
  }
  c.pump();
  for (NodeId i = 0; i < 7; ++i) {
    if (i == 4) continue;
    ASSERT_EQ(c.delivered(i).size(), 2u);
    EXPECT_EQ(c.delivered(i)[1].deliveries.size(), 6u);
    EXPECT_EQ(c.engine(i).stats().fast_rounds, 1u)
        << "fast path did not resume at " << i;
  }
}

TEST(DualEngine, MidBroadcastCrashStillAgrees) {
  // The §2.3 scenario on the fast overlay: node 1 dies after 1 UBCAST
  // send. Survivors must agree on one of the two outcomes (m_1 in or
  // out), identically.
  LoopbackCluster c(6, gs_builder(3), dual_options());
  for (NodeId i = 0; i < 6; ++i) {
    c.engine(i).submit(Request::of_data(bytes({static_cast<uint8_t>(i)})));
  }
  c.engine(1).broadcast_now();
  c.crash(1, /*more_sends=*/1);
  for (NodeId i = 0; i < 6; ++i) {
    if (i != 1) c.engine(i).broadcast_now();
  }
  c.pump();
  c.suspect_everywhere(1);
  c.pump();
  // Survivors may need the timeout if m_1 spread to some but suspicion
  // resolved others — nudge any stuck round.
  for (NodeId i = 0; i < 6; ++i) {
    if (i == 1 || c.has_delivered(i)) continue;
    c.engine(i).on_round_timeout(c.engine(i).current_round());
  }
  c.pump();
  std::optional<std::vector<NodeId>> expected;
  for (NodeId i = 0; i < 6; ++i) {
    if (i == 1) continue;
    ASSERT_TRUE(c.has_delivered(i)) << "server " << i;
    std::vector<NodeId> origins;
    for (const auto& d : c.delivered(i)[0].deliveries) {
      origins.push_back(d.origin);
    }
    if (!expected) {
      expected = origins;
    } else {
      EXPECT_EQ(*expected, origins) << "server " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline interaction and retention assist.
// ---------------------------------------------------------------------------

TEST(DualEngine, FallbackDoesNotStallFastCompletedLaterRounds) {
  // W=4: node 0 misses m_2 of round 0 over G_U but receives rounds 1-2
  // fine. Rounds 1-2 fast-complete out of order at node 0; the round-0
  // fallback must deliver 0,1,2 in order without re-running 1-2.
  LoopbackCluster c(6, gs_builder(3), dual_options(4));
  c.drop_filter = [](NodeId src, NodeId dst, const Message& m) {
    return m.type == MsgType::kUBcast && dst == 0 && m.origin == 2 &&
           m.round == 0;
  };
  for (Round r = 0; r < 3; ++r) {
    for (NodeId i = 0; i < 6; ++i) {
      c.engine(i).submit(Request::of_data(bytes({static_cast<uint8_t>(r)})));
      c.engine(i).broadcast_now();
    }
    c.pump();
  }
  ASSERT_FALSE(c.has_delivered(0));
  c.engine(0).on_round_timeout(0);
  c.pump();
  ASSERT_TRUE(c.has_delivered(0));
  ASSERT_EQ(c.delivered(0).size(), 3u);
  for (Round r = 0; r < 3; ++r) {
    EXPECT_EQ(c.delivered(0)[r].round, r);
    EXPECT_EQ(c.delivered(0)[r].deliveries.size(), 6u);
  }
  const auto& s = c.engine(0).stats();
  EXPECT_EQ(s.fallback_rounds, 1u);  // only round 0 re-executed
  EXPECT_EQ(s.fast_rounds, 2u);      // rounds 1-2 kept their completion
}

TEST(DualEngine, StaleFallbackAssistedFromRetention) {
  // W=2: node 0 is cut off from ALL fast traffic of round 0, while the
  // others fast-complete rounds 0 and 1 and deliver both — recycling
  // round 0's state. Node 0's late fallback must be served out of the
  // retention ring.
  LoopbackCluster c(5, gs_builder(3), dual_options(2));
  c.drop_filter = [](NodeId src, NodeId dst, const Message& m) {
    return m.type == MsgType::kUBcast && dst == 0;
  };
  for (Round r = 0; r < 2; ++r) {
    for (NodeId i = 0; i < 5; ++i) {
      c.engine(i).submit(Request::of_data(bytes({static_cast<uint8_t>(r)})));
      c.engine(i).broadcast_now();
    }
    c.pump();
  }
  for (NodeId i = 1; i < 5; ++i) {
    ASSERT_EQ(c.delivered(i).size(), 2u) << "server " << i;
  }
  ASSERT_FALSE(c.has_delivered(0));
  c.drop_filter = nullptr;  // the lossy episode ends
  // The watchdog fires per stuck round: first round 0, then (after the
  // round-0 assist advanced the window) round 1.
  c.engine(0).on_round_timeout(0);
  c.pump();
  c.engine(0).on_round_timeout(c.engine(0).current_round());
  c.pump();
  // Node 0 catches up on both rounds with the identical full sets.
  ASSERT_EQ(c.delivered(0).size(), 2u);
  for (Round r = 0; r < 2; ++r) {
    EXPECT_EQ(c.delivered(0)[r].deliveries.size(), 5u);
    for (std::size_t k = 0; k < 5; ++k) {
      EXPECT_EQ(c.delivered(0)[r].deliveries[k].payload != nullptr,
                c.delivered(1)[r].deliveries[k].payload != nullptr);
    }
  }
}

TEST(DualEngine, StuckOpenedReliableRoundRecoversViaTimeout) {
  // Node 4 crashes *after* its round-0 broadcast fully spread: round 0
  // delivers with m_4 everywhere (no removal), the carried failure pair
  // makes round 1 open on the reliable path outright, and round 1 must
  // decide m_4 lost via FAIL evidence. Node 0 loses every round-1 FAIL
  // (link fault) and stalls; its watchdog timeout must trigger recovery
  // even though the round never "fell back" (it opened reliable), and
  // the peers' retention assist must re-send the *evidence*, not just
  // the messages.
  LoopbackCluster c(6, gs_builder(3), dual_options());
  for (NodeId i = 0; i < 6; ++i) {
    c.engine(i).submit(Request::of_data(bytes({static_cast<uint8_t>(i)})));
    c.engine(i).broadcast_now();
  }
  c.pump();
  for (NodeId i = 0; i < 6; ++i) {
    ASSERT_EQ(c.delivered(i).size(), 1u);
    ASSERT_EQ(c.delivered(i)[0].deliveries.size(), 6u);  // m_4 included
  }
  c.crash(4);
  bool lossy = true;
  c.drop_filter = [&](NodeId src, NodeId dst, const Message& m) {
    return lossy && dst == 0 && m.type == MsgType::kFail;
  };
  c.suspect_everywhere(4);
  for (NodeId i = 0; i < 6; ++i) {
    if (i == 4) continue;
    c.engine(i).submit(Request::of_data(bytes({0x11})));
    c.engine(i).broadcast_now();
  }
  c.pump();
  // Peers resolved m_4 as lost and delivered round 1; node 0 is missing
  // the evidence and is stuck in its opened-reliable round.
  for (NodeId i = 1; i < 6; ++i) {
    if (i == 4) continue;
    ASSERT_EQ(c.delivered(i).size(), 2u) << "server " << i;
  }
  ASSERT_EQ(c.delivered(0).size(), 1u);
  lossy = false;  // the link heals; the watchdog fires
  c.engine(0).on_round_timeout(1);
  c.pump();
  ASSERT_EQ(c.delivered(0).size(), 2u);
  EXPECT_EQ(c.delivered(0)[1].deliveries.size(), 5u);  // without m_4
  ASSERT_EQ(c.delivered(0)[1].removed.size(), 1u);
  EXPECT_EQ(c.delivered(0)[1].removed[0], 4u);
}

TEST(DualEngine, WatchdogRefireRecoversLostFallbackTraffic) {
  // Node 0 is missing m_2 over G_U *and* its entire first fallback flood
  // (trigger + reliable relays) is lost to a link fault. The watchdog's
  // re-fire on the stuck, already-fallen-back round must re-flood the
  // transition so the cluster still converges.
  LoopbackCluster c(5, gs_builder(3), dual_options());
  bool swallow = false;
  c.drop_filter = [&](NodeId src, NodeId dst, const Message& m) {
    if (m.type == MsgType::kUBcast && dst == 0 && m.origin == 2) return true;
    return swallow && src == 0 &&
           (m.type == MsgType::kFallback ||
            m.type == MsgType::kBroadcast);
  };
  for (NodeId i = 0; i < 5; ++i) {
    c.engine(i).submit(Request::of_data(bytes({static_cast<uint8_t>(i)})));
    c.engine(i).broadcast_now();
  }
  c.pump();
  ASSERT_FALSE(c.has_delivered(0));
  swallow = true;  // first fallback flood: fully lost
  c.engine(0).on_round_timeout(0);
  c.pump();
  ASSERT_FALSE(c.has_delivered(0)) << "flood was supposed to be swallowed";
  swallow = false;  // link heals; the watchdog fires again
  c.engine(0).on_round_timeout(0);
  c.pump();
  for (NodeId i = 0; i < 5; ++i) {
    ASSERT_TRUE(c.has_delivered(i)) << "server " << i;
    EXPECT_EQ(c.delivered(i)[0].deliveries.size(), 5u);
  }
}

TEST(DualEngine, WatchdogPolicyFiresOnceAndRearms) {
  plus::FallbackTimer t(ms(10));
  EXPECT_FALSE(t.poll(0, 1, 0).has_value());             // starts round 0
  EXPECT_FALSE(t.poll(0, 1, ms(5)).has_value());         // not yet
  // An idle (progress 0) poll restarts the deadline: a round that sat
  // quiet past the timeout must not fall back the instant it arms.
  EXPECT_FALSE(t.poll(0, 0, ms(20)).has_value());
  EXPECT_FALSE(t.poll(0, 1, ms(25)).has_value());        // armed 5ms ago
  // Intra-round progress (new messages) also re-arms: a slow-but-moving
  // round is not stalled.
  EXPECT_FALSE(t.poll(0, 2, ms(34)).has_value());
  EXPECT_FALSE(t.poll(0, 2, ms(40)).has_value());        // 6ms stalled
  auto fired = t.poll(0, 2, ms(45));
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired, 0u);
  EXPECT_FALSE(t.poll(0, 2, ms(50)).has_value());        // re-armed
  EXPECT_TRUE(t.poll(0, 2, ms(56)).has_value());         // re-fires
  EXPECT_FALSE(t.poll(1, 1, ms(60)).has_value());        // round progress
  EXPECT_TRUE(t.poll(1, 1, ms(75)).has_value());
}

TEST(DualEngine, WatchdogTrickleCannotRearmForever) {
  // Gray-failure regression: a peer that trickles one frame per timeout
  // bumps the progress counter on every poll, and each bump re-arms the
  // deadline. The max-round-age cap (8x timeout) bounds the deferral:
  // once the round has been armed that long, trickling progress no
  // longer buys time and the watchdog fires.
  plus::FallbackTimer capped(ms(10));
  EXPECT_EQ(capped.max_round_age(), ms(80));
  std::size_t progress = 1;
  TimeNs now = 0;
  std::optional<Round> fired;
  TimeNs fired_at = kTimeNever;
  for (int i = 0; i < 100 && !fired; ++i) {
    fired = capped.poll(0, progress++, now);
    if (fired) fired_at = now;
    now += ms(9);
  }
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(*fired, 0u);
  EXPECT_LE(fired_at, ms(80) + ms(9));
  // The cap paces re-fires rather than firing on every subsequent poll:
  // the age window restarts, so the next trickle-deferred fire is a full
  // cap later — and a still-stuck round keeps firing, not just once.
  std::size_t refires = 0;
  const TimeNs horizon = now + ms(800);
  while (now < horizon) {
    if (capped.poll(0, progress++, now).has_value()) ++refires;
    now += ms(9);
  }
  EXPECT_GE(refires, 5u);
  EXPECT_LE(refires, 15u);
}

}  // namespace
}  // namespace allconcur::core
