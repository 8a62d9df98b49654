// Dual-digraph fast path and chaos gray phases (netem-style induced skew)
// over real localhost TCP sockets: fast rounds on actual sockets (two
// overlays' worth of connections), the timeout-armed fallback on a
// genuinely delayed node, and the gray slowdown's observable latency
// effect.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "chaos/scenario.hpp"
#include "plus/dual_overlay.hpp"
#include "tcp_cluster.hpp"

namespace allconcur::net {
namespace {

using core::Request;
using core::RoundResult;
using testing::scaled;
using testing::TcpCluster;

/// Every frame each of `nodes` sends is held back by `delay`: a drop-free
/// gray phase from the first frame on.
chaos::ScenarioEngineRef slow_senders(const std::vector<NodeId>& nodes,
                                      DurationNs delay) {
  chaos::Scenario s(/*seed=*/1);
  for (const NodeId id : nodes) s.gray(0, kTimeNever, id, delay);
  return std::make_shared<chaos::ScenarioEngine>(std::move(s));
}

std::vector<NodeId> origins(const RoundResult& r) {
  std::vector<NodeId> out;
  for (const auto& d : r.deliveries) out.push_back(d.origin);
  return out;
}

TEST(TcpDual, FastRoundsCompleteOnRealSockets) {
  TcpCluster c(5, core::FdMode::kPerfect, ms(250),
               [](TcpNodeOptions& opt) {
                 opt.fast_builder = plus::make_unreliable_builder();
                 // No watchdog: a loaded host's slow round must not
                 // fall back, or fallback_rounds == 0 below flakes.
                 opt.fallback_timeout = 0;
               });
  const std::uint64_t kRounds = 10;
  std::atomic<bool> done{false};
  std::thread pump([&] {
    while (!done.load()) {
      for (NodeId i = 0; i < 5; ++i) c.node(i).broadcast_now();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const bool ok = c.wait_rounds({0, 1, 2, 3, 4}, kRounds, sec(30));
  done.store(true);
  pump.join();
  ASSERT_TRUE(ok);
  const auto reference = c.delivered(0);
  for (NodeId i = 0; i < 5; ++i) {
    const auto rounds = c.delivered(i);
    ASSERT_GE(rounds.size(), kRounds);
    for (std::size_t r = 0; r < kRounds; ++r) {
      EXPECT_EQ(rounds[r].deliveries.size(), 5u);
      EXPECT_EQ(origins(rounds[r]), origins(reference[r]));
    }
    const auto& s = c.node(i).stats();
    EXPECT_GE(s.fast_rounds, kRounds);
    EXPECT_EQ(s.fallback_rounds, 0u);
    EXPECT_EQ(s.tracking_resets, 0u);
    EXPECT_GT(s.ubcast_sent, 0u);
  }
}

TEST(TcpDual, DelayedNodeTriggersTimeoutFallbackAndRecovers) {
  // Node 1's every send is held back well past the fallback timeout:
  // peers cannot complete fast rounds in time, fall back, and must still
  // agree — the skew/fallback claim on actual TCP, not scheduler noise.
  const DurationNs delay = scaled(ms(120));
  const DurationNs timeout = scaled(ms(30));
  const auto inject = slow_senders({1}, delay);
  TcpCluster c(4, core::FdMode::kPerfect, ms(2000),
               [&](TcpNodeOptions& opt) {
                 opt.fast_builder = plus::make_unreliable_builder();
                 opt.fallback_timeout = timeout;
                 if (opt.self == 1) opt.chaos = inject;
               });
  const std::uint64_t kRounds = 3;
  std::atomic<bool> done{false};
  std::thread pump([&] {
    while (!done.load()) {
      for (NodeId i = 0; i < 4; ++i) c.node(i).broadcast_now();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const bool ok = c.wait_rounds({0, 1, 2, 3}, kRounds, sec(60));
  done.store(true);
  pump.join();
  ASSERT_TRUE(ok);
  const auto reference = c.delivered(0);
  std::uint64_t fallbacks = 0;
  for (NodeId i = 0; i < 4; ++i) {
    const auto rounds = c.delivered(i);
    ASSERT_GE(rounds.size(), kRounds);
    for (std::size_t r = 0; r < kRounds; ++r) {
      // No failure: the fallback re-execution must still decide the
      // full set, identically everywhere.
      EXPECT_EQ(rounds[r].deliveries.size(), 4u) << "node " << i;
      EXPECT_EQ(origins(rounds[r]), origins(reference[r]));
      EXPECT_TRUE(rounds[r].removed.empty());
    }
    fallbacks += c.node(i).stats().fallback_rounds;
  }
  EXPECT_GT(fallbacks, 0u) << "the induced delay never forced a fallback";
}

TEST(TcpSendDelay, KnobStretchesRoundLatency) {
  // Two classic runs, identical except a gray phase slowing every node's
  // sends: the delayed cluster's first rounds must take at least the
  // delay longer.
  const DurationNs delay = scaled(ms(100));
  const auto run_once = [&](DurationNs d) {
    const auto inject = d > 0 ? slow_senders({0, 1, 2}, d) : nullptr;
    TcpCluster c(3, core::FdMode::kPerfect, ms(250),
                 [&](TcpNodeOptions& opt) { opt.chaos = inject; });
    const auto t0 = std::chrono::steady_clock::now();
    for (NodeId i = 0; i < 3; ++i) c.node(i).broadcast_now();
    EXPECT_TRUE(c.wait_rounds({0, 1, 2}, 1, sec(30)));
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto fast_ns = run_once(0);
  const auto slow_ns = run_once(delay);
  // One round needs at least one delayed hop (in practice several); half
  // the delay is a generous slack against scheduling jitter.
  EXPECT_GT(slow_ns, fast_ns + delay / 2)
      << "the gray slowdown had no observable effect";
}

}  // namespace
}  // namespace allconcur::net
