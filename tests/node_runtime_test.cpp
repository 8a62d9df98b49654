// NodeRuntime and NodeOptions: the defaults both deployments rely on, and
// the runtime's own wiring — only the switched-on parts exist, tracing
// without a flight recorder is refused, and a membership change re-points
// the heartbeat detector.
#include "node/runtime.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <tuple>

#include "api/sim_cluster.hpp"
#include "net/tcp_transport.hpp"
#include "plus/dual_overlay.hpp"

namespace allconcur::node {
namespace {

TEST(NodeOptions, DefaultsBothDeploymentsRelyOn) {
  const net::TcpNodeOptions tcp;
  EXPECT_TRUE(tcp.heartbeat_fd);
  EXPECT_EQ(tcp.fd_params.period, ms(25));
  EXPECT_EQ(tcp.fd_params.timeout, ms(250));

  const api::ClusterOptions sim;
  EXPECT_FALSE(sim.heartbeat_fd);
  EXPECT_EQ(sim.fd_params.period, ms(10));
  EXPECT_EQ(sim.fd_params.timeout, ms(100));

  for (const NodeOptions* o : {static_cast<const NodeOptions*>(&tcp),
                               static_cast<const NodeOptions*>(&sim)}) {
    EXPECT_EQ(o->recorder_capacity, 1024u);
    EXPECT_TRUE(o->flight_recorder);
    EXPECT_EQ(o->window, 1u);
  }
}

/// n runtimes on one in-memory FIFO: every frame a runtime sends is handed
/// to its destination's receive() by pump(), except to or from crashed
/// nodes.
class RuntimeRing {
 public:
  RuntimeRing(std::size_t n, const NodeOptions& options) {
    std::vector<NodeId> members(n);
    for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
    delivered_.resize(n);
    crashed_.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<NodeId>(i);
      nodes_.push_back(std::make_unique<NodeRuntime>(
          id, core::View(members, options.builder, options.fast_builder),
          /*start_round=*/0, options, &now_,
          [this, id](NodeId dst, const core::FrameRef& frame) {
            sent_.emplace_back(id, dst, frame);
          },
          [this, id](const core::RoundResult& r) {
            delivered_[id].push_back(r);
          },
          /*hop_histogram=*/nullptr));
    }
  }

  NodeRuntime& node(NodeId id) { return *nodes_[id]; }
  const std::vector<core::RoundResult>& delivered(NodeId id) const {
    return delivered_[id];
  }
  void crash(NodeId id) { crashed_[id] = true; }

  /// Advances the clock by `d` and ticks every live detector.
  void tick(DurationNs d) {
    now_ += d;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      if (!crashed_[id]) nodes_[id]->tick_fd(now_);
    }
  }

  /// Delivers queued frames until none are left; returns the heartbeats
  /// among them addressed to `watch`.
  std::size_t pump(NodeId watch = kInvalidNode) {
    std::size_t beats = 0;
    while (!sent_.empty()) {
      const auto [src, dst, frame] = sent_.front();
      sent_.pop_front();
      if (frame->msg().type == core::MsgType::kHeartbeat && dst == watch) {
        ++beats;
      }
      if (crashed_[src] || crashed_[dst]) continue;
      nodes_[dst]->receive(src, frame->msg(), now_);
    }
    return beats;
  }

 private:
  TimeNs now_ = 0;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  std::vector<std::vector<core::RoundResult>> delivered_;
  std::vector<bool> crashed_;
  std::deque<std::tuple<NodeId, NodeId, core::FrameRef>> sent_;
};

TEST(NodeRuntime, BuildsOnlyWhatTheOptionsSwitchOn) {
  api::ClusterOptions off;
  off.flight_recorder = false;
  RuntimeRing bare(3, off);
  EXPECT_EQ(bare.node(0).recorder(), nullptr);
  EXPECT_FALSE(bare.node(0).tracing());
  EXPECT_FALSE(bare.node(0).has_fd());
  EXPECT_FALSE(bare.node(0).has_watchdog());

  api::ClusterOptions on;
  on.trace_sample_period = 4;
  on.heartbeat_fd = true;
  on.fast_builder = plus::make_unreliable_builder();
  RuntimeRing full(3, on);
  EXPECT_NE(full.node(0).recorder(), nullptr);
  EXPECT_TRUE(full.node(0).tracing());
  EXPECT_TRUE(full.node(0).has_fd());
  EXPECT_TRUE(full.node(0).has_watchdog());
}

TEST(NodeRuntimeDeathTest, TracingWithoutTheRecorderIsRefused) {
  // Spans live in the flight recorder: sampling with no ring to keep them
  // is an option error, refused at construction.
  api::ClusterOptions o;
  o.flight_recorder = false;
  o.trace_sample_period = 4;
  EXPECT_DEATH(RuntimeRing(1, o), "needs flight_recorder");
}

TEST(NodeRuntime, MembershipChangeRepeersTheDetector) {
  // Four nodes on the complete digraph: node 3 crashes, the survivors'
  // detectors time it out, and the round that removes it must also stop
  // their heartbeats to it — the detector follows the new overlay.
  api::ClusterOptions o;
  o.heartbeat_fd = true;
  RuntimeRing ring(4, o);
  ring.crash(3);
  for (NodeId id = 0; id < 3; ++id) ring.node(id).engine().broadcast_now();
  ring.pump();
  for (int i = 0; i < 12 && ring.delivered(0).empty(); ++i) {
    ring.tick(o.fd_params.period);
    ring.pump();
  }
  for (NodeId id = 0; id < 3; ++id) {
    ASSERT_EQ(ring.delivered(id).size(), 1u) << "node " << id;
    EXPECT_EQ(ring.delivered(id)[0].removed, std::vector<NodeId>{3});
  }
  ring.tick(o.fd_params.period);
  EXPECT_EQ(ring.pump(/*watch=*/3), 0u)
      << "heartbeats still go to the removed node";
}

}  // namespace
}  // namespace allconcur::node
