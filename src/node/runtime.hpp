// NodeRuntime: one AllConcur node, whichever harness deploys it.
//
// It builds and wires, from one NodeOptions, the protocol engine, the
// optional heartbeat failure detector (§3.2), the optional dual-mode round
// watchdog and the flight recorder — the node's one observability ring,
// which also holds the causal tracer's spans. The harness —
// api::SimCluster on the virtual clock, net::TcpNode on an epoll loop —
// donates a clock, a send sink and a deliver callback, and keeps the
// fabric or socket send, the chaos verdict, crash/activation state and its
// relay-latency metric. The send sink is the engine's and the detector's
// send hook as is (one type-erased call per frame), and the recorder
// exists only when switched on.
#pragma once

#include <functional>
#include <optional>

#include "chaos/scenario.hpp"
#include "core/engine.hpp"
#include "core/failure_detector.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "plus/fallback_timer.hpp"

namespace allconcur::node {

/// The options both deployments share, each with one default, except
/// heartbeat_fd and fd_params: api::ClusterOptions and net::TcpNodeOptions
/// state theirs in their constructors.
struct NodeOptions {
  /// Reliable overlay G (G_R in dual mode); the paper's GS(n, d).
  core::GraphBuilder builder = core::make_default_graph_builder();
  core::FdMode fd_mode = core::FdMode::kPerfect;
  /// Round-pipelining window W: rounds [delivered+1, delivered+W] run
  /// concurrently (1 = classic stop-and-wait iteration).
  std::size_t window = 1;
  /// Dual-digraph fast path (AllConcur+): builder for the unreliable
  /// overlay G_U. Failure-free rounds run untracked over G_U and fall back
  /// to tracked rounds over G_R on suspicion or timeout; links and the FD
  /// follow G_U ∪ G_R. Empty = classic mode.
  core::GraphBuilder fast_builder;
  /// Dual mode round watchdog: an armed round stuck longer than this
  /// triggers the fallback transition at the stuck node. 0 disables the
  /// watchdog (fallbacks then come only from suspicions).
  DurationNs fallback_timeout = ms(50);
  /// Heartbeat failure detection with fd_params' Δhb/Δto; off, the
  /// harness raises suspicions itself (the sim's perfect oracle).
  bool heartbeat_fd;
  core::HeartbeatFd::Params fd_params;
  /// Fault injection: a seeded chaos::ScenarioEngine the harness consults
  /// once per outbound frame (protocol and heartbeats alike): drops,
  /// duplicates, corruption the frame checksum must catch, and delays;
  /// Scenario::partition removes edges (§3.3.1), Scenario::gray slows one
  /// server. Share one across a cluster's nodes. Null = none.
  chaos::ScenarioEngineRef chaos;
  /// Per-node round flight recorder. Off, no recorder exists and every
  /// engine tap reduces to one predictable branch (bench/round_pipeline
  /// and bench/wire_path gate the enabled-mode overhead at <= 5%).
  bool flight_recorder = true;
  /// Events and sampled spans retained per node (rounded up to a power of
  /// two).
  std::size_t recorder_capacity = 1024;
  /// Cross-node causal tracing (obs/trace.hpp): sample one origin round
  /// in `trace_sample_period` (0 = off: no spans). Sampled broadcasts
  /// carry the wire trace context and their spans go into the flight
  /// recorder, so tracing requires flight_recorder; tools/allconcur_trace
  /// merges the nodes' spans.
  std::uint32_t trace_sample_period = 0;

 protected:
  NodeOptions(bool heartbeat_fd_default,
              core::HeartbeatFd::Params fd_params_default)
      : heartbeat_fd(heartbeat_fd_default), fd_params(fd_params_default) {}
};

class NodeRuntime {
 public:
  using SendFn = std::function<void(NodeId dst, const core::FrameRef& frame)>;
  using DeliverFn = std::function<void(const core::RoundResult&)>;

  /// `clock` is read for recorder timestamps and for detector
  /// re-peering; it must outlive the runtime. `hop_histogram` (may be
  /// null) is the harness's per-hop latency histogram, whose mean sampled
  /// relays accumulate into the frame's one-way estimate.
  NodeRuntime(NodeId self, core::View view, Round start_round,
              const NodeOptions& options, const TimeNs* clock, SendFn send,
              DeliverFn deliver, const obs::Histogram* hop_histogram);

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  core::Engine& engine() { return *engine_; }
  const core::Engine& engine() const { return *engine_; }
  /// Null when the option is off.
  obs::FlightRecorder* recorder() {
    return recorder_ ? &*recorder_ : nullptr;
  }
  const obs::FlightRecorder* recorder() const {
    return recorder_ ? &*recorder_ : nullptr;
  }
  /// True iff causal-trace spans are recorded (trace sampling is on).
  bool tracing() const { return tracing_; }
  bool has_fd() const { return fd_.has_value(); }
  bool has_watchdog() const { return watchdog_.has_value(); }

  /// One verified frame from link peer `src`: any traffic proves
  /// liveness to the detector; heartbeats stop there, everything else is
  /// span-traced (if sampled) and handed to the engine.
  void receive(NodeId src, const core::Message& msg, TimeNs now);
  /// Heartbeat period driver (no-op without a detector).
  void tick_fd(TimeNs now);
  /// Dual mode: polls the round watchdog and times out a stuck round
  /// (no-op without a watchdog or after this node departed).
  void poll_watchdog(TimeNs now);

  /// True iff `msg` is a sampled broadcast — the frames every span
  /// (recv, enqueue, send) is recorded for.
  static bool traced_broadcast(const core::Message& msg) {
    return msg.trace_sampled() && (msg.type == core::MsgType::kBroadcast ||
                                   msg.type == core::MsgType::kUBcast);
  }
  /// Records span `kind` for `msg` toward/from link peer `peer` if it is
  /// a sampled broadcast and tracing is on.
  void trace(obs::SpanKind kind, const core::Message& msg, NodeId peer) {
    if (tracing_ && traced_broadcast(msg)) {
      recorder_->record_span(kind, msg.round, msg.origin, peer,
                             msg.trace_hop(), msg.detector);
    }
  }

 private:
  void on_deliver(const core::RoundResult& result);
  /// Points the detector at the current view's monitor sets (§3.2:
  /// successors detect missing heartbeats per the *current* G).
  void repeer_fd();

  NodeId self_;
  const TimeNs* clock_;
  DeliverFn deliver_;
  std::optional<obs::FlightRecorder> recorder_;
  bool tracing_ = false;
  std::optional<core::Engine> engine_;
  std::optional<core::HeartbeatFd> fd_;
  std::optional<plus::FallbackTimer> watchdog_;
};

}  // namespace allconcur::node
