// SimCluster: a complete AllConcur deployment on the discrete-event
// simulator — n protocol engines, the LogGP fabric model, failure
// injection (fail-stop, optionally mid-broadcast), perfect-oracle or
// heartbeat failure detection, and dynamic membership.
//
// This is the primary public entry point for users experimenting with
// AllConcur in-process, and the substrate all benchmark harnesses run on.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "chaos/scenario.hpp"
#include "core/engine.hpp"
#include "core/failure_detector.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "plus/fallback_timer.hpp"
#include "sim/network_model.hpp"
#include "sim/simulator.hpp"

namespace allconcur::api {

struct ClusterOptions {
  std::size_t n = 8;
  core::GraphBuilder builder = core::make_default_graph_builder();
  sim::FabricParams fabric = sim::FabricParams::tcp_ib();
  core::FdMode fd_mode = core::FdMode::kPerfect;

  /// Round-pipelining window W handed to every engine: rounds
  /// [delivered+1, delivered+W] run concurrently (1 = classic
  /// stop-and-wait iteration).
  std::size_t window = 1;

  /// Dual-digraph fast path (AllConcur+): builder for the unreliable
  /// overlay G_U. When set, engines run failure-free rounds untracked
  /// over G_U and fall back to tracked rounds over G_R (built by
  /// `builder`) on suspicion or timeout; the fabric routes both overlays'
  /// links and the FD monitors their union. Empty = classic mode.
  /// plus::make_unreliable_builder() is the stock pairing.
  core::GraphBuilder fast_builder;
  /// Dual mode round watchdog: an armed round stuck longer than this
  /// triggers the fallback transition at the stuck node. 0 disables the
  /// watchdog (fallbacks then come only from suspicions or an explicit
  /// force_fallback).
  DurationNs fallback_timeout = ms(50);

  /// false: a perfect oracle notifies live successors `detection_delay`
  /// after a crash (the paper's evaluation setup: "all the experiments
  /// assume a perfect FD"). true: real heartbeat traffic through the
  /// simulated fabric with the Δhb/Δto below (the Fig. 7 setup).
  bool heartbeat_fd = false;
  core::HeartbeatFd::Params fd_params;
  DurationNs detection_delay = ms(100);

  /// Fault injection: a seeded chaos::ScenarioEngine consulted once per
  /// frame on the send path. Dropped frames vanish, duplicates arrive
  /// twice, corrupted frames travel as damaged wire bytes (the frame
  /// checksum must catch them), and delays add to the fabric's arrival
  /// time. The engine's epoch is pinned to t = 0 of the virtual clock, so
  /// phases name absolute sim times: Scenario::partition models a network
  /// partition (§3.3.1: edges removed, not vertices), Scenario::gray a
  /// slow server. Null = no injection.
  chaos::ScenarioEngineRef chaos;

  /// Dual mode: caps how long per-frame progress can re-arm the round
  /// watchdog (see plus::FallbackTimer). 0 = the default 8x
  /// fallback_timeout; < 0 disables the cap.
  DurationNs fallback_max_round_age = 0;

  /// Extra engine slots reserved for joins (ids n, n+1, ...).
  std::size_t max_joins = 16;

  /// §4.2.2 deployment note: when a round removes failed servers, the
  /// lowest-id live node automatically sponsors one standby join per
  /// removal, restoring the membership size (bounded by max_joins).
  bool auto_heal = false;

  /// Per-node round flight recorder (timestamps on the virtual clock).
  /// Off, every engine tap reduces to one predictable branch —
  /// bench/round_pipeline gates the enabled-mode overhead at <= 5%.
  bool flight_recorder = true;
  /// Events retained per node (rounded up to a power of two).
  std::size_t recorder_capacity = 1024;

  /// Cross-node causal tracing (obs/trace.hpp): sample one origin round
  /// in `trace_sample_period` (0 = off). Sampled broadcasts carry the
  /// wire trace context; every node records virtual-clock spans that
  /// merged_trace() / tools/allconcur_trace turn into the round's
  /// propagation DAG and measured depth. When left at 0, the
  /// ALLCONCUR_TRACE_PERIOD environment variable (CI chaos jobs set it)
  /// supplies the period instead.
  std::uint32_t trace_sample_period = 0;
  /// Spans retained per node (rounded up to a power of two).
  std::size_t trace_capacity = 4096;

  std::uint64_t seed = 1;
};

class SimCluster {
 public:
  explicit SimCluster(ClusterOptions options);
  ~SimCluster();

  sim::Simulator& sim() { return sim_; }
  const ClusterOptions& options() const { return options_; }

  /// Engine access; id must identify a created (initial or joined) node.
  core::Engine& engine(NodeId id);
  bool exists(NodeId id) const;
  bool alive(NodeId id) const;
  std::size_t initial_size() const { return options_.n; }

  /// Ids of live, activated nodes.
  std::vector<NodeId> live_nodes() const;

  // ---- Load ----
  void submit(NodeId id, core::Request request);
  void submit_opaque(NodeId id, std::size_t bytes);
  /// Schedules a broadcast at the current simulation time.
  void broadcast_now(NodeId id);
  void broadcast_all_now();

  // ---- Observation ----
  /// Called on every round delivery: (observer, result, sim time).
  std::function<void(NodeId, const core::RoundResult&, TimeNs)> on_deliver;

  /// Time at which `id` A-broadcast its round-`round` message
  /// (nullopt if it has not).
  std::optional<TimeNs> broadcast_time(NodeId id, Round round) const;

  // ---- Failures & membership ----
  /// Fail-stop at `when`: stops sending and receiving.
  void crash_at(NodeId id, TimeNs when);
  /// Fail-stop at `when`, but the next `more_sends` outgoing messages
  /// still leave (models dying mid-broadcast, §2.3).
  void crash_after_sends(NodeId id, TimeNs when, std::size_t more_sends);
  /// At `when`, `sponsor` submits a join request for a fresh node id
  /// (returned immediately); the node activates once the join commits.
  NodeId schedule_join(TimeNs when, NodeId sponsor);

  /// Dual mode: forces a spurious fallback at `id` for its oldest open
  /// round at the current simulation time (what the round watchdog would
  /// do on a timeout). Safe by design with no real failure — the property
  /// suite and the dual-digraph bench use it to measure fallback cost.
  void force_fallback(NodeId id);

  // ---- Running ----
  void run_for(DurationNs d) { sim_.run_until(sim_.now() + d); }
  /// Runs until every live node completed round `r` (current_round > r) or
  /// the deadline passes; returns true on success.
  bool run_until_round_done(Round r, TimeNs deadline);

  /// Aggregate engine statistics over live nodes.
  core::EngineStats aggregate_stats() const;

  /// Chaos-corrupted frames the receive path detected (checksum mismatch)
  /// and dropped. With ClusterOptions::chaos set, every injected
  /// corruption must land here...
  std::uint64_t corrupt_dropped() const { return chaos_corrupt_dropped_; }
  /// ...and never here: corrupted frames that still decoded — silent
  /// corruption. The chaos suites assert this stays zero. The first such
  /// delivery also trips an automatic flight-recorder dump (kInvariantTrip
  /// + obs::dump_on_trip over every node).
  std::uint64_t corrupt_delivered() const { return chaos_corrupt_delivered_; }

  /// Per-node flight recorder (null when ClusterOptions::flight_recorder
  /// is off or the node does not exist).
  const obs::FlightRecorder* recorder(NodeId id) const;
  obs::FlightRecorder* recorder(NodeId id);
  /// (label, recorder) pairs for every existing node — the argument
  /// obs::dump_on_trip expects.
  std::vector<std::pair<std::string, const obs::FlightRecorder*>>
  recorders() const;

  /// Per-node causal-trace span buffer (null when tracing is off or the
  /// node does not exist).
  const obs::TraceBuffer* tracer(NodeId id) const;
  obs::TraceBuffer* tracer(NodeId id);
  /// (label, tracer) pairs for every traced node — the argument
  /// obs::trace_dump_on_trip expects (invariant trips dump these next to
  /// the flight dumps).
  std::vector<std::pair<std::string, const obs::TraceBuffer*>>
  tracers() const;
  /// Cluster-wide merge without sockets: every node's retained spans in
  /// one TraceMerge, ready for depth/breakdown/Chrome-JSON queries.
  obs::TraceMerge merged_trace() const;

  /// Unified metrics snapshot: aggregate engine counters, chaos injection
  /// counters, and the cluster-level round-latency histogram, refreshed on
  /// each call (same schema as TcpNode::metrics_json).
  obs::Registry& metrics();
  std::string metrics_json();

  /// A-broadcast -> A-delivery latency per (node, round), on the virtual
  /// clock. Only rounds this node broadcast in are recorded.
  const obs::Histogram& round_latency() const { return *round_latency_; }

 private:
  struct Node {
    std::unique_ptr<core::Engine> engine;
    std::unique_ptr<core::HeartbeatFd> fd;
    bool active = false;   // joiners stay dormant until their join commits
    bool crashed = false;
    bool send_limited = false;
    std::size_t sends_left = 0;
    std::vector<std::pair<NodeId, core::FrameRef>> preactivation;
    std::map<Round, TimeNs> bcast_times;
    /// Dual-mode round watchdog (shared policy, see plus/fallback_timer).
    std::unique_ptr<plus::FallbackTimer> watchdog;
    /// Round flight recorder (virtual-clock timestamps); null when off.
    std::unique_ptr<obs::FlightRecorder> recorder;
    /// Causal-trace span buffer (virtual-clock timestamps); null when
    /// tracing is off.
    std::unique_ptr<obs::TraceBuffer> tracer;
  };

  void create_node(NodeId id, core::View view, Round start_round);
  void reinject_oracle_suspicions(NodeId id);
  void activate_node(NodeId id);
  void wire_fd(NodeId id);
  /// In-flight messages are the engine's shared frames: the fabric model
  /// charges frame->wire_size() and the destination reads the decoded form
  /// through frame->msg() — nothing is copied anywhere along the path.
  void handle_send(NodeId src, NodeId dst, const core::FrameRef& frame);
  /// Schedules one physical delivery of `frame` at `arrive`; a corrupt
  /// delivery re-parses the damaged wire bytes like a transport would.
  /// `sent_at` (the sender's hook time) feeds the per-hop relay latency
  /// histogram at hand-off.
  void schedule_arrival(NodeId src, NodeId dst, const core::FrameRef& frame,
                        TimeNs sent_at, TimeNs arrive, bool corrupt,
                        std::uint64_t corrupt_at);
  void handle_delivery(NodeId id, const core::RoundResult& result);
  void schedule_fd_tick(NodeId id);
  void schedule_watchdog_tick(NodeId id);

  ClusterOptions options_;
  sim::Simulator sim_;
  sim::NetworkModel model_;
  std::vector<std::unique_ptr<Node>> nodes_;  // indexed by NodeId
  NodeId next_join_id_;
  std::uint64_t chaos_corrupt_dropped_ = 0;
  std::uint64_t chaos_corrupt_delivered_ = 0;
  obs::Registry metrics_;
  obs::Histogram* round_latency_;  // owned by metrics_; never null
  /// Modeled one-way hop latency (sender_done -> handed to the engine)
  /// per relayed frame — live even with trace sampling off, and the
  /// per-hop estimate the tracer stamps into sampled frames.
  obs::Histogram* relay_hop_;  // owned by metrics_; never null
};

}  // namespace allconcur::api
