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

#include "node/runtime.hpp"
#include "sim/network_model.hpp"
#include "sim/simulator.hpp"

namespace allconcur::api {

/// A simulated deployment's options: the shared node options plus the
/// cluster's own. Its defaults: the perfect oracle, and the Fig. 7 timing
/// (Δhb = 10 ms, Δto = 100 ms) once heartbeat_fd is on. With the flight
/// recorder on, a trace_sample_period left at 0 is read from
/// ALLCONCUR_TRACE_PERIOD (CI chaos jobs set it); the chaos epoch is
/// pinned to t = 0, so scenario phases name absolute sim times.
struct ClusterOptions : node::NodeOptions {
  ClusterOptions()
      : NodeOptions(/*heartbeat_fd_default=*/false,
                    {.period = ms(10), .timeout = ms(100)}) {}

  std::size_t n = 8;
  sim::FabricParams fabric = sim::FabricParams::tcp_ib();
  /// Perfect oracle: live successors learn of a crash this long after it
  /// (the paper's "all the experiments assume a perfect FD").
  DurationNs detection_delay = ms(100);
  /// Extra engine slots reserved for joins (ids n, n+1, ...).
  std::size_t max_joins = 16;

  /// §4.2.2 deployment note: when a round removes failed servers, the
  /// lowest-id live node automatically sponsors one standby join per
  /// removal, restoring the membership size (bounded by max_joins).
  bool auto_heal = false;

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
  const obs::FlightRecorder* recorder(NodeId id) const {
    return exists(id) ? nodes_[id]->rt->recorder() : nullptr;
  }
  obs::FlightRecorder* recorder(NodeId id) {
    return exists(id) ? nodes_[id]->rt->recorder() : nullptr;
  }
  /// (id, recorder) pairs for every existing node — the argument
  /// obs::dump_on_trip expects.
  std::vector<std::pair<NodeId, const obs::FlightRecorder*>> recorders()
      const;
  /// Cluster-wide merge without sockets: the spans every node's recorder
  /// retains, in one TraceMerge, ready for depth/breakdown/Chrome-JSON
  /// queries.
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
    std::optional<node::NodeRuntime> rt;
    bool active = false;   // joiners stay dormant until their join commits
    bool crashed = false;
    bool send_limited = false;
    std::size_t sends_left = 0;
    std::vector<std::pair<NodeId, core::FrameRef>> preactivation;
    std::map<Round, TimeNs> bcast_times;
  };

  void create_node(NodeId id, core::View view, Round start_round);
  void reinject_oracle_suspicions(NodeId id);
  void activate_node(NodeId id);
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
