// SimKvCluster: the replicated KV store mounted on a simulated AllConcur
// deployment — one Replica+KvStore per node, driven by the cluster's
// delivery stream.
//
// Beyond per-node replicas it keeps the machinery a real deployment
// needs:
//   * a reference replica that applies each agreed round once; AllConcur
//     admits a joiner at a round boundary, so when the reference applies
//     the round admitting one it takes a snapshot, and the joiner's
//     replica mounts from it at its first round (no replay from round 0);
//   * a per-round divergence guard: every replica is asserted against the
//     reference's hash after each round (kept until every live replica
//     checked it) — a silent ordering bug aborts loudly;
//   * client session plumbing: execute() submits a command at a node,
//     runs the simulation until the command's response is applied there,
//     and returns it; retry() resubmits the last command (possibly at a
//     different node after a crash) with exactly-once semantics.
//
// Reads: kv(id).get_local() is a local read (read-your-writes relative to
// what node `id` has applied). read_barrier(id, r) runs the simulation
// until node `id` applied round r — after a barrier on a round the client
// observed, a local read is linearizable (the replica's state includes
// every command that was agreed before the observation).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "api/sim_cluster.hpp"
#include "smr/kv_store.hpp"
#include "smr/replica.hpp"

namespace allconcur::smr {

struct SimKvOptions {
  api::ClusterOptions cluster;
};

class SimKvCluster {
 public:
  explicit SimKvCluster(SimKvOptions options);
  explicit SimKvCluster(api::ClusterOptions cluster_options)
      : SimKvCluster(SimKvOptions{.cluster = std::move(cluster_options)}) {}
  // The cluster's delivery hook holds `this`.
  SimKvCluster(const SimKvCluster&) = delete;
  SimKvCluster& operator=(const SimKvCluster&) = delete;
  SimKvCluster(SimKvCluster&&) = delete;
  SimKvCluster& operator=(SimKvCluster&&) = delete;

  api::SimCluster& cluster() { return cluster_; }
  sim::Simulator& sim() { return cluster_.sim(); }

  bool has_replica(NodeId id) const;
  Replica& replica(NodeId id);
  const Replica& replica(NodeId id) const;
  const KvStore& kv(NodeId id) const;

  /// Chained observation (the cluster's own on_deliver is taken by the
  /// SMR layer; this fires after the replica applied the round).
  std::function<void(NodeId, const core::RoundResult&, TimeNs)> on_deliver;

  /// Divergence-guard trip handler. When a replica's post-round state
  /// hash mismatches the reference, the guard first records an
  /// obs::EventKind::kInvariantTrip on the diverging node and auto-dumps
  /// every node's flight recorder (obs::dump_on_trip, so a CI failure
  /// ships the per-replica timelines), then: aborts via ALLCONCUR_ASSERT
  /// when this is unset, or calls it (who, round) and returns when set —
  /// tests use the override to exercise the dump path on a forced
  /// divergence without dying.
  std::function<void(NodeId, Round)> on_divergence;

  /// A fresh client session (deterministic unique id).
  KvSession make_session();

  // ---- Client operations ----
  /// Submits `cmd` under `session` at `node` and runs the simulation
  /// until node's replica applied it (or `budget` sim time passed).
  std::optional<KvResponse> execute(NodeId node, KvSession& session,
                                    const Command& cmd,
                                    DurationNs budget = sec(5));
  /// Resubmits the session's last command at `node` (retry after a crash
  /// or timeout; applied exactly once even if the original also landed).
  std::optional<KvResponse> retry(NodeId node, KvSession& session,
                                  DurationNs budget = sec(5));
  /// Submit without driving the simulation (to pack several commands
  /// into one round); pair with cluster().broadcast_now() + run.
  void submit(NodeId node, KvSession& session, const Command& cmd);

  /// Runs the simulation until node `id` applied round `round`.
  bool read_barrier(NodeId id, Round round, DurationNs budget = sec(5));

  /// True iff all live replicas that reached the same round agree on the
  /// state hash (the per-round guard asserts this continuously; this is
  /// the end-of-test summary check).
  bool converged() const;
  /// Reference hash after applying `round`: nullopt if not yet applied,
  /// or if every live replica has moved past it.
  std::optional<std::uint64_t> hash_after(Round round) const;

 private:
  void handle_delivery(NodeId who, const core::RoundResult& result,
                       TimeNs when);
  /// Applies `result` to the reference once every round below it was,
  /// holding it in the reorder buffer until then.
  void advance_reference(const core::RoundResult& result);
  /// One reference step: hashes the round, drops the hashes no replica
  /// needs any more and mounts the joiners the round admits.
  void apply_reference(const core::RoundResult& result);
  void apply_to(NodeId who, const core::RoundResult& result);
  bool drive(DurationNs budget, const std::function<bool()>& done);
  std::optional<KvResponse> await_response(NodeId node,
                                           const KvSession& session,
                                           DurationNs budget);

  SimKvOptions options_;
  api::SimCluster cluster_;
  std::vector<std::unique_ptr<Replica>> replicas_;  // indexed by NodeId

  // RoundResults are identical across nodes; the reference applies each
  // on its first delivery anywhere. A freshly activated joiner can
  // deliver its first round inside its sponsor's delivery of the round
  // admitting it, before that round reached this layer: such rounds wait
  // in the reorder buffer.
  Replica reference_;
  std::map<Round, core::RoundResult> reorder_;
  // Hash after each round from first_hashed_ on, up to the reference's.
  std::deque<std::uint64_t> hash_after_round_;
  Round first_hashed_ = 0;
  // Deliveries of joiners whose admitting round the reference has not
  // applied yet.
  std::map<NodeId, std::vector<core::RoundResult>> pending_mounts_;

  std::uint64_t next_session_ = 1;
};

}  // namespace allconcur::smr
