#include "smr/kv_cluster.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "obs/recorder.hpp"

namespace allconcur::smr {
namespace {

std::unique_ptr<Replica> make_kv_replica() {
  return std::make_unique<Replica>(std::make_unique<KvStore>());
}

}  // namespace

SimKvCluster::SimKvCluster(SimKvOptions options)
    : options_(std::move(options)),
      cluster_(options_.cluster),
      reference_(std::make_unique<KvStore>()) {
  // Slots for the initial members plus every admissible joiner.
  replicas_.resize(options_.cluster.n + options_.cluster.max_joins);
  for (NodeId id = 0; id < options_.cluster.n; ++id) {
    replicas_[id] = make_kv_replica();
  }
  cluster_.on_deliver = [this](NodeId who, const core::RoundResult& r,
                               TimeNs t) { handle_delivery(who, r, t); };
}

bool SimKvCluster::has_replica(NodeId id) const {
  return id < replicas_.size() && replicas_[id] != nullptr;
}

Replica& SimKvCluster::replica(NodeId id) {
  ALLCONCUR_ASSERT(has_replica(id), "no replica mounted for this node");
  return *replicas_[id];
}

const Replica& SimKvCluster::replica(NodeId id) const {
  ALLCONCUR_ASSERT(has_replica(id), "no replica mounted for this node");
  return *replicas_[id];
}

const KvStore& SimKvCluster::kv(NodeId id) const {
  const auto* store = dynamic_cast<const KvStore*>(&replica(id).machine());
  ALLCONCUR_ASSERT(store != nullptr, "replica does not mount a KvStore");
  return *store;
}

KvSession SimKvCluster::make_session() { return KvSession(next_session_++); }

void SimKvCluster::handle_delivery(NodeId who, const core::RoundResult& result,
                                   TimeNs when) {
  round_log_.try_emplace(result.round, result);
  drain_reference();

  if (!replicas_[who]) {
    // A joiner. Its activation can complete a round synchronously inside
    // its sponsor's delivery (preactivation replay), i.e. before the
    // round that committed the join was even logged — so buffer until
    // the agreed history below its first round is complete, then mount
    // by snapshot + bounded log replay (never by replaying from 0).
    pending_mounts_[who].push_back(result);
  } else {
    apply_to(who, result);
  }
  flush_pending_mounts();

  if (on_deliver) on_deliver(who, result, when);
}

void SimKvCluster::drain_reference() {
  for (auto it = round_log_.find(reference_.next_round());
       it != round_log_.end();
       it = round_log_.find(reference_.next_round())) {
    reference_.on_round(it->second);
    hash_after_round_[it->first] = reference_.state_hash();
    if (options_.snapshot_every > 0 &&
        reference_.next_round() % options_.snapshot_every == 0) {
      snapshots_.emplace_back(reference_.next_round(), reference_.snapshot());
      while (snapshots_.size() >
             std::max<std::size_t>(1, options_.keep_snapshots)) {
        snapshots_.pop_front();
      }
      // The log only feeds catch-up from retained restore points; the
      // guard hashes age out with it (a replica lagging below the
      // oldest restore point skips the guard, like it skips catch-up),
      // keeping memory bounded on long runs.
      round_log_.erase(round_log_.begin(),
                       round_log_.lower_bound(snapshots_.front().first));
      hash_after_round_.erase(
          hash_after_round_.begin(),
          hash_after_round_.lower_bound(snapshots_.front().first));
    }
  }
}

void SimKvCluster::flush_pending_mounts() {
  for (auto it = pending_mounts_.begin(); it != pending_mounts_.end();) {
    const Round first = it->second.front().round;
    if (reference_.next_round() < first) {
      ++it;
      continue;
    }
    replicas_[it->first] = spawn_replica_at(first);
    ALLCONCUR_ASSERT(replicas_[it->first] != nullptr,
                     "joiner catch-up outran the retained log");
    for (const core::RoundResult& result : it->second) {
      apply_to(it->first, result);
    }
    it = pending_mounts_.erase(it);
  }
}

void SimKvCluster::apply_to(NodeId who, const core::RoundResult& result) {
  replicas_[who]->on_round(result);
  // Divergence guard: every replica that applies round R must land on the
  // reference hash. A silent ordering/determinism bug dies here, loudly.
  const auto expected = hash_after_round_.find(result.round);
  if (expected != hash_after_round_.end() &&
      replicas_[who]->state_hash() != expected->second) {
    // Ship the evidence before dying: the per-replica round timelines
    // identify where the diverging node's history forked.
    if (auto* rec = cluster_.recorder(who)) {
      rec->record(obs::EventKind::kInvariantTrip, result.round,
                  static_cast<std::uint64_t>(
                      obs::TripCode::kSmrHashDivergence),
                  who);
    }
    obs::dump_on_trip("smr_hash_divergence", cluster_.recorders());
    if (on_divergence) {
      on_divergence(who, result.round);
      return;
    }
    ALLCONCUR_ASSERT(false,
                     "replica state diverged from the agreed history");
  }
}

const core::RoundResult* SimKvCluster::logged_round(Round round) const {
  const auto it = round_log_.find(round);
  return it == round_log_.end() ? nullptr : &it->second;
}

std::unique_ptr<Replica> SimKvCluster::spawn_replica_at(Round upto) const {
  auto replica = make_kv_replica();
  // Newest retained restore point at or before `upto`.
  for (auto it = snapshots_.rbegin(); it != snapshots_.rend(); ++it) {
    if (it->first <= upto) {
      const bool ok = replica->restore(it->second);
      ALLCONCUR_ASSERT(ok, "retained snapshot failed to restore");
      break;
    }
  }
  for (Round r = replica->next_round(); r < upto; ++r) {
    const core::RoundResult* logged = logged_round(r);
    if (!logged) return nullptr;
    replica->on_round(*logged);
  }
  return replica;
}

std::optional<std::uint64_t> SimKvCluster::hash_after(Round round) const {
  const auto it = hash_after_round_.find(round);
  if (it == hash_after_round_.end()) return std::nullopt;
  return it->second;
}

bool SimKvCluster::converged() const {
  for (NodeId id = 0; id < replicas_.size(); ++id) {
    if (!replicas_[id] || !cluster_.alive(id)) continue;
    const Round next = replicas_[id]->next_round();
    if (next == 0) continue;
    const auto expected = hash_after(next - 1);
    // A hash that aged out with the log was already asserted when the
    // replica applied that round (apply_to's guard) — skip, don't fail.
    if (expected && replicas_[id]->state_hash() != *expected) return false;
  }
  return true;
}

bool SimKvCluster::drive(DurationNs budget,
                         const std::function<bool()>& done) {
  const TimeNs deadline = sim().now() + budget;
  const DurationNs chunk = ms(1);
  while (!done()) {
    if (sim().now() >= deadline) return false;
    if (sim().idle()) return done();
    cluster_.run_for(std::min<DurationNs>(chunk, deadline - sim().now()));
  }
  return true;
}

std::optional<KvResponse> SimKvCluster::await_response(
    NodeId node, const KvSession& session, DurationNs budget) {
  const auto applied = [&] {
    return replicas_[node] &&
           replicas_[node]->response(session.id(), session.last_seq())
               .has_value();
  };
  if (!drive(budget, applied)) return std::nullopt;
  const auto bytes =
      replicas_[node]->response(session.id(), session.last_seq());
  if (!bytes) return std::nullopt;
  return decode_response(*bytes);
}

void SimKvCluster::submit(NodeId node, KvSession& session,
                          const Command& cmd) {
  cluster_.submit(node, core::Request::of_data(session.issue(cmd)));
}

std::optional<KvResponse> SimKvCluster::execute(NodeId node,
                                                KvSession& session,
                                                const Command& cmd,
                                                DurationNs budget) {
  submit(node, session, cmd);
  cluster_.broadcast_now(node);
  return await_response(node, session, budget);
}

std::optional<KvResponse> SimKvCluster::retry(NodeId node, KvSession& session,
                                              DurationNs budget) {
  auto envelope = session.retry();
  ALLCONCUR_ASSERT(!envelope.empty(), "retry before any command was issued");
  cluster_.submit(node, core::Request::of_data(std::move(envelope)));
  cluster_.broadcast_now(node);
  return await_response(node, session, budget);
}

bool SimKvCluster::read_barrier(NodeId id, Round round, DurationNs budget) {
  return drive(budget, [&] {
    return has_replica(id) && replicas_[id]->next_round() > round;
  });
}

}  // namespace allconcur::smr
