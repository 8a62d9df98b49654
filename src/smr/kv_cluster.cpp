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
  advance_reference(result);
  if (replicas_[who]) {
    apply_to(who, result);
  } else {
    // A joiner whose admitting round the reference has not applied yet
    // (preactivation replay): buffer until its replica mounts.
    pending_mounts_[who].push_back(result);
  }
  std::erase_if(pending_mounts_, [this](const auto& pending) {
    if (!replicas_[pending.first]) return false;
    for (const auto& round : pending.second) apply_to(pending.first, round);
    return true;
  });
  if (on_deliver) on_deliver(who, result, when);
}

void SimKvCluster::advance_reference(const core::RoundResult& result) {
  if (result.round > reference_.next_round()) {
    reorder_.try_emplace(result.round, result);
    return;
  }
  if (result.round < reference_.next_round()) return;
  apply_reference(result);
  for (auto it = reorder_.begin();
       it != reorder_.end() && it->first == reference_.next_round();
       it = reorder_.erase(it)) {
    apply_reference(it->second);
  }
}

void SimKvCluster::apply_reference(const core::RoundResult& result) {
  reference_.on_round(result);
  hash_after_round_.push_back(reference_.state_hash());
  // A replica checks every round above its last applied one, and
  // converged() reads its last applied one. Dead and departed replicas
  // apply nothing more, so they hold no hash back.
  Round keep_from = reference_.next_round();
  for (NodeId id = 0; id < replicas_.size(); ++id) {
    if (replicas_[id] && cluster_.alive(id) &&
        !cluster_.engine(id).departed()) {
      keep_from = std::min(
          keep_from, std::max<Round>(replicas_[id]->next_round(), 1) - 1);
    }
  }
  for (; first_hashed_ < keep_from; ++first_hashed_) {
    hash_after_round_.pop_front();
  }
  if (result.joined.empty()) return;
  // A joiner is admitted from the next round, which is where the
  // reference now stands: its replica starts from this state.
  const auto snapshot = reference_.snapshot();
  for (NodeId joiner : result.joined) {
    replicas_[joiner] = make_kv_replica();
    const bool ok = replicas_[joiner]->restore(snapshot);
    ALLCONCUR_ASSERT(ok, "join snapshot failed to restore");
  }
}

void SimKvCluster::apply_to(NodeId who, const core::RoundResult& result) {
  replicas_[who]->on_round(result);
  // Divergence guard: every replica that applies round R must land on the
  // reference hash. A silent ordering/determinism bug dies here, loudly.
  const auto expected = hash_after(result.round);
  if (expected && replicas_[who]->state_hash() != *expected) {
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

std::optional<std::uint64_t> SimKvCluster::hash_after(Round round) const {
  if (round < first_hashed_ ||
      round - first_hashed_ >= hash_after_round_.size()) {
    return std::nullopt;
  }
  return hash_after_round_[round - first_hashed_];
}

bool SimKvCluster::converged() const {
  for (NodeId id = 0; id < replicas_.size(); ++id) {
    if (!replicas_[id] || !cluster_.alive(id)) continue;
    const Round next = replicas_[id]->next_round();
    if (next == 0) continue;
    const auto expected = hash_after(next - 1);
    // A departed replica's hash may be gone; apply_to's guard checked it
    // when the replica applied that round — skip, don't fail.
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
