#include "api/sim_cluster.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>

#include "common/assert.hpp"
#include "obs/schema.hpp"

namespace allconcur::api {

using core::Engine;
using core::FrameRef;
using core::Message;
using core::MsgType;
using core::RoundResult;
using core::View;

SimCluster::SimCluster(ClusterOptions options)
    : options_(std::move(options)),
      model_(options_.fabric, options_.n + options_.max_joins),
      next_join_id_(static_cast<NodeId>(options_.n)),
      round_latency_(&metrics_.histogram(
          "sim_round_latency_ns",
          "A-broadcast to A-delivery latency per (node, round) on the "
          "virtual clock",
          obs::Unit::kNanoseconds)),
      relay_hop_(&metrics_.histogram(
          "relay_hop_latency_ns",
          "Per-hop relay latency: one frame's modeled one-way time from "
          "the sender's send to the receiving engine (LogP sender "
          "overhead + wire + receiver overhead, plus chaos delay). Live "
          "regardless of trace sampling; also the per-hop estimate sampled "
          "frames accumulate",
          obs::Unit::kNanoseconds)) {
  ALLCONCUR_ASSERT(options_.n >= 1, "cluster needs at least one node");
  ALLCONCUR_ASSERT(options_.window >= 1, "window must be at least 1");
  nodes_.resize(options_.n + options_.max_joins);

  // CI escape hatch: ALLCONCUR_TRACE_PERIOD turns sampling on for every
  // SimCluster that did not ask for it, so a red chaos run ships causal
  // traces next to its flight dumps without touching each suite. An
  // explicit trace_sample_period always wins; a cluster without flight
  // recorders has no ring for spans and stays untraced.
  if (options_.trace_sample_period == 0 && options_.flight_recorder) {
    if (const char* p = std::getenv("ALLCONCUR_TRACE_PERIOD")) {
      const long v = std::strtol(p, nullptr, 10);
      if (v > 0) options_.trace_sample_period = static_cast<std::uint32_t>(v);
    }
  }

  if (options_.chaos) {
    // The scenario timeline runs on virtual time; pin its epoch to t = 0
    // so test scenarios can name absolute sim times.
    options_.chaos->set_epoch(sim_.now());
  }

  std::vector<NodeId> members(options_.n);
  for (std::size_t i = 0; i < options_.n; ++i) {
    members[i] = static_cast<NodeId>(i);
  }
  for (std::size_t i = 0; i < options_.n; ++i) {
    create_node(static_cast<NodeId>(i),
                View(members, options_.builder, options_.fast_builder),
                /*start_round=*/0);
    nodes_[i]->active = true;
  }
  // Heartbeat ticks are scheduled once every engine exists, after every
  // watchdog tick: equal-time events run in scheduling order.
  for (std::size_t i = 0; i < options_.n; ++i) {
    schedule_fd_tick(static_cast<NodeId>(i));
  }
}

SimCluster::~SimCluster() = default;

void SimCluster::create_node(NodeId id, View view, Round start_round) {
  ALLCONCUR_ASSERT(id < nodes_.size(), "node id beyond reserved slots");
  ALLCONCUR_ASSERT(!nodes_[id], "node already exists");
  nodes_[id] = std::make_unique<Node>();
  // The recorder reads the simulator's own clock on each record().
  const node::NodeRuntime& rt = nodes_[id]->rt.emplace(
      id, std::move(view), start_round, options_, sim_.now_ptr(),
      [this, id](NodeId dst, const FrameRef& frame) {
        handle_send(id, dst, frame);
      },
      [this, id](const RoundResult& r) { handle_delivery(id, r); },
      relay_hop_);
  if (rt.has_watchdog()) schedule_watchdog_tick(id);
}

void SimCluster::schedule_watchdog_tick(NodeId id) {
  // Half the timeout bounds the detection lag at 1.5x the nominal value.
  sim_.schedule(options_.fallback_timeout / 2, [this, id] {
    Node& node = *nodes_[id];
    if (node.crashed) return;  // dead: the watchdog dies with the node
    if (node.active) node.rt->poll_watchdog(sim_.now());
    schedule_watchdog_tick(id);
  });
}

void SimCluster::force_fallback(NodeId id) {
  sim_.schedule(0, [this, id] {
    if (!alive(id)) return;
    Engine& e = nodes_[id]->rt->engine();
    e.on_round_timeout(e.current_round());
  });
}

void SimCluster::schedule_fd_tick(NodeId id) {
  if (!nodes_[id]->rt->has_fd()) return;
  sim_.schedule(options_.fd_params.period, [this, id] {
    Node& node = *nodes_[id];
    if (node.crashed) return;  // dead: heartbeats stop
    if (node.active) node.rt->tick_fd(sim_.now());
    schedule_fd_tick(id);
  });
}

core::Engine& SimCluster::engine(NodeId id) {
  ALLCONCUR_ASSERT(exists(id), "no such node");
  return nodes_[id]->rt->engine();
}

bool SimCluster::exists(NodeId id) const {
  return id < nodes_.size() && nodes_[id] != nullptr;
}

bool SimCluster::alive(NodeId id) const {
  return exists(id) && !nodes_[id]->crashed && nodes_[id]->active;
}

std::vector<NodeId> SimCluster::live_nodes() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (alive(id)) out.push_back(id);
  }
  return out;
}

void SimCluster::submit(NodeId id, core::Request request) {
  engine(id).submit(std::move(request));
}

void SimCluster::submit_opaque(NodeId id, std::size_t bytes) {
  engine(id).submit_opaque(bytes);
}

void SimCluster::broadcast_now(NodeId id) {
  if (!alive(id)) return;
  sim_.schedule(0, [this, id] {
    if (alive(id)) nodes_[id]->rt->engine().broadcast_now();
  });
}

void SimCluster::broadcast_all_now() {
  for (NodeId id : live_nodes()) broadcast_now(id);
}

std::optional<TimeNs> SimCluster::broadcast_time(NodeId id,
                                                 Round round) const {
  if (!exists(id)) return std::nullopt;
  const auto& times = nodes_[id]->bcast_times;
  const auto it = times.find(round);
  if (it == times.end()) return std::nullopt;
  return it->second;
}

void SimCluster::handle_send(NodeId src, NodeId dst, const FrameRef& frame) {
  Node& sender = *nodes_[src];
  if (sender.crashed) {
    if (!sender.send_limited || sender.sends_left == 0) return;
    --sender.sends_left;
  }
  // Chaos verdict: drawn once per frame on the send path, exactly where
  // TcpNode::queue_frame draws it.
  const chaos::Action act = options_.chaos
                                ? options_.chaos->on_frame(src, dst, sim_.now())
                                : chaos::Action{};
  if (act.drop) return;
  const Message& msg = frame->msg();
  // Record the instant a node A-broadcasts its own message (used by the
  // latency harnesses as the round start at that node).
  if ((msg.type == MsgType::kBroadcast || msg.type == MsgType::kUBcast) &&
      msg.origin == src) {
    sender.bcast_times.emplace(msg.round, sim_.now());
  }

  // The fabric charges for the frame as it would go on the wire; only the
  // refcounted handle travels through the event queue.
  const TimeNs done =
      model_.sender_done(src, dst, frame->wire_size(), sim_.now());
  // Chaos delay (gray slowdown, reorder jitter): the frame arrives late.
  const TimeNs arrive = model_.arrival(done) + act.delay;
  if (sender.rt->tracing() && node::NodeRuntime::traced_broadcast(msg)) {
    // Sampled frame leaving this node: the enqueue span now, the send
    // span once the modeled serialization finishes (o_s + bytes on the
    // wire), both against the virtual clock.
    sender.rt->trace(obs::SpanKind::kEnqueue, msg, dst);
    sim_.schedule_at(done, [this, src, dst, frame] {
      nodes_[src]->rt->trace(obs::SpanKind::kSend, frame->msg(), dst);
    });
  }
  schedule_arrival(src, dst, frame, sim_.now(), arrive, act.corrupt,
                   act.corrupt_at);
  if (act.duplicate) {
    // The duplicate travels unmodified a little behind the original
    // (a corrupted original still has a healthy twin, and receiver dedup
    // gets exercised either way).
    schedule_arrival(src, dst, frame, sim_.now(),
                     arrive + model_.params().latency / 2,
                     /*corrupt=*/false, 0);
  }
}

void SimCluster::schedule_arrival(NodeId src, NodeId dst,
                                  const FrameRef& frame, TimeNs sent_at,
                                  TimeNs arrive, bool corrupt,
                                  std::uint64_t corrupt_at) {
  sim_.schedule_at(arrive, [this, src, dst, frame, sent_at, corrupt,
                            corrupt_at] {
    const TimeNs handed =
        model_.receiver_done(dst, frame->wire_size(), sim_.now());
    sim_.schedule_at(handed, [this, src, dst, frame, sent_at, corrupt,
                              corrupt_at] {
      Node* node = nodes_[dst].get();
      if (!node || node->crashed) return;
      if (!node->active) {
        node->preactivation.emplace_back(src, frame);
        return;
      }
      if (corrupt) {
        // Injected corruption travels as real damaged wire bytes: re-parse
        // them like a transport would. The frame checksum must catch the
        // flip — a decode that succeeds anyway is silent corruption,
        // counted separately so the chaos gate can assert it never happens.
        const auto tainted = core::Frame::corrupt_copy(*frame, corrupt_at);
        const auto bytes = tainted->to_bytes();
        const auto parsed = core::decode(
            std::span<const std::uint8_t>(bytes.data(), bytes.size()));
        if (!parsed) {
          ++chaos_corrupt_dropped_;
          return;
        }
        // Silent corruption: a flipped byte survived the checksum. This
        // is the invariant the chaos gate asserts never happens — ship
        // the evidence (every node's timeline) with the first trip.
        if (chaos_corrupt_delivered_ == 0 && node->rt->recorder()) {
          node->rt->recorder()->record(
              obs::EventKind::kInvariantTrip, parsed->round,
              static_cast<std::uint64_t>(obs::TripCode::kCorruptDelivered),
              src);
          obs::dump_on_trip("corrupt_delivered", recorders());
        }
        ++chaos_corrupt_delivered_;
        node->rt->receive(src, *parsed, sim_.now());
        return;
      }
      if (frame->msg().type != MsgType::kHeartbeat) {
        // Modeled one-way hop latency, live regardless of sampling — the
        // registry histogram tracing reads its per-hop estimate from, so
        // it is recorded before the engine relays.
        relay_hop_->record(
            static_cast<std::uint64_t>(std::max<TimeNs>(0, sim_.now() -
                                                               sent_at)));
      }
      node->rt->receive(src, frame->msg(), sim_.now());
    });
  });
}

void SimCluster::handle_delivery(NodeId id, const RoundResult& result) {
  Node& node = *nodes_[id];
  // Round latency: this node's A-broadcast instant to now. The entry is
  // kept (broadcast_time() serves it to latency harnesses post-delivery).
  if (const auto it = node.bcast_times.find(result.round);
      it != node.bcast_times.end()) {
    round_latency_->record(static_cast<std::uint64_t>(
        std::max<TimeNs>(0, sim_.now() - it->second)));
  }
  // Membership changed (the runtime already re-peered a heartbeat FD):
  // activate any joiners.
  if (!result.joined.empty() || !result.removed.empty()) {
    const Engine& engine = node.rt->engine();
    // The rebuilt overlay may hand this node *new* predecessors that are
    // long dead but still members (their last message was delivered).
    // A real FD keeps timing out on them (§3.2: successors detect the
    // lack of heartbeats, per the *current* G); the oracle must do the
    // same or their tracking digraphs never resolve.
    if (!options_.heartbeat_fd && !engine.departed()) {
      reinject_oracle_suspicions(id);
    }
    for (NodeId joiner : result.joined) {
      if (!nodes_[joiner]) {
        // First commit observation anywhere in the cluster instantiates
        // the joiner with the new view, starting at the next round.
        create_node(joiner,
                    View(engine.view().members(), options_.builder,
                         options_.fast_builder),
                    result.round + 1);
        schedule_fd_tick(joiner);
      }
      if (!nodes_[joiner]->active) activate_node(joiner);
    }
  }
  if (options_.auto_heal && !result.removed.empty() &&
      next_join_id_ < nodes_.size()) {
    // Exactly one sponsor acts per round: the lowest live id. The joins
    // ride in its next broadcast and commit through ordinary agreement.
    const auto live = live_nodes();
    if (!live.empty() && id == live.front()) {
      for (std::size_t i = 0;
           i < result.removed.size() && next_join_id_ < nodes_.size(); ++i) {
        schedule_join(sim_.now(), id);
      }
    }
  }
  if (on_deliver) on_deliver(id, result, sim_.now());
}

void SimCluster::reinject_oracle_suspicions(NodeId id) {
  for (NodeId pred :
       nodes_[id]->rt->engine().view().monitor_predecessors_of(id)) {
    if (exists(pred) && nodes_[pred]->crashed) {
      sim_.schedule(options_.detection_delay, [this, id, pred] {
        if (alive(id)) nodes_[id]->rt->engine().on_suspect(pred);
      });
    }
  }
}

void SimCluster::activate_node(NodeId id) {
  Node& node = *nodes_[id];
  node.active = true;
  // Replay traffic that arrived while dormant, then participate in the
  // current round (the others cannot finish it without our message).
  const auto buffered = std::move(node.preactivation);
  node.preactivation.clear();
  for (const auto& [src, frame] : buffered) {
    node.rt->receive(src, frame->msg(), sim_.now());
  }
  // A joiner may inherit dead-but-member predecessors (see
  // reinject_oracle_suspicions).
  if (!options_.heartbeat_fd) reinject_oracle_suspicions(id);
  node.rt->engine().broadcast_now();
}

void SimCluster::crash_at(NodeId id, TimeNs when) {
  crash_after_sends(id, when, 0);
}

void SimCluster::crash_after_sends(NodeId id, TimeNs when,
                                   std::size_t more_sends) {
  sim_.schedule_at(when, [this, id, more_sends] {
    Node& node = *nodes_[id];
    node.crashed = true;
    node.send_limited = true;
    node.sends_left = more_sends;
    if (options_.heartbeat_fd) return;  // detection via missing heartbeats
    // Perfect oracle: live successors learn of the crash after the
    // configured detection delay.
    sim_.schedule(options_.detection_delay, [this, id] {
      for (NodeId other = 0; other < nodes_.size(); ++other) {
        if (other == id || !alive(other)) continue;
        Engine& e = nodes_[other]->rt->engine();
        if (!e.view().contains(id)) continue;
        const auto preds = e.view().monitor_predecessors_of(other);
        if (std::find(preds.begin(), preds.end(), id) != preds.end()) {
          e.on_suspect(id);
        }
      }
    });
  });
}

NodeId SimCluster::schedule_join(TimeNs when, NodeId sponsor) {
  ALLCONCUR_ASSERT(next_join_id_ < nodes_.size(),
                   "join capacity exhausted; raise ClusterOptions::max_joins");
  const NodeId id = next_join_id_++;
  sim_.schedule_at(when, [this, id, sponsor] {
    if (alive(sponsor)) {
      nodes_[sponsor]->rt->engine().submit(core::Request::join(id));
    }
  });
  return id;
}

bool SimCluster::run_until_round_done(Round r, TimeNs deadline) {
  const DurationNs chunk = ms(1);
  for (;;) {
    bool done = true;
    for (NodeId id : live_nodes()) {
      if (nodes_[id]->rt->engine().current_round() <= r) {
        done = false;
        break;
      }
    }
    if (done) return true;
    if (sim_.now() >= deadline) return false;
    if (sim_.idle()) return false;
    sim_.run_until(std::min(deadline, sim_.now() + chunk));
  }
}

std::vector<std::pair<NodeId, const obs::FlightRecorder*>>
SimCluster::recorders() const {
  std::vector<std::pair<NodeId, const obs::FlightRecorder*>> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (recorder(id) != nullptr) out.emplace_back(id, recorder(id));
  }
  return out;
}

obs::TraceMerge SimCluster::merged_trace() const {
  obs::TraceMerge merge;
  for (const auto& [id, rec] : recorders()) merge.add_spans(rec->spans(id));
  return merge;
}

obs::Registry& SimCluster::metrics() {
  obs::fill_engine_stats(metrics_, aggregate_stats());
  if (options_.chaos) {
    obs::fill_chaos_stats(metrics_, options_.chaos->stats());
  }
  metrics_
      .gauge("sim_now_ns", "Virtual clock at snapshot time",
             obs::Unit::kNanoseconds)
      .set(sim_.now());
  metrics_
      .gauge("sim_live_nodes", "Live, activated nodes", obs::Unit::kNone)
      .set(static_cast<std::int64_t>(live_nodes().size()));
  metrics_
      .counter("sim_corrupt_dropped",
               "Chaos-corrupted frames the receive path detected and "
               "dropped (checksum mismatch)",
               obs::Unit::kFrames)
      .set(chaos_corrupt_dropped_);
  metrics_
      .counter("sim_corrupt_delivered",
               "Corrupted frames that decoded anyway — silent corruption; "
               "the chaos gate asserts 0",
               obs::Unit::kFrames)
      .set(chaos_corrupt_delivered_);
  return metrics_;
}

std::string SimCluster::metrics_json() { return metrics().to_json(2); }

core::EngineStats SimCluster::aggregate_stats() const {
  core::EngineStats total;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!exists(id)) continue;
    const auto& s = nodes_[id]->rt->engine().stats();
    total.bcast_sent += s.bcast_sent;
    total.bcast_received += s.bcast_received;
    total.fail_sent += s.fail_sent;
    total.fail_received += s.fail_received;
    total.fwd_bwd_sent += s.fwd_bwd_sent;
    total.fwd_bwd_received += s.fwd_bwd_received;
    total.ubcast_sent += s.ubcast_sent;
    total.ubcast_received += s.ubcast_received;
    total.fallback_sent += s.fallback_sent;
    total.fallback_received += s.fallback_received;
    total.fallbacks_initiated += s.fallbacks_initiated;
    total.fast_rounds += s.fast_rounds;
    total.fallback_rounds += s.fallback_rounds;
    total.tracking_resets += s.tracking_resets;
    total.bytes_sent += s.bytes_sent;
    total.frames_encoded += s.frames_encoded;
    total.dropped_stale += s.dropped_stale;
    total.dropped_suspected += s.dropped_suspected;
    total.dropped_foreign += s.dropped_foreign;
    total.dropped_lost += s.dropped_lost;
    total.dropped_ahead += s.dropped_ahead;
    total.parked_duplicates += s.parked_duplicates;
    total.rounds_completed += s.rounds_completed;
  }
  return total;
}

}  // namespace allconcur::api
