#include "core/engine.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace allconcur::core {

// Adapter exposing one round's failure knowledge (F_i) to the tracking
// digraphs in rank space. F_i is per round: a notification tagged with
// round r applies to r and later rounds, never to earlier open ones.
class Engine::Knowledge final : public FailureKnowledge {
 public:
  Knowledge(const Engine& e, const RoundState& st) : e_(e), st_(st) {}
  bool is_failed(NodeId rank) const override {
    return st_.failed_rank[rank];
  }
  bool has_pair(NodeId rank_j, NodeId rank_k) const override {
    return st_.fails.count({e_.view_->member(rank_j),
                            e_.view_->member(rank_k)}) > 0;
  }

 private:
  const Engine& e_;
  const RoundState& st_;
};

Engine::Engine(NodeId self, View view, GraphBuilder builder, Hooks hooks,
               Options options, Round start_round)
    : self_(self),
      builder_(std::move(builder)),
      hooks_(std::move(hooks)),
      options_(options),
      rec_(options.recorder),
      base_round_(start_round),
      view_(std::make_shared<const View>(std::move(view))) {
  ALLCONCUR_ASSERT(hooks_.send && hooks_.deliver, "engine hooks required");
  ALLCONCUR_ASSERT(view_->contains(self_), "self must be a view member");
  ALLCONCUR_ASSERT(options_.window >= 1, "window must be at least 1");
  if (fast_path()) {
    ALLCONCUR_ASSERT(view_->has_fast_overlay(),
                     "dual-digraph mode needs a view built with the same "
                     "fast_builder");
    ALLCONCUR_ASSERT(options_.fd_mode == FdMode::kPerfect,
                     "dual-digraph mode requires a perfect failure detector");
  }
  suspected_rank_.assign(view_->size(), false);
  refill_window();
}

Round Engine::max_open_round() const {
  const Round window_max = base_round_ + options_.window - 1;
  // A pending membership change caps the window: no round beyond the
  // epoch close may open under the old view.
  if (epoch_close_ && *epoch_close_ < window_max) return *epoch_close_;
  return window_max;
}

Engine::RoundState* Engine::find_round(Round r) {
  if (r < base_round_ || r >= base_round_ + window_.size()) return nullptr;
  return window_[static_cast<std::size_t>(r - base_round_)].get();
}

void Engine::refill_window() {
  while (base_round_ + window_.size() <= max_open_round()) {
    open_round();
  }
}

void Engine::open_round() {
  const Round r =
      window_.empty() ? base_round_ : window_.back()->round + 1;
  const std::size_t n = view_->size();
  // Failure notifications carry forward (line 12): within an epoch the new
  // round inherits its predecessor's F_i; the first round after a view
  // switch (empty window) seeds from the carried, membership-filtered set.
  const RoundState* prev = window_.empty() ? nullptr : window_.back().get();

  // Failure-free fast path: the common round keeps the same view, so the
  // rank and neighbor lists survive; only a membership change recomputes
  // them. Everything below reuses capacity — assign() refills the flag and
  // slot vectors in place, and the tracking digraphs are reset one by one
  // so their vertex/edge storage persists. A steady-state round transition
  // performs no heap allocation (bench/wire_path measures this).
  if (neighbors_view_ != view_.get()) {
    const auto rank = view_->rank_of(self_);
    ALLCONCUR_ASSERT(rank.has_value(), "self not in view");
    self_rank_ = *rank;
    succs_ = view_->successors_of(self_);
    preds_ = view_->predecessors_of(self_);
    if (fast_path()) {
      u_succs_ = view_->fast_successors_of(self_);
    }
    neighbors_view_ = view_.get();
  }

  std::unique_ptr<RoundState> st;
  if (!pool_.empty()) {
    st = std::move(pool_.back());
    pool_.pop_back();
  } else {
    st = std::make_unique<RoundState>();
  }
  st->round = r;
  st->msgs.assign(n, nullptr);
  st->msg_bytes.assign(n, 0);
  st->have.assign(n, false);
  st->have_count = 0;
  st->own_broadcast = false;
  st->fell_back = false;
  st->fallback_relayed = false;
  st->fallback_attempt = 0;
  st->assisted = false;
  // A round with inherited failure notifications can never complete fast
  // (the failed member's message will not arrive over G_U), so it opens
  // on the reliable path directly; failure-free rounds open FAST and skip
  // the tracking machinery entirely (st->tracking keeps whatever stale
  // pool state it has — guarded by st->fast at every use).
  const std::set<std::pair<NodeId, NodeId>>& inherited =
      prev ? prev->fails : carry_fails_;
  st->fast = fast_path() && inherited.empty();
  st->fails.clear();
  st->failed_rank.assign(n, false);
  st->lost.assign(n, false);
  st->decided = false;
  st->fwd_seen.assign(n, false);
  st->bwd_seen.assign(n, false);
  st->fwd_count = st->bwd_count = 0;
  st->complete = false;
  if (st->fast) {
    st->active_tracking = 0;
  } else {
    init_tracking(*st);
  }
  window_.push_back(std::move(st));
  rec(obs::EventKind::kRoundOpen, r, window_.back()->fast ? 1 : 0,
      window_.size());

  // Carry the inherited failure notifications into the fresh round
  // (Algorithm 1 lines 12-13): re-disseminate each pair under the new
  // round's tag and replay it against the new tracking digraphs, one at a
  // time exactly like the classic per-round transition, so servers that
  // failed in an earlier round resolve here too (and joiners hear about
  // them).
  if (!inherited.empty()) {
    RoundState& ref = *window_.back();
    for (const auto& [j, k] : inherited) {
      const auto rank_j = view_->rank_of(j);
      ALLCONCUR_ASSERT(rank_j.has_value(), "carried failure left the view");
      ref.fails.insert({j, k});
      ref.failed_rank[*rank_j] = true;
      stats_.fail_sent += send_to_successors(Message::fail(r, j, k));
      const auto rank_k = view_->rank_of(k);
      apply_failure_to_round(
          ref, *rank_j, rank_k ? static_cast<NodeId>(*rank_k) : kInvalidNode);
    }
  }
}

void Engine::init_tracking(RoundState& st) {
  const std::size_t n = view_->size();
  if (st.tracking.size() > n) {
    // View shrank: park the spare digraphs (with their capacity) on the
    // free-list instead of destroying them.
    std::move(st.tracking.begin() + static_cast<std::ptrdiff_t>(n),
              st.tracking.end(), std::back_inserter(tracking_spares_));
    st.tracking.resize(n);
  }
  while (st.tracking.size() < n) {
    if (!tracking_spares_.empty()) {
      st.tracking.push_back(std::move(tracking_spares_.back()));
      tracking_spares_.pop_back();
    } else {
      st.tracking.emplace_back();
    }
  }
  st.active_tracking = 0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    // Messages already held (over either overlay) need no tracking; on a
    // fallback transition mid-round that is everything the fast phase
    // collected. At round open have[] is all-false and this reduces to
    // the classic "track everyone but self".
    if (rank == self_rank_ || st.have[rank]) {
      st.tracking[rank].reset_empty();
    } else {
      st.tracking[rank].reset(static_cast<NodeId>(rank));
      ++st.active_tracking;
      ++stats_.tracking_resets;
    }
  }
}

void Engine::recycle(std::unique_ptr<RoundState> st) {
  // Drop the payload references now — a parked state must not pin message
  // buffers until its next reuse. Capacity is retained.
  st->msgs.assign(st->msgs.size(), nullptr);
  pool_.push_back(std::move(st));
}

void Engine::submit(Request request) {
  pending_request_bytes_ += kRequestHeaderBytes + request.data.size();
  pending_.push_back(std::move(request));
}

void Engine::submit_opaque(std::size_t bytes) {
  pending_opaque_bytes_ += bytes;
}

std::uint64_t Engine::pending_bytes() const {
  return pending_request_bytes_ + pending_opaque_bytes_;
}

bool Engine::has_broadcast() const {
  return !window_.empty() && window_.front()->own_broadcast;
}

std::optional<Round> Engine::next_broadcast_round() const {
  for (const auto& st : window_) {
    if (!st->own_broadcast) return st->round;
  }
  return std::nullopt;
}

std::size_t Engine::active_tracking() const {
  ALLCONCUR_ASSERT(!window_.empty(), "no open round");
  return window_.front()->active_tracking;
}

const TrackingDigraph& Engine::tracking_of(std::size_t rank) const {
  ALLCONCUR_ASSERT(!window_.empty(), "no open round");
  return window_.front()->tracking[rank];
}

void Engine::broadcast_now() {
  if (departed_) return;
  RoundState* target = nullptr;
  for (auto& st : window_) {
    if (!st->own_broadcast) {
      target = st.get();
      break;
    }
  }
  // The in-progress round broadcasts even empty (round progress); later
  // window rounds are opened speculatively only for actual payload, so
  // idle nudging cannot spin the pipeline on empty rounds. When every
  // open round already carries our message, submissions keep pending
  // (see pending_bytes() — the backpressure signal).
  if (target != nullptr &&
      (target->round == base_round_ || !pending_.empty() ||
       pending_opaque_bytes_ > 0)) {
    do_broadcast(*target);
  }
  deliver_ready();
}

void Engine::do_broadcast(RoundState& st) {
  ALLCONCUR_ASSERT(!st.own_broadcast, "already broadcast this round");
  Message msg;
  if (pending_opaque_bytes_ > 0 && pending_.empty()) {
    msg = Message::bcast_sized(st.round, self_, pending_opaque_bytes_);
    pending_opaque_bytes_ = 0;
  } else {
    // A structured batch's declared size is its payload's: size-only load
    // pending next to it waits for the next round's broadcast.
    msg = Message::bcast(st.round, self_, pack_batch(pending_));
    pending_.clear();
    pending_request_bytes_ = 0;
  }
  if (trace_sampled_round(st.round)) {
    // Origin stamp: sampled flag + hop 0 in the header's trace byte, the
    // cumulative one-way estimate (detector word) starts at zero.
    msg.trace = Message::trace_origin_context();
    msg.detector = 0;
    rec_->record_span(obs::SpanKind::kOrigin, st.round, self_, self_, 0, 0);
  }
  st.own_broadcast = true;
  st.msgs[self_rank_] = msg.payload;
  st.msg_bytes[self_rank_] = msg.payload_bytes;
  st.have[self_rank_] = true;
  ++st.have_count;
  if (st.fast) {
    // Fast round: the broadcast travels the unreliable overlay only.
    msg.type = MsgType::kUBcast;
    stats_.ubcast_sent += fan_out(u_succs_, msg, kInvalidNode);
  } else {
    stats_.bcast_sent += send_to_successors(msg);
  }
  rec(obs::EventKind::kBcastSent, st.round, msg.payload_bytes,
      st.fast ? 1 : 0);
  check_termination(st);
}

bool Engine::front_round_active() const {
  return front_round_progress() > 0;
}

std::size_t Engine::front_round_progress() const {
  if (window_.empty()) return 0;
  // have_count counts the own broadcast too (do_broadcast sets the bit),
  // so it is the round's single monotone activity counter.
  return window_.front()->have_count;
}

void Engine::ensure_broadcast_up_to(Round r) {
  for (auto& st : window_) {
    if (st->round > r) break;
    if (!st->own_broadcast) do_broadcast(*st);
  }
}

std::size_t Engine::fan_out(const std::vector<NodeId>& dsts,
                            const Message& msg, NodeId skip) {
  std::size_t sent = 0;
  FrameRef frame;
  for (NodeId dst : dsts) {
    if (dst == skip) continue;
    if (!frame) {
      // Built once per message, on the first live destination; every
      // further destination shares the same bytes by reference.
      frame = Frame::make(msg);
      ++stats_.frames_encoded;
    }
    stats_.bytes_sent += frame->wire_size();
    hooks_.send(dst, frame);
    ++sent;
  }
  return sent;
}

std::size_t Engine::send_to_successors(const Message& msg, NodeId skip) {
  return fan_out(succs_, msg, skip);
}

std::size_t Engine::send_to_predecessors(const Message& msg, NodeId skip) {
  return fan_out(preds_, msg, skip);
}

void Engine::on_message(NodeId from, const Message& msg) {
  if (departed_) return;
  if (msg.type == MsgType::kHeartbeat) return;  // FD traffic, not ours

  if (msg.type == MsgType::kFail) {
    // A ⟨FAIL⟩ tagged with round r is valid for r and every later round
    // (suspicion persists forward): a stale tag clamps to the current
    // window instead of being dropped — no information is lost — while a
    // tag beyond the window parks like any other future traffic.
    if (msg.round > base_round_ + window_.size() - 1) {
      park_future(from, msg);
      return;
    }
    handle_fail(msg);
    deliver_ready();
    return;
  }

  if (msg.round < base_round_) {
    if (msg.type == MsgType::kFallback) {
      // A laggard is re-executing a round we already delivered: the
      // trigger must keep flooding and the laggard may need our retained
      // message set to terminate.
      handle_fallback_stale(from, msg);
      deliver_ready();
      return;
    }
    ++stats_.dropped_stale;
    rec(obs::EventKind::kDroppedMsg, msg.round,
        static_cast<std::uint64_t>(obs::DropReason::kStale), from);
    return;
  }
  RoundState* st = find_round(msg.round);
  if (st == nullptr) {
    park_future(from, msg);
    return;
  }

  switch (msg.type) {
    case MsgType::kBroadcast:
    case MsgType::kUBcast:
      handle_bcast(from, msg, *st);
      break;
    case MsgType::kFallback:
      handle_fallback(from, msg, *st);
      break;
    case MsgType::kFwd:
    case MsgType::kBwd:
      handle_fwdbwd(from, msg, *st);
      break;
    case MsgType::kFail:
    case MsgType::kHeartbeat:
      break;
  }
  deliver_ready();
}

void Engine::park_future(NodeId from, const Message& msg) {
  // Beyond the window. A live peer can legitimately be up to W rounds
  // ahead of our delivered frontier and broadcast W more, so anything up
  // to base+2W-1 is parked for replay once the window advances (replays
  // that park again are not recounted). Farther-future traffic means we
  // were evicted — drop it, the harness decides on rejoin.
  const bool parkable = msg.round < base_round_ + 2 * options_.window;
  if (parkable) {
    // A duplicated frame (chaos duplication, link retries) must neither
    // re-count dropped_ahead nor park twice — a double park would replay
    // the message twice after the window advances and grow future_
    // unboundedly under sustained duplication.
    for (const auto& [pfrom, pmsg] : future_) {
      if (pfrom == from && pmsg.round == msg.round &&
          pmsg.type == msg.type && pmsg.origin == msg.origin &&
          pmsg.detector == msg.detector) {
        ++stats_.parked_duplicates;
        return;
      }
    }
  }
  if (!replaying_ && msg.round >= base_round_ + options_.window) {
    ++stats_.dropped_ahead;
    rec(obs::EventKind::kDroppedAhead, msg.round, from,
        parkable ? 1 : 0);
  }
  if (parkable) {
    rec(obs::EventKind::kParked, msg.round, from,
        static_cast<std::uint64_t>(msg.type));
    future_.emplace_back(from, msg);
  }
}

void Engine::replay_parked() {
  if (future_.empty()) return;
  std::deque<std::pair<NodeId, Message>> parked;
  parked.swap(future_);
  const bool was_replaying = replaying_;
  replaying_ = true;
  for (const auto& [from, msg] : parked) {
    on_message(from, msg);
  }
  replaying_ = was_replaying;
}

void Engine::handle_bcast(NodeId from, const Message& msg, RoundState& st) {
  const bool via_fast = msg.type == MsgType::kUBcast;
  ++(via_fast ? stats_.ubcast_received : stats_.bcast_received);
  const auto from_rank = view_->rank_of(from);
  if (from_rank && suspected_rank_[*from_rank]) {
    // §3.3.2: once a predecessor is suspected, everything but failure
    // notifications from it must be ignored, or the FAIL-implies-relayed
    // inference of the tracking digraphs breaks.
    ++stats_.dropped_suspected;
    rec(obs::EventKind::kDroppedMsg, msg.round,
        static_cast<std::uint64_t>(obs::DropReason::kSuspectedOrigin), from);
    return;
  }
  const auto origin_rank = view_->rank_of(msg.origin);
  if (!origin_rank) {
    ++stats_.dropped_foreign;
    rec(obs::EventKind::kDroppedMsg, msg.round,
        static_cast<std::uint64_t>(obs::DropReason::kForeignEpoch), from);
    return;
  }

  // A reliable ⟨BCAST⟩ reaching a round we still run fast means a peer
  // fell back; its ⟨FALLBACK⟩ precedes it on every G_R link, so this is
  // normally handled already — belt-and-braces for exotic reorderings
  // (e.g. traffic replayed out of a park), flip before accepting.
  if (!via_fast && st.fast && !st.complete) enter_fallback(st);

  // Algorithm 1 line 15: A-broadcast our own message at the latest upon
  // receiving someone else's — in every round up to the message's (our
  // broadcasts stay in round order).
  ensure_broadcast_up_to(st.round);

  if (st.have[*origin_rank]) return;  // duplicate: already relayed it

  if (!st.fast && (st.lost[*origin_rank] || st.decided)) {
    // ⋄P only (cannot happen with an accurate FD, see tests): the message
    // set was already fixed without m_origin — adding it now would break
    // the FWD/BWD set inferences. Count and drop.
    ++stats_.dropped_lost;
    rec(obs::EventKind::kDroppedMsg, msg.round,
        static_cast<std::uint64_t>(obs::DropReason::kLostRace), from);
    return;
  }

  st.have[*origin_rank] = true;
  st.msgs[*origin_rank] = msg.payload;
  st.msg_bytes[*origin_rank] = msg.payload_bytes;
  ++st.have_count;
  rec(obs::EventKind::kMsgRecv, st.round, *origin_rank, via_fast ? 1 : 0);

  // Line 17-18: relay to our successors along the round's current overlay
  // (skipping the link it came from — that peer evidently has it; only
  // valid when the relay stays on the overlay the message arrived by).
  // Counts actual sends: the skipped inbound link does not inflate the
  // counters.
  const bool traced = tracing() && msg.trace_sampled();
  if (st.fast) {
    if (traced) {
      // Sampled relay: the copy carries hop+1 and the grown cumulative
      // estimate (the context mutates per relay, so the shared frame of
      // this fan-out is re-encoded from the copy).
      Message out = msg;
      trace_relay(out, from);
      stats_.ubcast_sent +=
          fan_out(u_succs_, out, via_fast ? from : kInvalidNode);
    } else {
      stats_.ubcast_sent +=
          fan_out(u_succs_, msg, via_fast ? from : kInvalidNode);
    }
  } else {
    if (via_fast || traced) {
      // Late G_U traffic after the fallback transition: convert and
      // relay reliably. Sampled relays join this copying path for the
      // per-hop context mutation.
      Message out = msg;
      out.type = MsgType::kBroadcast;
      if (traced) trace_relay(out, from);
      stats_.bcast_sent +=
          send_to_successors(out, via_fast ? kInvalidNode : from);
    } else {
      stats_.bcast_sent += send_to_successors(msg, from);
    }
    // Line 19: m_origin is here, stop tracking it.
    if (!st.tracking[*origin_rank].empty()) {
      st.tracking[*origin_rank].clear();
      ALLCONCUR_ASSERT(st.active_tracking > 0, "tracking count underflow");
      --st.active_tracking;
    }
  }
  check_termination(st);
}

void Engine::rebroadcast_reliable(Round round, NodeId origin_global,
                                  const Payload& payload,
                                  std::uint64_t bytes) {
  Message m;
  m.type = MsgType::kBroadcast;
  m.round = round;
  m.origin = origin_global;
  m.payload = payload;
  m.payload_bytes = bytes;
  stats_.bcast_sent += send_to_successors(m);
}

void Engine::assist_fallback(RoundState& st) {
  if (st.assisted) return;
  st.assisted = true;
  rec(obs::EventKind::kFallbackAssist, st.round, st.have_count);
  // A fast round completes only with the full view's message set, so we
  // hold every message — re-relaying them over G_R lets every fallen-back
  // peer terminate by receipt, with the identical (full) set. Must happen
  // before any round-tagged ⟨FAIL⟩ leaves this server (per-link FIFO).
  for (std::size_t rank = 0; rank < view_->size(); ++rank) {
    rebroadcast_reliable(st.round, view_->member(rank), st.msgs[rank],
                         st.msg_bytes[rank]);
  }
}

void Engine::enter_fallback(RoundState& st) {
  if (!st.fast) return;  // already on the tracked path
  if (st.complete) {
    // Completion stands: the fast set is the full view, the only set a
    // fast round can decide, and the assist guarantees the fallback
    // re-execution converges to it. Rounds > r that fast-completed out
    // of order are likewise untouched — a fallback at r does not stall
    // the pipeline.
    assist_fallback(st);
    return;
  }
  st.fast = false;
  st.fell_back = true;
  rec(obs::EventKind::kFallbackEnter, st.round, st.have_count);
  if (trace_sampled_round(st.round)) {
    // The fast -> tracked handoff is a causal edge of every sampled
    // broadcast in this round: annotate it so the merged DAG shows why
    // the propagation re-entered G_R (hop field = messages held).
    rec_->record_span(
        obs::SpanKind::kFallback, st.round, self_, self_,
        static_cast<std::uint8_t>(
            st.have_count > Message::kTraceHopMask ? Message::kTraceHopMask
                                                   : st.have_count),
        static_cast<std::uint32_t>(st.fallback_attempt));
  }

  // Re-execute reliably: our own broadcast must reach G_R. If it already
  // went out (over G_U), re-issue it as a ⟨BCAST⟩; if we have not
  // broadcast this round yet, the eventual do_broadcast sends a ⟨BCAST⟩
  // anyway now that the mode flipped — forcing an empty broadcast here
  // would change what the round agrees on vs the classic engine.
  if (st.own_broadcast) {
    rebroadcast_reliable(st.round, self_, st.msgs[self_rank_],
                         st.msg_bytes[self_rank_]);
  }
  // Relay everything the fast phase collected over G_R — strictly before
  // any round-r ⟨FAIL⟩ is emitted below, so on every outgoing link a
  // held message precedes the failure evidence about it (the FIFO
  // discipline that keeps tracking sound across the two overlays).
  for (std::size_t rank = 0; rank < view_->size(); ++rank) {
    if (rank == self_rank_ || !st.have[rank]) continue;
    rebroadcast_reliable(st.round, view_->member(rank), st.msgs[rank],
                         st.msg_bytes[rank]);
  }

  // Instantiate the tracking digraphs for whatever is still missing, then
  // replay the failure pairs the fast phase recorded (and disseminate
  // them under this round's tag — fast rounds record but do not apply).
  init_tracking(st);
  if (!st.fails.empty()) {
    const auto pairs = st.fails;  // apply mutates tracking, not fails
    for (const auto& [j, k] : pairs) {
      const auto rank_j = view_->rank_of(j);
      if (!rank_j) continue;
      stats_.fail_sent +=
          send_to_successors(Message::fail(st.round, j, k));
      const auto rank_k = view_->rank_of(k);
      apply_failure_to_round(
          st, *rank_j, rank_k ? static_cast<NodeId>(*rank_k) : kInvalidNode);
    }
  }
  check_termination(st);
}

void Engine::initiate_fallback(RoundState& st) {
  if (!st.fast || st.complete || st.fallback_relayed) return;
  st.fallback_relayed = true;
  ++stats_.fallbacks_initiated;
  rec(obs::EventKind::kFallbackInit, st.round, st.fallback_attempt);
  stats_.fallback_sent +=
      send_to_successors(Message::fallback(st.round, self_));
  enter_fallback(st);
}

void Engine::reflood_fallback(RoundState& st) {
  // Re-issue a stuck tracked round's transition traffic — everything we
  // hold, then the failure evidence, in the same held-messages-before-
  // FAILs link order as the original transition. Receivers dedup all of
  // it, so a spurious re-flood costs bandwidth only.
  for (std::size_t rank = 0; rank < view_->size(); ++rank) {
    if (!st.have[rank]) continue;
    rebroadcast_reliable(st.round, view_->member(rank), st.msgs[rank],
                         st.msg_bytes[rank]);
  }
  for (const auto& [j, k] : st.fails) {
    stats_.fail_sent += send_to_successors(Message::fail(st.round, j, k));
  }
}

void Engine::handle_fallback(NodeId from, const Message& msg,
                             RoundState& st) {
  ++stats_.fallback_received;
  rec(obs::EventKind::kFallbackRecv, msg.round, msg.detector, from);
  if (st.fast && trace_sampled_round(msg.round)) {
    // Explicit DAG edge: the peer's trigger is what pushes this node's
    // sampled round off the fast path (peer = the trigger's initiator).
    rec_->record_span(obs::SpanKind::kFallback, msg.round, self_, msg.origin,
                      0, msg.detector);
  }
  const std::uint32_t attempt = msg.detector;
  if (st.fallback_relayed && attempt <= st.fallback_attempt) {
    return;  // this trigger wave was already relayed and acted on
  }
  const bool refire = st.fallback_relayed;
  st.fallback_relayed = true;
  st.fallback_attempt = std::max(st.fallback_attempt, attempt);
  // R-broadcast the trigger onward over G_R before any of the fallback's
  // own traffic, so every ⟨BCAST⟩/⟨FAIL⟩ we emit below finds its receiver
  // already transitioned.
  stats_.fallback_sent += send_to_successors(msg, from);
  if (refire) {
    // A higher-attempt trigger means someone is still stuck: the earlier
    // wave's traffic was lost somewhere, so contribute ours again.
    if (st.fast && st.complete) {
      st.assisted = false;  // re-arm the one-shot
      assist_fallback(st);
    } else if (!st.fast) {
      reflood_fallback(st);
    }
    return;
  }
  if (st.fast) {
    enter_fallback(st);
  } else {
    // The round is already on the tracked path (it opened reliable from
    // inherited failure notifications, or transitioned earlier): the
    // trigger is a stuck peer asking for recovery — contribute what we
    // hold.
    reflood_fallback(st);
  }
}

void Engine::handle_fallback_stale(NodeId from, const Message& msg) {
  ++stats_.fallback_received;
  for (auto& retained : retained_) {
    if (retained.round != msg.round) continue;
    // Per-attempt dedup, not one-shot: a re-fired trigger (higher
    // attempt) means the laggard is still stuck — the earlier assist was
    // lost — so it must be re-relayed and re-assisted or the laggard
    // stalls forever (and, per the retention bound, caps everyone else).
    if (static_cast<std::int64_t>(msg.detector) <= retained.assisted_attempt)
      return;
    retained.assisted_attempt = msg.detector;
    stats_.fallback_sent += send_to_successors(msg, from);
    // Assist from retention: the laggard (and anything between us) may
    // need messages only we still hold. A retained fast round carries the
    // full set; a retained fallback round carries the decided subset —
    // either way the laggard's re-execution converges to the same set
    // (missing messages resolve through the same ⟨FAIL⟩ evidence that
    // resolved them here).
    for (const Delivery& d : retained.deliveries) {
      rebroadcast_reliable(retained.round, d.origin, d.payload, d.bytes);
    }
    // Then the failure evidence (after the messages, per the FIFO
    // discipline): the laggard's tracked re-execution may be waiting on
    // a lost ⟨FAIL⟩, not a lost message.
    for (const auto& [j, k] : retained.fails) {
      stats_.fail_sent +=
          send_to_successors(Message::fail(retained.round, j, k));
    }
    return;
  }
  // Beyond the retention horizon: can only mean the sender was evicted or
  // partitioned past recovery — count and drop.
  ++stats_.dropped_stale;
}

void Engine::retain_delivered(const RoundState& st,
                              const RoundResult& result) {
  if (!fast_path()) return;
  RetainedRound entry;
  if (retained_.size() >= options_.window) {
    // Ring: recycle the oldest entry's vector capacity.
    entry = std::move(retained_.front());
    retained_.pop_front();
    entry.deliveries.clear();
    entry.fails.clear();
  }
  entry.round = result.round;
  entry.assisted_attempt = -1;
  entry.deliveries.insert(entry.deliveries.end(), result.deliveries.begin(),
                          result.deliveries.end());
  entry.fails.insert(entry.fails.end(), st.fails.begin(), st.fails.end());
  retained_.push_back(std::move(entry));
}

void Engine::on_round_timeout(Round r) {
  if (departed_ || !fast_path()) return;
  RoundState* st = find_round(r);
  if (st == nullptr) return;
  // Only an armed round falls back: an idle round (nothing broadcast,
  // nothing received) is merely quiet, and timing it out would make an
  // idle cluster spin fallback rounds forever.
  if (!st->own_broadcast && st->have_count == 0) return;
  if (st->fast) {
    initiate_fallback(*st);
  } else if (!st->complete) {
    // Watchdog fire on a stuck tracked round — one that fell back
    // earlier, or one that opened reliable outright (inherited failure
    // notifications) and lost traffic: (re-)flood the trigger and our
    // contribution. The bumped attempt makes the trigger penetrate the
    // receivers' per-round dedup, so peers re-relay it and contribute
    // their held messages / evidence / retention assists again.
    ++st->fallback_attempt;
    st->fallback_relayed = true;
    rec(obs::EventKind::kFallbackInit, st->round, st->fallback_attempt);
    stats_.fallback_sent += send_to_successors(
        Message::fallback(st->round, self_, st->fallback_attempt));
    reflood_fallback(*st);
  }
  deliver_ready();
}

void Engine::handle_fail(const Message& msg) {
  ++stats_.fail_received;
  learn_failure(msg.origin, msg.detector, msg.round, /*disseminate=*/true);
}

void Engine::on_suspect(NodeId suspect) {
  if (departed_) return;
  if (!view_->contains(suspect)) return;  // not (or no longer) a member
  // A suspicion raised now covers every currently open round.
  rec(obs::EventKind::kSuspect, base_round_, suspect);
  learn_failure(suspect, self_, base_round_, /*disseminate=*/true);
  deliver_ready();
}

void Engine::learn_failure(NodeId global_j, NodeId global_k, Round from_round,
                           bool disseminate) {
  const auto rank_j = view_->rank_of(global_j);
  if (!rank_j) {
    ++stats_.dropped_foreign;
    return;
  }
  if (global_k == self_) suspected_rank_[*rank_j] = true;

  // The detector may have left the membership between rounds; its
  // non-receipt information is then moot (it is not a successor in the
  // current overlay), but "p_j failed" still matters.
  const auto rank_k = view_->rank_of(global_k);
  const NodeId k_or_sentinel =
      rank_k ? static_cast<NodeId>(*rank_k) : kInvalidNode;

  for (auto& st : window_) {
    if (st->round < from_round) continue;  // never applies backward
    // Dual-digraph mode: failure evidence about a fast round forces the
    // transition first — an incomplete fast round re-executes reliably, a
    // complete one re-relays its (full) set. Both happen before the pair
    // is disseminated below, keeping every held message ahead of its
    // failure evidence on each outgoing G_R link.
    if (st->fast) {
      if (st->complete) {
        assist_fallback(*st);
      } else {
        initiate_fallback(*st);
      }
    }
    if (!st->fails.insert({global_j, global_k}).second) continue;  // dup
    st->failed_rank[*rank_j] = true;
    rec(obs::EventKind::kFailureLearned, st->round, global_j, global_k);
    if (disseminate) {
      // Line 22: R-broadcast the notification onward, tagged with each
      // round that learned it (every round needs its own failure stream;
      // fail_sent counts actual sends, not the nominal out-degree).
      stats_.fail_sent +=
          send_to_successors(Message::fail(st->round, global_j, global_k));
    }
    apply_failure_to_round(*st, *rank_j, k_or_sentinel);
  }
}

void Engine::apply_failure_to_round(RoundState& st, std::size_t rank_j,
                                    NodeId k_rank_or_sentinel) {
  // A round still on the fast path has no tracking to update (a complete
  // fast round records the pair for carry-forward only; an incomplete one
  // is transitioned by the caller before this runs).
  if (st.fast) return;
  // Lines 24-41: update every tracking digraph that contains p_j. The
  // digraphs run over the monitor overlay: in dual mode a message may
  // have been relayed along either G_U or G_R, so "whom could m_j have
  // reached" must chase the union's edges.
  const Knowledge fk(*this, st);
  for (std::size_t r = 0; r < st.tracking.size(); ++r) {
    if (st.tracking[r].empty()) continue;
    if (st.tracking[r].on_failure(static_cast<NodeId>(rank_j),
                                  k_rank_or_sentinel,
                                  view_->monitor_overlay(), fk)) {
      ALLCONCUR_ASSERT(st.active_tracking > 0, "tracking count underflow");
      --st.active_tracking;
      st.lost[r] = true;  // pruned to empty: m_r is lost, not received
    }
  }
  check_termination(st);
}

void Engine::handle_fwdbwd(NodeId from, const Message& msg, RoundState& st) {
  ++stats_.fwd_bwd_received;
  if (options_.fd_mode != FdMode::kEventuallyPerfect) return;
  const auto from_rank = view_->rank_of(from);
  if (from_rank && suspected_rank_[*from_rank]) {
    ++stats_.dropped_suspected;
    return;
  }
  const auto origin_rank = view_->rank_of(msg.origin);
  if (!origin_rank) {
    ++stats_.dropped_foreign;
    return;
  }
  if (msg.type == MsgType::kFwd) {
    if (st.fwd_seen[*origin_rank]) return;
    st.fwd_seen[*origin_rank] = true;
    if (msg.origin != self_) ++st.fwd_count;
    send_to_successors(msg, from);
  } else {
    if (st.bwd_seen[*origin_rank]) return;
    st.bwd_seen[*origin_rank] = true;
    if (msg.origin != self_) ++st.bwd_count;
    // ⟨BWD⟩ travels on the transpose of G.
    send_to_predecessors(msg, from);
  }
  ++stats_.fwd_bwd_sent;
  check_termination(st);
}

void Engine::check_termination(RoundState& st) {
  if (departed_ || st.complete) return;
  if (!st.own_broadcast) return;
  if (st.fast) {
    // Fast-path early termination: all n messages arrived over G_U. No
    // tracking was ever consulted; the decided set is the full view by
    // construction, so it is trivially identical at every completer.
    if (st.have_count == view_->size()) {
      st.complete = true;
      rec(obs::EventKind::kFastComplete, st.round, st.have_count);
    }
    return;
  }
  if (st.active_tracking != 0) return;

  if (options_.fd_mode == FdMode::kEventuallyPerfect) {
    if (!st.decided) {
      // §3.3.2: the message set M_i is decided; announce it forward along
      // G and backward along G's transpose (Kosaraju-style probes).
      st.decided = true;
      st.fwd_seen[self_rank_] = true;
      st.bwd_seen[self_rank_] = true;
      send_to_successors(Message::fwd(st.round, self_));
      send_to_predecessors(Message::bwd(st.round, self_));
      stats_.fwd_bwd_sent += 2;
    }
    // Deliver only inside a surviving partition: ⌊n/2⌋ distinct FWD and
    // BWD origins besides ourselves make a strict majority with us.
    const std::size_t needed = view_->size() / 2;
    if (st.fwd_count < needed || st.bwd_count < needed) return;
  }
  // Completion is out-of-order; A-delivery is not. The round is marked
  // done here and delivered by deliver_ready() once every earlier round
  // delivered.
  st.complete = true;
  rec(obs::EventKind::kComplete, st.round, st.have_count,
      st.fell_back ? 1 : 0);
}

void Engine::deliver_ready() {
  if (delivering_) return;  // folds into the outer loop
  delivering_ = true;
  while (!departed_ && !window_.empty() && window_.front()->complete) {
    deliver_front();
  }
  delivering_ = false;
}

void Engine::deliver_front() {
  RoundState& st = *window_.front();

  // --- Assemble the result (deliveries in deterministic id order). ---
  RoundResult result;
  result.round = st.round;
  result.view_size = view_->size();
  bool change_here = false;
  const auto track_unique = [&change_here](std::vector<NodeId>& list,
                                           NodeId id) {
    if (std::find(list.begin(), list.end(), id) == list.end()) {
      list.push_back(id);
      change_here = true;
    }
  };
  // One scan callback for the whole round, not one per delivery.
  const std::function<void(Request::Kind, NodeId)> on_control =
      [&](Request::Kind kind, NodeId subject) {
        if (kind == Request::Kind::kJoin && !view_->contains(subject)) {
          track_unique(epoch_joined_, subject);
        } else if (kind == Request::Kind::kLeave &&
                   view_->contains(subject)) {
          track_unique(epoch_leaves_, subject);
        }
      };
  for (std::size_t r = 0; r < view_->size(); ++r) {
    if (!st.have[r]) {
      // Absent: decided failed. During a draining window the server stays
      // a member for the remaining old-view rounds, so only the first
      // deciding round accumulates it (reported at the epoch close).
      track_unique(epoch_absent_, view_->member(r));
      continue;
    }
    Delivery d;
    d.origin = view_->member(r);
    d.payload = st.msgs[r];
    d.bytes = st.msg_bytes[r];
    result.deliveries.push_back(d);
    // Membership control requests ride in ordinary batches; scanned
    // without materializing the batch (no per-request data copies).
    if (d.payload) scan_membership(d.payload, on_control);
  }
  if (change_here && !epoch_close_) {
    // First membership change of this epoch: the view switches after the
    // window drained. No server can have opened round R+W under the old
    // view (opening it requires having delivered R), so R+W-1 closes the
    // epoch deterministically everywhere. W = 1 reduces to the classic
    // next-round switch.
    epoch_close_ = st.round + options_.window - 1;
  }
  ++stats_.rounds_completed;
  rec(obs::EventKind::kDelivered, st.round, result.deliveries.size(),
      st.fast ? 1 : 0);
  if (fast_path()) {
    // Counted by how the round actually delivered: rounds that opened
    // reliable outright (inherited failure notifications) are tracked
    // rounds too, not fast ones.
    ++(st.fast ? stats_.fast_rounds : stats_.fallback_rounds);
    // Keep the delivered set reachable for late ⟨FALLBACK⟩ assists.
    retain_delivered(st, result);
  }

  // --- Transition (Algorithm 1 lines 9-13, windowed). ---
  const bool closing = epoch_close_ && *epoch_close_ == st.round;
  if (closing) {
    std::sort(epoch_absent_.begin(), epoch_absent_.end());
    std::sort(epoch_joined_.begin(), epoch_joined_.end());
    result.removed = epoch_absent_;
    result.joined = epoch_joined_;

    std::vector<NodeId> removed_all = epoch_absent_;
    removed_all.insert(removed_all.end(), epoch_leaves_.begin(),
                       epoch_leaves_.end());
    std::sort(removed_all.begin(), removed_all.end());
    removed_all.erase(std::unique(removed_all.begin(), removed_all.end()),
                      removed_all.end());

    if (std::find(removed_all.begin(), removed_all.end(), self_) !=
        removed_all.end()) {
      // Departing: freeze at this round (no transition, no new rounds).
      departed_ = true;
      hooks_.deliver(result);
      return;
    }

    auto next_view = std::make_shared<const View>(view_->next(
        removed_all, result.joined, builder_, options_.fast_builder));

    // Carry failure notifications of servers that remain members
    // (line 12); open_round() seeds the new epoch's first round from
    // carry_fails_ and re-disseminates them under its tag.
    carry_fails_.clear();
    for (const auto& [j, k] : st.fails) {
      if (next_view->contains(j)) carry_fails_.insert({j, k});
    }
    view_ = std::move(next_view);
    suspected_rank_.assign(view_->size(), false);
    for (const auto& [j, k] : carry_fails_) {
      if (k == self_) {
        const auto rank_j = view_->rank_of(j);
        ALLCONCUR_ASSERT(rank_j.has_value(), "carried failure left the view");
        suspected_rank_[*rank_j] = true;
      }
    }
    epoch_absent_.clear();
    epoch_leaves_.clear();
    epoch_joined_.clear();
    epoch_close_.reset();
  } else {
    // Carry on every transition, not only at epoch closes (classic line
    // 12): with W = 1 the window is empty the instant the front pops, so
    // the next round seeds from carry_fails_ — without this, a pair
    // learned during a round whose origin still delivered (crash after a
    // complete broadcast) would vanish and the dead server's tracking
    // could never resolve again.
    carry_fails_ = st.fails;
  }

  std::unique_ptr<RoundState> done = std::move(window_.front());
  window_.pop_front();
  ++base_round_;
  recycle(std::move(done));
  refill_window();

  // Report R before replaying any parked future traffic so deliveries
  // stay in round order; the hook may submit/broadcast for the new
  // window.
  hooks_.deliver(result);
  replay_parked();
}

}  // namespace allconcur::core
