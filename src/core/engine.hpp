// The AllConcur protocol engine: Algorithm 1 plus round iteration, dynamic
// membership, the ⋄P surviving-partition extension (§3) — and round
// pipelining: a window of W consecutive rounds runs concurrently, the way
// the paper's performance model assumes (§5: a server that finished round
// R immediately starts R+1 while slower peers are still relaying R).
//
// The engine is a pure message-driven state machine: it owns no sockets,
// threads or clocks. It consumes (from, Message) events and emits messages
// through a send hook; round completion is reported through a deliver
// hook. The same engine instance runs under the discrete-event simulator,
// under the real TCP transport, and directly inside unit tests.
//
// Pipelining model (Options::window = W ≥ 1):
//   * Rounds [r_delivered+1, r_delivered+W] are *open*: their BCAST, FAIL,
//     FWD and BWD traffic is processed — and relayed — immediately on
//     arrival, each round on its own RoundState. Rounds may *complete*
//     (message set decided) out of order; A-delivery stays strictly in
//     round order.
//   * Own broadcasts fill the window front-to-back: broadcast_now() packs
//     the pending batch into the lowest round not yet broadcast, so a
//     producer can keep up to W rounds in flight before any delivery.
//   * Membership changes drain the window before the view switches: a
//     change decided by round t takes effect at round t+W (deterministic
//     across servers — no node can have opened t+W under the old view,
//     because opening it requires having delivered t). Rounds t..t+W-1
//     run out under the old view, with failed servers resolved by the
//     carried failure notifications; the close round t+W-1 reports the
//     accumulated removed/joined sets and the next round starts the new
//     view. With W = 1 this is exactly the classic per-round iteration.
//   * Every open round's F_i has one owner, core::FailureEvidence (each
//     ⟨FAIL⟩ pair once, with its first round); send_fail() sends them.
//   * Messages beyond the window (round > r_delivered+W) are counted in
//     EngineStats::dropped_ahead; those still reachable by a live peer
//     (≤ r_delivered+2W — a peer can be at most W rounds ahead of our
//     frontier, and broadcast W more) are parked and replayed when the
//     window advances, anything farther means we were evicted.
//
// RoundStates are pooled: a delivered round's state (flag vectors,
// tracking digraphs, message slots) is recycled for the next opened round,
// so a steady-state round transition performs no heap allocation at any
// window size (bench/wire_path and bench/round_pipeline measure this).
//
// Dual-digraph fast path (Options::fast_builder — AllConcur+, "A Dual
// Digraph Approach for Leaderless Atomic Broadcast"): rounds open in FAST
// mode and run untracked over the unreliable overlay G_U — completion is
// a simple all-n bitmap, no tracking digraphs are instantiated. A
// suspicion, a round timeout, or a peer's ⟨FALLBACK, r⟩ switches round r
// (and only round r) to the tracked RELIABLE path over G_R: every server
// re-broadcasts its round-r message and relays everything it holds over
// G_R *before* emitting any round-r ⟨FAIL⟩ (the per-link FIFO discipline
// that keeps the tracking inferences sound when a message travelled G_U),
// then standard AllConcur termination applies. A fast round can only
// complete with the full view's message set, so a round that completed
// fast anywhere is recoverable to the identical set everywhere: the
// completer assists by re-relaying its full set (from the live round, or
// from the W-deep retention ring if it already delivered). Rounds opened
// while failure notifications are pending start reliable directly; once a
// membership change evicts the failed servers, fast rounds resume. See
// src/plus/ for the overlay pairing and the deployment-side watchdog.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/batch.hpp"
#include "core/failure_evidence.hpp"
#include "core/message.hpp"
#include "core/tracking.hpp"
#include "core/view.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace allconcur::core {

/// Failure-detector regime (§3.2 / §3.3.2). kPerfect trusts every
/// notification (P); kEventuallyPerfect adds the FWD/BWD majority gate
/// before delivery so that false suspicions cannot break set agreement.
enum class FdMode { kPerfect, kEventuallyPerfect };

struct Delivery {
  NodeId origin = kInvalidNode;
  Payload payload;               ///< null for empty or size-only messages
  std::uint64_t bytes = 0;       ///< payload size (valid also size-only)
};

struct RoundResult {
  Round round = 0;
  std::size_t view_size = 0;            ///< n of this round
  std::vector<Delivery> deliveries;     ///< deterministic order (by id)
  /// Servers leaving the membership after this round. Reported on the
  /// round that *closes* an epoch (the last round before the view
  /// switches); with window > 1 a failure decided at round t is thus
  /// reported at t+W-1, after the window drained.
  std::vector<NodeId> removed;
  std::vector<NodeId> joined;           ///< admitted from the next round
};

struct EngineStats {
  std::uint64_t bcast_sent = 0, bcast_received = 0;
  /// ⟨FAIL⟩ sends. A pair is re-sent under each open round's tag (each
  /// open round that learns it, each newly opened round): up to W copies
  /// of one pair per link where one would carry the evidence.
  std::uint64_t fail_sent = 0, fail_received = 0;
  /// ⋄P gate traffic; like every *_sent counter, counts actual sends.
  std::uint64_t fwd_bwd_sent = 0, fwd_bwd_received = 0;
  // ---- Dual-digraph fast path (AllConcur+ mode) ----
  std::uint64_t ubcast_sent = 0, ubcast_received = 0;   ///< G_U traffic
  std::uint64_t fallback_sent = 0, fallback_received = 0;
  /// Rounds this engine switched to the reliable path on its own
  /// initiative (local suspicion or round timeout), vs. following a
  /// peer's ⟨FALLBACK⟩.
  std::uint64_t fallbacks_initiated = 0;
  /// Delivered rounds that completed on the untracked fast path.
  std::uint64_t fast_rounds = 0;
  /// Delivered rounds that went through the tracked path: mid-round
  /// fallback transitions and rounds that opened reliable outright
  /// (inherited failure notifications).
  std::uint64_t fallback_rounds = 0;
  /// Tracking digraphs instantiated (reset to a live root). Zero across a
  /// failure-free fast-path run — the bench-asserted invariant that fast
  /// rounds skip the tracking machinery entirely.
  std::uint64_t tracking_resets = 0;
  /// Encode-time accounting: wire bytes (header+payload) of every frame
  /// handed to the send hook, counted once per destination. Excludes
  /// transport-level extras (connection preambles, heartbeats) and still
  /// counts frames the transport later drops (chaos, closed peer) — see
  /// TcpNetStats::bytes_sent for the socket-side view and obs/schema.hpp
  /// for the documented reconciliation.
  std::uint64_t bytes_sent = 0;
  /// Wire frames built: exactly one per message this engine emitted,
  /// regardless of the overlay out-degree (the zero-copy invariant).
  std::uint64_t frames_encoded = 0;
  std::uint64_t dropped_stale = 0;      ///< messages for completed rounds
  std::uint64_t dropped_suspected = 0;  ///< ignore-after-suspect (§3.3.2)
  std::uint64_t dropped_foreign = 0;    ///< origin not in the view
  std::uint64_t dropped_lost = 0;       ///< arrived after declared lost (⋄P)
  /// Messages ahead of the active window (round > r_delivered + window).
  /// Those within the reachable horizon (≤ r_delivered + 2*window) are
  /// parked and replayed once the window advances; farther-future traffic
  /// means we were evicted and is discarded (the harness decides on
  /// rejoin). Before pipelining these were silently discarded.
  std::uint64_t dropped_ahead = 0;
  /// Identical ahead-of-window frames suppressed at the park (duplicated
  /// wire traffic): parked once, counted once, replayed once.
  std::uint64_t parked_duplicates = 0;
  std::uint64_t rounds_completed = 0;
};

struct EngineOptions {
  FdMode fd_mode = FdMode::kPerfect;
  /// Number of concurrently active rounds W (≥ 1). 1 reproduces the
  /// classic stop-and-wait iteration exactly.
  std::size_t window = 1;
  /// Dual-digraph fast path (AllConcur+, PAPERS.md): when set, the engine
  /// runs failure-free rounds untracked over the unreliable overlay G_U
  /// this builder produces (the View must be constructed with the same
  /// builder), falling back to tracked rounds over G_R on suspicion, on a
  /// peer's ⟨FALLBACK⟩, or on a round timeout. Empty = classic mode.
  /// Requires FdMode::kPerfect (the paper's evaluation assumption; the
  /// ⋄P gate composes with tracked rounds only).
  GraphBuilder fast_builder;
  /// Observability tap (may be null — the hot path then pays one
  /// predictable branch per would-be event). The engine records round
  /// lifecycle events (open/broadcast/receive/complete/fallback/deliver,
  /// drops, parks, suspicions) and, when tracing, its causal-trace spans
  /// against the recorder, which the owning deployment timestamps via its
  /// clock (FlightRecorder::set_time_source). Not owned.
  obs::FlightRecorder* recorder = nullptr;
  /// Cross-node causal tracing (obs/trace.hpp; needs the recorder):
  /// sample one A-broadcast origin round in `trace_sample_period` (0 =
  /// tracing off). Round-number based, so every origin samples the same
  /// rounds and a sampled round's full propagation DAG is captured. The
  /// engine stamps sampled origins (trace context in the frame header),
  /// increments the hop count and the cumulative one-way estimate at
  /// every relay, and records its origin/process/fallback spans.
  std::uint32_t trace_sample_period = 0;
  /// The deployment's per-hop relay latency histogram (may be null): its
  /// mean is the one-hop estimate sampled relays add to the frame's
  /// cumulative estimate (obs::hop_estimate_ns). Not owned.
  const obs::Histogram* hop_histogram = nullptr;
};

class Engine {
 public:
  struct Hooks {
    /// Emit one protocol message toward a peer (required). The frame is
    /// shared across the whole fan-out of a send — the engine encodes it
    /// exactly once per message; transports queue the reference (the bytes
    /// are immutable and refcounted) instead of copying. The decoded form
    /// stays available through frame->msg() for in-process consumers.
    std::function<void(NodeId dst, const FrameRef& frame)> send;
    /// A-deliver one completed round (required). Rounds are delivered in
    /// strict round order even when they complete out of order.
    std::function<void(const RoundResult&)> deliver;
  };
  using Options = EngineOptions;

  /// `start_round` > 0 is used by joiners entering an existing deployment.
  Engine(NodeId self, View view, GraphBuilder builder, Hooks hooks,
         Options options = Options(), Round start_round = 0);

  NodeId self() const { return self_; }
  /// Oldest round not yet A-delivered (the in-progress round).
  Round current_round() const { return base_round_; }
  const View& view() const { return *view_; }
  const EngineStats& stats() const { return stats_; }
  bool departed() const { return departed_; }
  std::size_t window() const { return options_.window; }
  /// Lowest open round this server has not yet broadcast in (== the round
  /// the next broadcast_now() with pending work would target), or nullopt
  /// if every open round already carries our message (window full).
  std::optional<Round> next_broadcast_round() const;

  /// Queues a request for this server's next A-broadcast.
  void submit(Request request);

  /// Queues `bytes` of size-only load (throughput benches: the simulator
  /// charges for the bytes, nothing is materialized).
  void submit_opaque(std::size_t bytes);

  /// Payload bytes submitted but not yet A-broadcast — the backpressure
  /// signal: while a full (or draining) window refuses further
  /// broadcasts, submissions accumulate here and clients should throttle.
  std::uint64_t pending_bytes() const;

  /// A-broadcasts the pending batch in the lowest open round that has no
  /// own message yet. The in-progress round broadcasts even empty (round
  /// progress); later window rounds only with pending work, so repeated
  /// calls fill the pipeline without spinning empty speculative rounds.
  /// No-op when every open round already carries our message; the engine
  /// also broadcasts automatically upon the first ⟨BCAST⟩ it receives
  /// for a round (Algorithm 1 line 15, applied to every round up to it).
  void broadcast_now();

  /// Transport delivery: `from` is the link peer (the relaying
  /// predecessor), not necessarily the origin.
  void on_message(NodeId from, const Message& msg);

  /// Local failure detector: predecessor `suspect` is considered failed.
  void on_suspect(NodeId suspect);

  /// Dual-digraph mode: the deployment's round watchdog reports that round
  /// `r` has been stuck beyond the fallback timeout. If `r` is an open,
  /// incomplete fast round with any activity (our broadcast or a received
  /// message), the engine initiates the fallback transition: R-broadcasts
  /// ⟨FALLBACK, r⟩ over G_R and re-executes the round tracked. No-op in
  /// classic mode, for complete rounds, and for untouched idle rounds —
  /// calling it spuriously (no real failure) is safe by design and is how
  /// the property suite forces fallbacks.
  void on_round_timeout(Round r);

  /// True iff the dual-digraph fast path is enabled.
  bool fast_path() const { return static_cast<bool>(options_.fast_builder); }
  /// Dual mode: monotone per-round progress counter of the oldest open
  /// round (messages received + own broadcast). The watchdog re-arms its
  /// deadline whenever this moves, so a legitimately slow round (latency
  /// above the timeout but traffic still flowing) is not timed out.
  std::size_t front_round_progress() const;

  /// Number of still-unresolved tracking digraphs of the oldest open
  /// round (0 means its message set is decided; in ⋄P delivery
  /// additionally waits for the gate).
  std::size_t active_tracking() const;

  /// Read-only access for tests: tracking digraph for a peer (by rank) in
  /// the oldest open round.
  const TrackingDigraph& tracking_of(std::size_t rank) const;

 private:
  /// All per-round protocol state (Algorithm 1's M_i, the tracking
  /// digraphs, and the ⋄P gate), pooled and recycled across rounds. F_i
  /// lives once in evidence_, read at the round's number.
  struct RoundState {
    Round round = 0;
    std::vector<Payload> msgs;             // by rank
    std::vector<std::uint64_t> msg_bytes;  // by rank
    std::vector<bool> have;                // m ∈ M_i
    std::size_t have_count = 0;            // popcount of have
    bool own_broadcast = false;
    // ---- Per-round mode tag (dual-digraph) ----
    /// True while the round runs the untracked fast path over G_U:
    /// completion is have_count == n, the tracking vector is untouched
    /// stale pool state and must not be read. Flipped (once, forward
    /// only) by enter_fallback. Always false in classic mode.
    bool fast = false;
    bool fell_back = false;       ///< entered the tracked fallback path
    bool fallback_relayed = false;  ///< ⟨FALLBACK, r⟩ sent/relayed already
    /// Highest trigger attempt seen or sent: a trigger with a higher
    /// attempt (a watchdog re-fire somewhere) penetrates the dedup and
    /// re-floods, so a lost transition is recoverable.
    std::uint32_t fallback_attempt = 0;
    /// Fast-complete round: full message set re-relayed over G_R to help
    /// fallen-back laggards (once per trigger attempt).
    bool assisted = false;
    std::vector<TrackingDigraph> tracking;
    std::size_t active_tracking = 0;
    std::vector<bool> lost;  // tracking pruned: message declared lost
    // ⋄P state.
    bool decided = false;
    std::vector<bool> fwd_seen, bwd_seen;
    std::size_t fwd_count = 0, bwd_count = 0;
    /// Termination reached; awaiting in-order delivery.
    bool complete = false;
  };

  /// Message set of a delivered fast-path round, retained for the last
  /// `window` rounds: a laggard's ⟨FALLBACK, r⟩ can arrive after we
  /// delivered r and recycled its state, and the fallback's termination
  /// may depend on messages only we still hold. The window bound is
  /// exact: a peer stuck at round r caps everyone's progress at r+W
  /// (no round beyond r+W-1 can complete without the stuck peer's
  /// broadcast, which never comes).
  struct RetainedRound {
    Round round = 0;
    std::vector<Delivery> deliveries;
    /// The round's failure pairs: a laggard's tracked re-execution may
    /// need the evidence (not just the messages) to terminate — e.g. to
    /// prune a crashed member whose FAIL it lost.
    std::vector<std::pair<NodeId, NodeId>> fails;
    /// Highest trigger attempt already assisted (-1: never) — a re-fired
    /// trigger (higher attempt) is re-relayed and re-assisted, so a
    /// laggard whose assist traffic was lost can still recover.
    std::int64_t assisted_attempt = -1;
  };

  RoundState* find_round(Round r);
  /// Opens the next round after the current window tail (pool-recycled
  /// state, held failure evidence applied and re-disseminated).
  void open_round();
  void refill_window();
  void recycle(std::unique_ptr<RoundState> st);
  /// Highest round the window may currently hold open: base+W-1, capped
  /// at the epoch close while a membership change is draining.
  Round max_open_round() const;

  void do_broadcast(RoundState& st);
  /// Algorithm 1 line 15, windowed: our own message must be out in every
  /// round up to `r` before we relay someone else's round-`r` message.
  void ensure_broadcast_up_to(Round r);
  /// (Re-)instantiates the tracking digraphs of `st` for every message
  /// not yet received, seeding active_tracking. Classic rounds run it at
  /// open; dual-mode rounds only on the fallback transition.
  void init_tracking(RoundState& st);
  /// Admits a round message relayed by `from`: returns its origin's rank,
  /// or drops it (suspected link peer, origin not a member).
  std::optional<std::size_t> admit(NodeId from, const Message& msg);
  /// Handles ⟨BCAST⟩ and ⟨UBCAST⟩ — the payload semantics are identical;
  /// only the relay overlay differs by the round's current mode.
  void handle_bcast(NodeId from, const Message& msg, RoundState& st);
  /// Handles ⟨FALLBACK, r⟩ for an open round: relays it over G_R and
  /// enters the fallback transition.
  void handle_fallback(NodeId from, const Message& msg, RoundState& st);
  /// ⟨FALLBACK, r⟩ for an already-delivered round: re-relay the trigger
  /// and assist the laggard with the retained message set.
  void handle_fallback_stale(NodeId from, const Message& msg);
  /// The fallback transition for an open round. Incomplete fast round:
  /// flip to tracked mode, re-broadcast our message and relay everything
  /// held over G_R (strictly before any round-r ⟨FAIL⟩ leaves — the
  /// per-link FIFO discipline the tracking inferences rest on), then
  /// instantiate the tracking digraphs. Complete fast round: keep the
  /// completion (the set is the full view — the only set a fast round
  /// can decide) and assist.
  void enter_fallback(RoundState& st);
  /// Local fallback trigger (suspicion / timeout / FAIL for a fast
  /// round): R-broadcast ⟨FALLBACK, r⟩, then run the transition.
  void initiate_fallback(RoundState& st);
  /// Re-relays the full message set of a fast-complete round over G_R
  /// (once per trigger attempt) so fallen-back peers can terminate by
  /// receipt.
  void assist_fallback(RoundState& st);
  /// Re-issues a stuck tracked round's transition traffic (held messages
  /// then failure evidence) — the watchdog re-fire path.
  void reflood_fallback(RoundState& st);
  /// Sends one held round message as a ⟨BCAST⟩ over G_R.
  void rebroadcast_reliable(Round round, NodeId origin_global,
                            const Payload& payload, std::uint64_t bytes);
  void retain_delivered(const RoundState& st, const RoundResult& result);
  /// Counts a dropped round message under its reason's dropped_* counter
  /// and records it: the only place those counters move.
  void drop(obs::DropReason why, const Message& msg, NodeId from);
  void handle_fail(NodeId from, const Message& msg);
  void handle_fwdbwd(NodeId from, const Message& msg, RoundState& st);
  /// Records member p_j's (p_j, p_k) from `from_round` on (never
  /// backward); each open round that learns it sends it under its own tag
  /// and updates its tracking digraphs.
  void learn_failure(NodeId global_j, NodeId global_k, Round from_round);
  /// The one ⟨FAIL⟩ send, under round r's tag. Callers relay held round-r
  /// messages first: on every link a message precedes the failure
  /// evidence about it (the AllConcur+ FIFO rule).
  void send_fail(Round r, NodeId global_j, NodeId global_k);
  /// Lines 24-41: st's tracking digraphs process (p_j, p_k).
  void apply_failure_to_round(RoundState& st, NodeId global_j,
                              NodeId global_k);
  /// Encode-once fan-out: the wire frame is built lazily on the first
  /// live destination and shared by reference with every further one.
  /// Returns the number of messages actually handed to the send hook.
  std::size_t send_to_successors(const Message& msg,
                                 NodeId skip = kInvalidNode);
  std::size_t send_to_predecessors(const Message& msg,
                                   NodeId skip = kInvalidNode);
  std::size_t fan_out(const std::vector<NodeId>& dsts, const Message& msg,
                      NodeId skip);
  void check_termination(RoundState& st);
  /// Delivers every leading complete round in order (reentrancy-safe:
  /// calls from within a deliver hook fold into the outer loop).
  void deliver_ready();
  void deliver_front();
  void park_future(NodeId from, const Message& msg);
  void replay_parked();

  /// Flight-recorder tap; nullptr when tracing is off (single branch).
  void rec(obs::EventKind k, Round r, std::uint64_t a = 0,
           std::uint64_t b = 0) {
    if (rec_ != nullptr) rec_->record(k, r, a, b);
  }

  /// Causal-tracer helpers (obs/trace.hpp). tracing() is true when spans
  /// have a ring to go into and sampling is on; trace_sampled_round
  /// answers whether a fresh origin broadcast in round r should carry the
  /// trace context; trace_relay mutates an in-flight copy of a sampled
  /// message for its next hop (hop count +1, cumulative estimate += this
  /// node's per-hop estimate) and records the process span.
  bool tracing() const {
    return rec_ != nullptr && options_.trace_sample_period != 0;
  }
  bool trace_sampled_round(Round r) const {
    return tracing() && r % options_.trace_sample_period == 0;
  }
  void trace_relay(Message& out, NodeId from) {
    out.trace = Message::trace_relay_context(out.trace);
    const std::uint32_t step = obs::hop_estimate_ns(options_.hop_histogram);
    const std::uint32_t est = out.detector;
    out.detector = est > 0xffffffffu - step ? 0xffffffffu : est + step;
    rec_->record_span(obs::SpanKind::kProcess, out.round, out.origin, from,
                      out.trace_hop(), out.detector);
  }

  NodeId self_;
  GraphBuilder builder_;
  Hooks hooks_;
  Options options_;
  obs::FlightRecorder* rec_ = nullptr;

  /// Round of window_.front(): the oldest not-yet-delivered round.
  Round base_round_ = 0;
  std::shared_ptr<const View> view_;  // immutable; shared by all open rounds
  std::size_t self_rank_ = 0;
  bool departed_ = false;
  // Overlay neighbor lists of self (global ids), recomputed only when the
  // view object changes: the send fast path must not rebuild them per
  // message. succs_/preds_ follow G_R; u_succs_ follows G_U (dual mode
  // only, empty otherwise — G_U predecessors matter only to the FD,
  // which the deployments wire via View::monitor_predecessors_of).
  const View* neighbors_view_ = nullptr;
  std::vector<NodeId> succs_;
  std::vector<NodeId> preds_;
  std::vector<NodeId> u_succs_;

  // Requests buffered for the next own broadcast (§5 batching).
  std::vector<Request> pending_;
  std::size_t pending_opaque_bytes_ = 0;
  std::uint64_t pending_request_bytes_ = 0;

  /// Open rounds, contiguous: window_[i] runs round base_round_ + i.
  std::deque<std::unique_ptr<RoundState>> window_;
  /// Recycled round states (vectors and tracking digraphs keep capacity).
  std::vector<std::unique_ptr<RoundState>> pool_;
  // Free-list: digraphs parked when the view shrinks, so their
  // vertex/edge capacity is reused when it grows again.
  std::vector<TrackingDigraph> tracking_spares_;

  FailureEvidence evidence_;  // F_i of every open round

  // ---- Epoch state (valid for every open round; reset on view switch) --
  /// Set once a delivered round decides a membership change: the last
  /// round of the current view's epoch (= decision round + W - 1). No
  /// round beyond it opens until the window drained and the view
  /// switched.
  std::optional<Round> epoch_close_;
  std::vector<NodeId> epoch_absent_;  // accumulated removals (decision order)
  std::vector<NodeId> epoch_leaves_;  // accumulated voluntary leaves
  std::vector<NodeId> epoch_joined_;  // accumulated admissions

  /// Delivered-round message sets kept for late ⟨FALLBACK⟩ assists (dual
  /// mode only); ring of the last `window` rounds, entries recycled.
  std::deque<RetainedRound> retained_;

  /// Messages ahead of the window, parked until their round opens.
  std::deque<std::pair<NodeId, Message>> future_;
  bool replaying_ = false;   // re-parking during replay: don't recount
  bool delivering_ = false;  // deliver_ready reentrancy guard

  EngineStats stats_;
};

}  // namespace allconcur::core
