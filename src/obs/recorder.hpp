// Round flight recorder: each node's one bounded observability ring, with
// the round id as the correlation key (Dapper-style: every record of one
// agreement instance shares its round number, so grepping a dump for
// `r=<round>` reconstructs that round's causal timeline). It holds
// round-lifecycle events (what THIS node did in round R) and, when trace
// sampling is on, causal-trace spans (how a sampled broadcast crossed THIS
// node; obs/trace.hpp merges them across nodes) in one sequence; events()
// and spans() each read back only their own kind.
//
// The hot path is one inline branch when disabled and a 32-byte ring
// store when enabled — no locks, no allocation, no clock call (the
// deployment donates a time source pointer: the simulator's virtual
// clock or the TCP loop's per-wake monotonic stamp).
//
// Dumps are taken on demand (admin endpoint, SimCluster accessor) and
// automatically when an invariant trips — SMR hash-guard divergence or
// silently delivered corruption — so a chaos CI failure ships with the
// per-replica timelines (and span dumps) that explain it instead of a
// bare assert.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace allconcur::obs {

enum class EventKind : std::uint8_t {
  kRoundOpen,       ///< round state created; a = 1 if opened in fast mode,
                    ///< b = open window depth
  kBcastSent,       ///< own A-broadcast sent; a = payload bytes, b = fast
  kMsgRecv,         ///< round message accepted; a = origin rank,
                    ///< b = 1 if via G_U
  kFastComplete,    ///< unreliable-path termination; a = messages gathered
  kComplete,        ///< tracked-path termination (early termination fired);
                    ///< a = messages gathered, b = 1 if the round fell back
  kFallbackInit,    ///< this node triggered fallback; a = attempt
  kFallbackRecv,    ///< received a peer's fallback trigger; a = attempt,
                    ///< b = sender
  kFallbackEnter,   ///< round switched fast -> tracked; a = messages held
  kFallbackAssist,  ///< re-relayed a held set to assist; a = messages held
  kDelivered,       ///< A-delivery; a = deliveries, b = 1 if fast path
  kFailureLearned,  ///< tracking learned FAIL(j,k); a = j, b = k
  kSuspect,         ///< local FD suspected node a
  kParked,          ///< frame beyond the window parked; a = sender,
                    ///< b = message type
  kDroppedAhead,    ///< frame too far ahead; a = sender, b = 1 if parked too
  kDroppedMsg,      ///< round message dropped; a = DropReason, b = sender
  kTimerArm,        ///< fallback watchdog armed on this round
  kTimerRearm,      ///< watchdog re-armed on progress; a = round age so far
  kTimerFire,       ///< watchdog fired; a = observed round age, b = progress
  kChaosInject,     ///< chaos verdict on an outbound frame; a = dst,
                    ///< b = bitmask (1 drop, 2 dup, 4 corrupt, 8 delay)
  kChaosPhase,      ///< active chaos phase set changed; a = phase bitmask
  kInvariantTrip,   ///< invariant violated; a = TripCode (round = culprit)
};

/// a-field of kDroppedMsg.
enum class DropReason : std::uint8_t {
  kStale,            ///< round already delivered
  kSuspectedOrigin,  ///< origin already suspected in this round
  kForeignEpoch,     ///< frame from another membership epoch
  kLostRace,         ///< fallback attempt raced and lost
};

/// a-field of kInvariantTrip.
enum class TripCode : std::uint8_t {
  kSmrHashDivergence,   ///< replica state hash != agreed reference hash
  kCorruptDelivered,    ///< corrupted frame survived the checksum
  kPropertyViolation,   ///< a property-suite predicate failed
};

/// One phase of a broadcast's passage through a node. Every span of one
/// (round, origin) broadcast shares those two correlation keys; `hop` is
/// the frame's out-hop at that node (origin = 0, each relay +1), except
/// for kRecv, which records the in-hop of the arriving frame.
enum class SpanKind : std::uint8_t {
  kOrigin,    ///< sampled broadcast born here; peer = self, hop = 0
  kRecv,      ///< transport accepted a sampled frame; peer = sender,
              ///< hop = the arriving frame's hop
  kProcess,   ///< engine relayed the broadcast; peer = sender,
              ///< hop = out-hop of the relayed frame
  kEnqueue,   ///< frame queued toward peer (out-hop)
  kSend,      ///< frame handed to the wire toward peer (out-hop)
  kFallback,  ///< fast -> tracked handoff of a traced round; peer = the
              ///< fallback initiator — the DAG edge explaining why the
              ///< broadcast re-entered the reliable overlay
};

const char* event_name(EventKind k);
const char* drop_reason_name(DropReason r);
const char* trip_code_name(TripCode c);
const char* span_name(SpanKind k);

/// Read-path view of one recorded event. `seq` is not stored in the
/// ring — a slot's sequence number is implied by its position relative
/// to the write head, and events() reconstructs it — so the hot-path
/// store stays at four words (32 bytes) per event.
struct Event {
  std::uint64_t seq = 0;  ///< monotone per recorder; survives wraparound
  TimeNs t = 0;           ///< deployment clock at record time (0 if none)
  Round round = 0;
  EventKind kind = EventKind::kRoundOpen;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Read-path view of one recorded span. `node` is the recording node —
/// filled by FlightRecorder::spans() (its caller's id) and by the merge
/// parser.
struct Span {
  std::uint64_t seq = 0;
  TimeNs t = 0;
  Round round = 0;
  SpanKind kind = SpanKind::kOrigin;
  NodeId node = kInvalidNode;
  NodeId origin = kInvalidNode;
  NodeId peer = kInvalidNode;
  std::uint8_t hop = 0;
  std::uint32_t est_ns = 0;  ///< cumulative one-way estimate on the frame
};

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two; the ring keeps the most
  /// recent `capacity` records (events and spans alike) and counts what it
  /// overwrote. The default (1024 slots, 32 KiB) keeps the ring
  /// L2-resident — a round emits ~10 events, so ~100 rounds of history
  /// survive for a postmortem, an order of magnitude past the deepest
  /// pipelining window. A traced broadcast adds ~2 + out-degree spans per
  /// node it crosses; raise the capacity when sampling densely.
  explicit FlightRecorder(std::size_t capacity = 1024, bool enabled = true);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Donates the clock: the recorder reads `*t` at each record() call.
  /// The pointee must outlive the recorder (or be reset). Null reverts
  /// to timestamp 0 (ordering still carried by seq).
  void set_time_source(const TimeNs* t) { time_src_ = t; }

  void record(EventKind k, Round r, std::uint64_t a = 0, std::uint64_t b = 0) {
    if (!enabled_) return;
    store(static_cast<std::uint64_t>(k) << kKindShift, r, a, b);
  }
  /// Records one causal-trace span (same single branch and slot store).
  void record_span(SpanKind k, Round r, NodeId origin, NodeId peer,
                   std::uint8_t hop, std::uint32_t est_ns) {
    if (!enabled_) return;
    store(kSpanTag | (static_cast<std::uint64_t>(k) << kKindShift), r,
          (static_cast<std::uint64_t>(origin) << 32) | peer,
          (static_cast<std::uint64_t>(hop) << 32) | est_ns);
  }

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const {
    return head_ < ring_.size() ? static_cast<std::size_t>(head_)
                                : ring_.size();
  }
  /// Records (events and spans) overwritten since construction.
  std::uint64_t dropped() const {
    return head_ < ring_.size() ? 0 : head_ - ring_.size();
  }
  std::uint64_t total_recorded() const { return head_; }

  /// Retained events, oldest first (seq strictly increasing); spans are
  /// skipped.
  std::vector<Event> events() const;
  /// Retained events of one round, oldest first.
  std::vector<Event> events_for_round(Round r) const;
  /// Retained spans, oldest first, stamped `node = self`; events are
  /// skipped.
  std::vector<Span> spans(NodeId self) const;

  /// Human-readable event dump, one event per line:
  ///   [label] seq=12 t=3400 r=7 delivered a=5 b=0
  std::string dump_text(const std::string& label) const;
  /// JSON-lines event dump (one object per event; `node` carries the
  /// label): the admin `/recorder` body.
  std::string dump_json(const std::string& label) const;
  /// JSON-lines span dump, one span per line: the admin `/trace` body and
  /// the input format of TraceMerge::add_dump / tools/allconcur_trace.
  std::string dump_spans_json(const std::string& label, NodeId self) const;

  void clear() { head_ = 0; }

 private:
  /// Ring storage: Event compressed to four words. seq is reconstructed
  /// from ring position, and the kind rides in the round's top byte
  /// (rounds are nowhere near 2^56) — the ring's cache footprint is the
  /// dominant cost of enabled-mode tracing, and a 32-byte aligned slot
  /// both minimises traffic and tiles cache lines exactly (a record()
  /// never dirties two lines). The kind byte's top bit tags a span; its
  /// a/b words then pack origin << 32 | peer and hop << 32 | est_ns.
  static constexpr unsigned kKindShift = 56;
  static constexpr std::uint64_t kRoundMask = (std::uint64_t{1} << 56) - 1;
  static constexpr std::uint64_t kSpanTag = std::uint64_t{1} << 63;
  struct alignas(32) Slot {
    TimeNs t = 0;
    std::uint64_t rk = 0;  ///< [span tag] kind << 56 | round
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  static_assert(sizeof(Slot) == 32);

  void store(std::uint64_t kind_bits, Round r, std::uint64_t a,
             std::uint64_t b) {
    Slot& s = ring_[head_ & mask_];
    s.t = time_src_ ? *time_src_ : 0;
    s.rk = kind_bits | (r & kRoundMask);
    s.a = a;
    s.b = b;
    ++head_;
  }
  /// Seq of the oldest retained slot.
  std::uint64_t first_seq() const { return head_ - size(); }

  std::vector<Slot> ring_;
  std::uint64_t mask_;
  std::uint64_t head_ = 0;
  bool enabled_;
  const TimeNs* time_src_ = nullptr;
};

/// Auto-dump entry point for invariant trips: writes one dump per
/// recorder, labelled `node<id>`. If the environment variable
/// ALLCONCUR_FLIGHT_DIR is set, the events go to
/// `<dir>/flight_<reason>_<label>.jsonl` and, when the ring holds spans,
/// the spans to `<dir>/trace_<reason>_<label>.jsonl` (the directory is
/// created if missing — CI uploads it as a failure artifact and merges
/// the trace files with tools/allconcur_trace --in); otherwise, and
/// additionally for the tail of each timeline, they go to stderr.
/// Returns the file paths written (empty when dumping to stderr only).
std::vector<std::string> dump_on_trip(
    const std::string& reason,
    const std::vector<std::pair<NodeId, const FlightRecorder*>>& nodes);

}  // namespace allconcur::obs
