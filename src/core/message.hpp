// Wire messages of the AllConcur protocol (§3).
//
// The algorithm distinguishes ⟨BCAST, m_j⟩ and ⟨FAIL, p_j, p_k⟩; iterating
// rounds tags every message with its round R so that (R, p_j) identifies a
// broadcast and (R, p_j, p_k) a failure notification. The ⋄P extension
// (§3.3.2) adds ⟨FWD, p_i⟩ / ⟨BWD, p_i⟩, and the failure detector uses
// heartbeats.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace allconcur::core {

enum class MsgType : std::uint8_t {
  kBroadcast = 1,  ///< ⟨BCAST, m⟩: A-broadcast message, relayed along G_R
  kFail = 2,       ///< ⟨FAIL, p_j, p_k⟩: p_k suspects its predecessor p_j
  kFwd = 3,        ///< ⟨FWD, p_i⟩: ⋄P surviving-partition probe along G
  kBwd = 4,        ///< ⟨BWD, p_i⟩: same along the transpose of G
  kHeartbeat = 5,  ///< FD heartbeat (not round-scoped)
  /// Dual-digraph fast path (AllConcur+): an untracked broadcast relayed
  /// along the unreliable overlay G_U. Identical payload semantics to
  /// kBroadcast; carries no tracking obligations.
  kUBcast = 6,
  /// Dual-digraph fallback trigger: "re-execute round R reliably over
  /// G_R". R-broadcast along G_R; origin is the initiating server.
  kFallback = 7,
};

struct Message {
  MsgType type{MsgType::kHeartbeat};
  Round round = 0;
  /// BCAST: sender(m); FAIL: the suspected server p_j; FWD/BWD: the server
  /// that decided its message set; HB: the heartbeating server.
  NodeId origin = kInvalidNode;
  /// FAIL only: the detecting successor p_k.
  /// Sampled BCAST/UBCAST (trace bit set): repurposed as the cumulative
  /// one-way latency estimate in nanoseconds, saturating — each relay adds
  /// its local per-hop estimate before re-encoding (obs/trace.hpp).
  NodeId detector = kInvalidNode;
  /// Causal-trace context riding header byte 1 (the reserved byte of the
  /// 32-byte dual-checksum layout, previously written as zero and never
  /// read). Bit 7: this broadcast is trace-sampled; bits 0..6: hop count,
  /// incremented at every relay, saturating at 127 (diameters are
  /// O(log n), so 7 bits never saturate in practice). Zero for unsampled
  /// traffic, so the wire image of a non-traced frame is unchanged.
  std::uint8_t trace = 0;
  /// BCAST only; may be null together with payload_bytes > 0 for
  /// "size-only" payloads used by throughput benches.
  Payload payload;
  std::uint64_t payload_bytes = 0;

  /// Serialized header size (see message.cpp for the layout). The header
  /// ends with two CRC32C checksums (core/crc32c.hpp): one over the payload
  /// bytes and one over the header itself. Each detects every burst error
  /// of 32 bits or fewer in what it covers, so every single-byte flip.
  /// Splitting them lets a stream parser validate the length field
  /// *before* waiting for the payload — a corrupted length can otherwise
  /// stall a connection indefinitely — and lets a payload-corrupt frame be
  /// skipped by its (now trusted) declared length instead of a blind
  /// resync scan.
  static constexpr std::size_t kHeaderBytes = 32;
  /// Offset of the payload checksum (CRC32C over the payload bytes; 0 when
  /// the frame carries none). Computed once per payload and cached on its
  /// shared bytes (PayloadBytes), never read from a cache when verifying.
  static constexpr std::size_t kPayloadSumOffset = 24;
  /// Offset of the header checksum; also the number of header bytes it
  /// covers (everything before it, payload checksum included).
  static constexpr std::size_t kHeaderSumOffset = 28;
  /// Framing magic at header offset 2. Besides rejecting foreign traffic,
  /// it is the anchor the stream parser scans for when resynchronizing
  /// after a torn frame.
  static constexpr std::uint16_t kFrameMagic = 0xAC17;
  /// Wire limit: the payload length field is 32 bits. encode() asserts
  /// this rather than silently truncating the frame length.
  static constexpr std::uint64_t kMaxPayloadBytes = 0xffffffffull;
  std::size_t wire_size() const { return kHeaderBytes + payload_bytes; }

  /// Trace-context accessors over the `trace` byte.
  static constexpr std::uint8_t kTraceSampled = 0x80;
  static constexpr std::uint8_t kTraceHopMask = 0x7f;
  bool trace_sampled() const { return (trace & kTraceSampled) != 0; }
  std::uint8_t trace_hop() const { return trace & kTraceHopMask; }
  /// Context for a freshly sampled origin broadcast: sampled, hop 0.
  static constexpr std::uint8_t trace_origin_context() {
    return kTraceSampled;
  }
  /// Context for relaying `t` one hop further (saturating hop count).
  static constexpr std::uint8_t trace_relay_context(std::uint8_t t) {
    const std::uint8_t hop = t & kTraceHopMask;
    return static_cast<std::uint8_t>(
        (t & kTraceSampled) | (hop == kTraceHopMask ? hop : hop + 1));
  }

  static Message bcast(Round r, NodeId origin, Payload p);
  /// Size-only broadcast: carries no bytes but is charged for them.
  static Message bcast_sized(Round r, NodeId origin, std::uint64_t bytes);
  /// Fast-path broadcast over G_U (dual-digraph mode); payload semantics
  /// identical to bcast, p may be null with bytes > 0 for size-only load.
  static Message ubcast(Round r, NodeId origin, Payload p,
                        std::uint64_t bytes);
  /// Fallback trigger for round r (dual-digraph mode). `attempt` rides in
  /// the detector field: 0 for the initial trigger, incremented on every
  /// watchdog re-fire so re-floods penetrate the receivers' per-round
  /// dedup (a lost transition must be recoverable).
  static Message fallback(Round r, NodeId initiator,
                          std::uint32_t attempt = 0);
  static Message fail(Round r, NodeId suspected, NodeId detector);
  static Message fwd(Round r, NodeId origin);
  static Message bwd(Round r, NodeId origin);
  static Message heartbeat(NodeId origin);
};

class Frame;
/// Shared handle to one encoded message: every successor a frame is queued
/// to holds a reference to the *same* bytes.
using FrameRef = std::shared_ptr<const Frame>;

/// One protocol message bound to its encode-once wire image.
///
/// AllConcur relays every message along the overlay, so the per-hop cost of
/// serialization is multiplied by the out-degree. A Frame serializes the
/// header block exactly once, at construction, and shares the payload bytes
/// with the Message — they are never copied, no matter how many peers the
/// frame is queued to. Transports scatter/gather straight from the two
/// blocks (header(), wire_payload()) with vectored writes; in-process
/// harnesses read the decoded form through msg().
class Frame {
  struct MakeTag {};  // gates construction to make() while allowing
                      // make_shared's single allocation

 public:
  explicit Frame(MakeTag) {}

  /// Builds the frame for `m`, serializing the header. O(kHeaderBytes):
  /// the payload is shared, not copied; one heap allocation total.
  static FrameRef make(Message m);

  const Message& msg() const { return msg_; }
  std::span<const std::uint8_t> header() const {
    return {header_.data(), header_.size()};
  }
  /// Payload block as it goes on the wire. Size-only messages (payload
  /// null, payload_bytes > 0) materialize their zero bytes lazily here, so
  /// simulation-only traffic never pays for them. Null iff the message
  /// carries no payload bytes. Not thread-safe: frames are built and
  /// flushed on one node's event loop.
  const Payload& wire_payload() const;
  std::size_t payload_size() const { return msg_.payload_bytes; }
  std::size_t wire_size() const { return msg_.wire_size(); }

  /// Contiguous copy of the whole frame (tests and non-vectored callers).
  std::vector<std::uint8_t> to_bytes() const;

  /// Chaos-injection helper: a deep copy of `f` with the wire byte at
  /// `index % wire_size()` flipped. The checksum is NOT recomputed — the
  /// receiving parser must detect the damage and drop the frame. A flipped
  /// payload gets fresh bytes with no cached sum.
  static FrameRef corrupt_copy(const Frame& f, std::uint64_t index);

 private:
  Message msg_;
  std::array<std::uint8_t, Message::kHeaderBytes> header_{};
  mutable Payload wire_payload_;  // lazily materialized for size-only
};

/// Serializes for the TCP transport. Size-only payloads are materialized
/// as zero bytes of the declared length.
std::vector<std::uint8_t> encode(const Message& m);

/// Parses one message; nullopt on malformed/truncated input or a checksum
/// mismatch. The payload (if any) is copied out of `bytes` into a fresh
/// shared buffer — the one copy a reused receive buffer forces; everything
/// downstream shares it.
std::optional<Message> decode(std::span<const std::uint8_t> bytes);

/// Borrow-decode: parses the frame's header block and *shares* its payload
/// with the returned Message — zero byte copies. Frames are built
/// in-process, so this trusted path skips checksum verification.
std::optional<Message> decode(const Frame& frame);

/// Frame length for a buffer starting with a header (nullopt if the header
/// is incomplete).
std::optional<std::size_t> frame_size(std::span<const std::uint8_t> bytes);

/// Cap on the payload length the *stream* parser accepts. A corrupted
/// 32-bit length field can otherwise declare gigabytes and stall the
/// connection waiting for bytes that will never come; anything above this
/// is treated as a torn header (resync), not a frame to wait for.
inline constexpr std::uint64_t kMaxStreamPayloadBytes = 64ull << 20;

/// Receive-side counters of the stream parser — the detection half of the
/// fault-injection story (chaos counts what it injects; these count what
/// the wire caught).
struct StreamStats {
  std::uint64_t frames = 0;         ///< verified frames handed to the sink
  std::uint64_t corrupt_drops = 0;  ///< torn frames: bad magic/type/length/checksum
  std::uint64_t resyncs = 0;        ///< forward scans to the next plausible header
};

/// Incremental parse of a length-prefixed byte stream with checksum
/// verification and torn-frame resync: verified frames are handed to
/// `sink` in order. A torn header (bad magic/type/length or header
/// checksum) triggers a forward scan for the next checksum-verified
/// header; a corrupted payload is skipped by its (header-sealed) declared
/// length. Either way the connection survives instead of desyncing or
/// aborting. Returns the new consume offset; bytes past it form an
/// incomplete (but plausible) tail the caller must retain for the next
/// read.
std::size_t parse_stream(std::span<const std::uint8_t> buf, std::size_t start,
                         StreamStats& stats,
                         const std::function<void(const Message&)>& sink);

}  // namespace allconcur::core
