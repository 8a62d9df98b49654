#include "core/message.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "core/crc32c.hpp"

namespace allconcur::core {

Message Message::bcast(Round r, NodeId origin, Payload p) {
  Message m;
  m.type = MsgType::kBroadcast;
  m.round = r;
  m.origin = origin;
  m.payload_bytes = payload_size(p);
  m.payload = std::move(p);
  return m;
}

Message Message::bcast_sized(Round r, NodeId origin, std::uint64_t bytes) {
  Message m;
  m.type = MsgType::kBroadcast;
  m.round = r;
  m.origin = origin;
  m.payload_bytes = bytes;
  return m;
}

Message Message::ubcast(Round r, NodeId origin, Payload p,
                        std::uint64_t bytes) {
  if (p) {
    ALLCONCUR_ASSERT(p->size() == bytes, "payload size mismatch");
  }
  Message m;
  m.type = MsgType::kUBcast;
  m.round = r;
  m.origin = origin;
  m.payload_bytes = bytes;
  m.payload = std::move(p);
  return m;
}

Message Message::fallback(Round r, NodeId initiator, std::uint32_t attempt) {
  Message m;
  m.type = MsgType::kFallback;
  m.round = r;
  m.origin = initiator;
  m.detector = attempt;
  return m;
}

Message Message::fail(Round r, NodeId suspected, NodeId detector) {
  Message m;
  m.type = MsgType::kFail;
  m.round = r;
  m.origin = suspected;
  m.detector = detector;
  return m;
}

Message Message::fwd(Round r, NodeId origin) {
  Message m;
  m.type = MsgType::kFwd;
  m.round = r;
  m.origin = origin;
  return m;
}

Message Message::bwd(Round r, NodeId origin) {
  Message m;
  m.type = MsgType::kBwd;
  m.round = r;
  m.origin = origin;
  return m;
}

Message Message::heartbeat(NodeId origin) {
  Message m;
  m.type = MsgType::kHeartbeat;
  m.origin = origin;
  return m;
}

namespace {

// Little-endian header layout (32 bytes):
//   [0]  u8  type
//   [1]  u8  trace context (Message::trace)
//   [2]  u16 magic (Message::kFrameMagic)
//   [4]  u32 origin
//   [8]  u32 detector
//   [12] u32 payload length
//   [16] u64 round
//   [24] u32 CRC32C over the payload bytes
//   [28] u32 CRC32C over header bytes [0, 28)
// The header checksum seals the length field, so a parser never waits on
// a corrupted length; the payload checksum then guards the body without
// re-reading the header. CRC32C detects every burst error of 32 bits or
// fewer in the bytes it covers — in particular every single-byte flip.
template <typename T>
void put(std::uint8_t* out, std::size_t offset, T value) {
  std::memcpy(out + offset, &value, sizeof(T));
}

template <typename T>
T get(std::span<const std::uint8_t> in, std::size_t offset) {
  T value;
  std::memcpy(&value, in.data() + offset, sizeof(T));
  return value;
}

/// Checksum of the message's payload, which may be shared bytes or a
/// declared-length zero run (size-only). Shared bytes are summed once: the
/// result is cached on them for every later frame over the same payload.
/// Send side only — decode() never consults the cache.
std::uint32_t payload_checksum(const Payload& payload,
                               std::uint64_t payload_bytes) {
  if (payload && !payload->empty()) {
    if (const auto cached = payload->cached_checksum()) return *cached;
    const std::uint32_t sum = crc32c(0, payload->data(), payload->size());
    payload->cache_checksum(sum);
    return sum;
  }
  return crc32c_zeros(0, payload_bytes);
}

std::uint32_t header_checksum(const std::uint8_t* header) {
  return crc32c(0, header, Message::kHeaderSumOffset);
}

void encode_header(const Message& m, std::uint8_t* out) {
  ALLCONCUR_ASSERT(m.payload_bytes <= Message::kMaxPayloadBytes,
                   "payload exceeds the 32-bit wire length field");
  put<std::uint8_t>(out, 0, static_cast<std::uint8_t>(m.type));
  put<std::uint8_t>(out, 1, m.trace);
  put<std::uint16_t>(out, 2, Message::kFrameMagic);
  put<std::uint32_t>(out, 4, m.origin);
  put<std::uint32_t>(out, 8, m.detector);
  put<std::uint32_t>(out, 12, static_cast<std::uint32_t>(m.payload_bytes));
  put<std::uint64_t>(out, 16, m.round);
  put<std::uint32_t>(out, Message::kPayloadSumOffset,
                     payload_checksum(m.payload, m.payload_bytes));
  put<std::uint32_t>(out, Message::kHeaderSumOffset, header_checksum(out));
}

/// Parses header fields only; nullopt on an unknown type tag or a missing
/// framing magic.
std::optional<Message> decode_header(std::span<const std::uint8_t> bytes) {
  Message m;
  const auto raw_type = get<std::uint8_t>(bytes, 0);
  if (raw_type < 1 || raw_type > 7) return std::nullopt;
  if (get<std::uint16_t>(bytes, 2) != Message::kFrameMagic) return std::nullopt;
  m.type = static_cast<MsgType>(raw_type);
  m.trace = get<std::uint8_t>(bytes, 1);
  m.origin = get<std::uint32_t>(bytes, 4);
  m.detector = get<std::uint32_t>(bytes, 8);
  m.payload_bytes = get<std::uint32_t>(bytes, 12);
  m.round = get<std::uint64_t>(bytes, 16);
  return m;
}

/// Is `bytes` (>= kHeaderBytes) a verified frame header? Cheap field
/// rejects first, then the header checksum — which seals the length field,
/// so a parser that accepts this header may safely wait for (or skip)
/// exactly the declared payload.
bool header_plausible(std::span<const std::uint8_t> bytes) {
  const auto raw_type = get<std::uint8_t>(bytes, 0);
  if (raw_type < 1 || raw_type > 7) return false;
  if (get<std::uint16_t>(bytes, 2) != Message::kFrameMagic) return false;
  if (get<std::uint32_t>(bytes, 12) > kMaxStreamPayloadBytes) return false;
  return header_checksum(bytes.data()) ==
         get<std::uint32_t>(bytes, Message::kHeaderSumOffset);
}

/// Same test on an incomplete header tail: checks only the fields that
/// have arrived, so a genuine frame split across reads is never discarded.
bool header_prefix_plausible(std::span<const std::uint8_t> bytes) {
  if (!bytes.empty() && (bytes[0] < 1 || bytes[0] > 7)) return false;
  if (bytes.size() >= 4 &&
      get<std::uint16_t>(bytes, 2) != Message::kFrameMagic) {
    return false;
  }
  if (bytes.size() >= 16 &&
      get<std::uint32_t>(bytes, 12) > kMaxStreamPayloadBytes) {
    return false;
  }
  return true;
}

/// Scans forward from `from` for the next offset that could start a frame
/// (full header plausible, or a plausible prefix at the buffer tail).
std::size_t resync_scan(std::span<const std::uint8_t> buf, std::size_t from) {
  for (std::size_t p = from; p < buf.size(); ++p) {
    const std::size_t avail = buf.size() - p;
    if (avail >= Message::kHeaderBytes) {
      if (header_plausible({buf.data() + p, Message::kHeaderBytes})) return p;
    } else {
      if (header_prefix_plausible({buf.data() + p, avail})) return p;
    }
  }
  return buf.size();
}

}  // namespace

FrameRef Frame::make(Message m) {
  if (m.payload) {
    ALLCONCUR_ASSERT(m.payload->size() == m.payload_bytes,
                     "payload size mismatch");
  }
  auto frame = std::make_shared<Frame>(MakeTag{});
  encode_header(m, frame->header_.data());
  frame->msg_ = std::move(m);
  return frame;
}

const Payload& Frame::wire_payload() const {
  if (msg_.payload) return msg_.payload;
  if (!wire_payload_ && msg_.payload_bytes > 0) {
    wire_payload_ = make_payload(
        std::vector<std::uint8_t>(msg_.payload_bytes, 0));
  }
  return wire_payload_;
}

FrameRef Frame::corrupt_copy(const Frame& f, std::uint64_t index) {
  auto copy = std::make_shared<Frame>(MakeTag{});
  copy->msg_ = f.msg_;
  copy->header_ = f.header_;
  const std::size_t at =
      static_cast<std::size_t>(index % static_cast<std::uint64_t>(f.wire_size()));
  if (at < Message::kHeaderBytes) {
    copy->header_[at] ^= 0xff;
    return copy;
  }
  // Payload flip needs private bytes — the original payload is shared with
  // every other successor's queue (size-only payloads materialize here).
  const Payload& src = f.wire_payload();
  std::vector<std::uint8_t> bytes(*src);
  bytes[at - Message::kHeaderBytes] ^= 0xff;
  copy->msg_.payload = make_payload(std::move(bytes));
  return copy;
}

std::vector<std::uint8_t> Frame::to_bytes() const {
  std::vector<std::uint8_t> out(wire_size());
  std::memcpy(out.data(), header_.data(), header_.size());
  const Payload& p = wire_payload();
  if (p && !p->empty()) {
    std::memcpy(out.data() + header_.size(), p->data(), p->size());
  }
  return out;
}

std::vector<std::uint8_t> encode(const Message& m) {
  ALLCONCUR_ASSERT(m.payload_bytes <= Message::kMaxPayloadBytes,
                   "payload exceeds the 32-bit wire length field");
  std::vector<std::uint8_t> out(Message::kHeaderBytes + m.payload_bytes, 0);
  encode_header(m, out.data());
  if (m.payload) {
    ALLCONCUR_ASSERT(m.payload->size() == m.payload_bytes,
                     "payload size mismatch");
    // Guard empty payloads: memcpy from a null data() is UB even for 0.
    if (!m.payload->empty()) {
      std::memcpy(out.data() + Message::kHeaderBytes, m.payload->data(),
                  m.payload->size());
    }
  }
  return out;
}

std::optional<std::size_t> frame_size(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < Message::kHeaderBytes) return std::nullopt;
  return Message::kHeaderBytes + get<std::uint32_t>(bytes, 12);
}

std::optional<Message> decode(std::span<const std::uint8_t> bytes) {
  const auto frame = frame_size(bytes);
  if (!frame || bytes.size() < *frame) return std::nullopt;
  auto m = decode_header(bytes);
  if (!m) return std::nullopt;
  if (header_checksum(bytes.data()) !=
      get<std::uint32_t>(bytes, Message::kHeaderSumOffset)) {
    return std::nullopt;  // torn header: none of the fields are trustworthy
  }
  // Always recomputed from the received bytes: a cached sum belongs to
  // the sender's copy and proves nothing about what arrived.
  const std::uint32_t body =
      crc32c(0, bytes.data() + Message::kHeaderBytes, m->payload_bytes);
  if (body != get<std::uint32_t>(bytes, Message::kPayloadSumOffset)) {
    return std::nullopt;  // corrupted payload: never deliver it
  }
  if (m->payload_bytes > 0) {
    m->payload = make_payload(std::vector<std::uint8_t>(
        bytes.begin() + Message::kHeaderBytes,
        bytes.begin() + static_cast<std::ptrdiff_t>(*frame)));
    // The copy holds exactly the verified bytes, so relays of it reuse
    // the sum just computed.
    m->payload->cache_checksum(body);
  }
  return m;
}

std::optional<Message> decode(const Frame& frame) {
  auto m = decode_header(frame.header());
  if (!m) return std::nullopt;
  if (m->payload_bytes > 0) {
    const Payload& p = frame.wire_payload();
    if (!p || p->size() != m->payload_bytes) return std::nullopt;
    m->payload = p;  // borrow: shares the frame's bytes, no copy
  }
  return m;
}

std::size_t parse_stream(std::span<const std::uint8_t> buf, std::size_t start,
                         StreamStats& stats,
                         const std::function<void(const Message&)>& sink) {
  std::size_t at = start;
  while (at < buf.size()) {
    const std::size_t avail = buf.size() - at;
    if (avail < Message::kHeaderBytes) {
      // Incomplete header: keep a consistent prefix for the next read,
      // skip garbage now.
      if (header_prefix_plausible({buf.data() + at, avail})) break;
      ++stats.corrupt_drops;
      ++stats.resyncs;
      at = resync_scan(buf, at + 1);
      continue;
    }
    if (!header_plausible({buf.data() + at, Message::kHeaderBytes})) {
      ++stats.corrupt_drops;
      ++stats.resyncs;
      at = resync_scan(buf, at + 1);
      continue;
    }
    const std::size_t need =
        Message::kHeaderBytes + get<std::uint32_t>({buf.data() + at, avail}, 12);
    if (avail < need) break;  // header verified: safe to wait for the rest
    const auto msg = decode(std::span(buf.data() + at, need));
    if (!msg) {
      // The header checksum already passed, so this is payload corruption
      // and the declared frame boundary is trustworthy: drop the frame and
      // step over exactly its bytes — no resync scan needed.
      ++stats.corrupt_drops;
      at += need;
      continue;
    }
    ++stats.frames;
    sink(*msg);
    at += need;
  }
  return at;
}

}  // namespace allconcur::core
