// Request batching (§5: "requests are buffered until the current agreement
// round is completed; then, they are packed into a message that is
// A-broadcast in the next round").
//
// A batch is the payload of one ⟨BCAST⟩ message. Besides opaque client
// requests it can carry membership control requests: joins and leaves are
// agreed upon via atomic broadcast itself (§3, "Initial bootstrap and
// dynamic membership"), so they ride in the same batches.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/types.hpp"

namespace allconcur::core {

struct Request {
  enum class Kind : std::uint8_t {
    kData = 0,   ///< opaque client request
    kJoin = 1,   ///< admit `subject` to the membership from the next round
    kLeave = 2,  ///< remove `subject` from the next round on
  };
  Kind kind = Kind::kData;
  NodeId subject = kInvalidNode;   ///< join/leave only
  std::vector<std::uint8_t> data;  ///< data only

  static Request of_data(std::vector<std::uint8_t> bytes);
  static Request join(NodeId subject);
  static Request leave(NodeId subject);
};

/// Per-request framing overhead of the batch wire layout
/// ([u8 kind][u32 subject][u32 len] before the data bytes) — shared by the
/// codec below and by Engine::pending_bytes' backlog accounting.
inline constexpr std::size_t kRequestHeaderBytes = 9;

/// Serializes requests into one payload. Empty input yields a null payload
/// (the paper's "empty message").
Payload pack_batch(const std::vector<Request>& requests);

/// True iff `bytes` is a well-formed batch: every request header is whole,
/// every kind is known, and every data length stays inside the bytes.
bool batch_well_formed(std::span<const std::uint8_t> bytes);

/// The one batch walker. Validates the whole batch first and then calls
/// fn(kind, subject, data) for each request in order, where `data` views
/// the request's bytes inside the payload (empty for joins and leaves;
/// valid while the payload lives). Returns false, having called nothing, on
/// malformed bytes: a batch is accepted or rejected atomically. A null
/// payload is an empty batch.
template <typename Fn>
bool for_each_request(const Payload& payload, Fn&& fn) {
  if (!payload) return true;
  const std::span<const std::uint8_t> bytes(*payload);
  if (!batch_well_formed(bytes)) return false;
  for (std::size_t at = 0; at < bytes.size();) {
    std::uint32_t subject, len;
    std::memcpy(&subject, bytes.data() + at + 1, 4);
    std::memcpy(&len, bytes.data() + at + 5, 4);
    fn(static_cast<Request::Kind>(bytes[at]), NodeId{subject},
       bytes.subspan(at + kRequestHeaderBytes, len));
    at += kRequestHeaderBytes + len;
  }
  return true;
}

/// Parses a batch payload into owned requests; nullopt on malformed bytes.
/// A null payload is an empty batch. Copies every request: hot paths walk
/// the batch in place with for_each_request instead.
std::optional<std::vector<Request>> unpack_batch(const Payload& payload);

/// Walks only the membership-control entries (joins/leaves) of a batch,
/// skipping over data requests without copying their bytes — the engine
/// runs this on every delivery, so it must not materialize the batch.
/// Returns false (emitting nothing) on malformed bytes; a null payload is
/// an empty batch.
bool scan_membership(
    const Payload& payload,
    const std::function<void(Request::Kind kind, NodeId subject)>& fn);

}  // namespace allconcur::core
