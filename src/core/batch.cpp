#include "core/batch.hpp"

#include <cstring>

namespace allconcur::core {

Request Request::of_data(std::vector<std::uint8_t> bytes) {
  Request r;
  r.kind = Kind::kData;
  r.data = std::move(bytes);
  return r;
}

Request Request::join(NodeId subject) {
  Request r;
  r.kind = Kind::kJoin;
  r.subject = subject;
  return r;
}

Request Request::leave(NodeId subject) {
  Request r;
  r.kind = Kind::kLeave;
  r.subject = subject;
  return r;
}

// Batch layout: per request [u8 kind][u32 subject][u32 len][len bytes].
Payload pack_batch(const std::vector<Request>& requests) {
  if (requests.empty()) return nullptr;
  std::size_t total = 0;
  for (const Request& r : requests) total += kRequestHeaderBytes + r.data.size();
  std::vector<std::uint8_t> out(total);
  std::size_t at = 0;
  for (const Request& r : requests) {
    out[at] = static_cast<std::uint8_t>(r.kind);
    const std::uint32_t subject = r.subject;
    std::memcpy(out.data() + at + 1, &subject, 4);
    const std::uint32_t len = static_cast<std::uint32_t>(r.data.size());
    std::memcpy(out.data() + at + 5, &len, 4);
    // Guard empty requests: memcpy from a null data() is UB even for 0.
    if (!r.data.empty()) {
      std::memcpy(out.data() + at + kRequestHeaderBytes, r.data.data(),
                  r.data.size());
    }
    at += kRequestHeaderBytes + r.data.size();
  }
  return make_payload(std::move(out));
}

bool batch_well_formed(std::span<const std::uint8_t> bytes) {
  for (std::size_t at = 0; at < bytes.size();) {
    if (at + kRequestHeaderBytes > bytes.size() || bytes[at] > 2) return false;
    std::uint32_t len;
    std::memcpy(&len, bytes.data() + at + 5, 4);
    if (at + kRequestHeaderBytes + len > bytes.size()) return false;
    at += kRequestHeaderBytes + len;
  }
  return true;
}

bool scan_membership(
    const Payload& payload,
    const std::function<void(Request::Kind kind, NodeId subject)>& fn) {
  return for_each_request(
      payload, [&](Request::Kind kind, NodeId subject,
                   std::span<const std::uint8_t>) {
        if (kind != Request::Kind::kData) fn(kind, subject);
      });
}

std::optional<std::vector<Request>> unpack_batch(const Payload& payload) {
  std::vector<Request> out;
  const bool ok = for_each_request(
      payload, [&](Request::Kind kind, NodeId subject,
                   std::span<const std::uint8_t> data) {
        Request& r = out.emplace_back();
        r.kind = kind;
        r.subject = subject;
        r.data.assign(data.begin(), data.end());
      });
  if (!ok) return std::nullopt;
  return out;
}

}  // namespace allconcur::core
