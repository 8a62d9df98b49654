// Core protocol type aliases.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace allconcur::core {

/// The bytes of one message payload. Immutable once shared, and shared by
/// every frame, delivery and log entry that carries them (zero-copy: the
/// simulator charges for the bytes, nobody copies them).
///
/// Also holds the payload's wire checksum (core/message.cpp) once the first
/// frame built over these bytes has computed it, so every further frame —
/// fan-out to d successors, relays, re-broadcasts — reuses it instead of
/// re-reading the bytes. Only the sending side reads the cache; a receiver
/// always recomputes the sum from the bytes it received.
class PayloadBytes : public std::vector<std::uint8_t> {
 public:
  explicit PayloadBytes(std::vector<std::uint8_t> bytes)
      : std::vector<std::uint8_t>(std::move(bytes)) {}
  /// A copy carries the bytes but not the cached sum: it may be modified
  /// before it is shared.
  PayloadBytes(const PayloadBytes& other) : std::vector<std::uint8_t>(other) {}

  std::optional<std::uint32_t> cached_checksum() const {
    const std::uint64_t v = checksum_.load(std::memory_order_relaxed);
    if ((v & kCached) == 0) return std::nullopt;
    return static_cast<std::uint32_t>(v);
  }
  /// Relaxed is enough: the bytes never change, so every concurrent first
  /// user computes and stores the same value.
  void cache_checksum(std::uint32_t sum) const {
    checksum_.store(kCached | sum, std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kCached = 1ull << 32;
  mutable std::atomic<std::uint64_t> checksum_{0};
};

/// Immutable message payload, shared across all in-process receivers.
using Payload = std::shared_ptr<const PayloadBytes>;

inline Payload make_payload(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const PayloadBytes>(std::move(bytes));
}

inline std::size_t payload_size(const Payload& p) {
  return p ? p->size() : 0;
}

}  // namespace allconcur::core
