// State-machine replication over AllConcur (§1: atomic broadcast is the
// substrate of SMR — "all non-faulty servers apply the same sequence of
// updates to their replicated state").
//
// A StateMachine is the deterministic application half of that contract:
// it consumes opaque command bytes in the canonical delivery order and
// must produce identical state and responses on every replica. The
// ordering half (sessions, exactly-once dedup, round iteration) lives in
// smr::Replica, which drives implementations of this interface.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace allconcur::smr {

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Applies one command (already deduplicated and ordered by the caller)
  /// and writes its encoded response into `response`, replacing whatever
  /// the buffer held. The caller hands in a buffer it reuses across
  /// commands (Replica passes the session's cached-response slot), so an
  /// implementation should overwrite it in place — resize, then write —
  /// rather than build and move in a fresh vector; that keeps a steady-state
  /// apply free of allocations. `command` views the agreed payload and is
  /// valid only for the duration of the call: copy what must outlive it.
  /// Must be deterministic: identical command sequences yield identical
  /// states and responses everywhere. Malformed commands must be handled
  /// deterministically too (e.g. an error response), never by aborting —
  /// the bytes were agreed on.
  virtual void apply(std::span<const std::uint8_t> command,
                     std::vector<std::uint8_t>& response) = 0;

  /// Serializes the complete state. Must be deterministic: two replicas
  /// with equal state produce byte-identical snapshots.
  virtual std::vector<std::uint8_t> snapshot() const = 0;

  /// Replaces the state from snapshot() bytes; false on malformed input
  /// (state unspecified afterwards — the caller must discard the machine).
  virtual bool restore(std::span<const std::uint8_t> bytes) = 0;

  /// Cheap running digest of the applied command history. Replicas that
  /// applied the same commands in the same order agree on this value;
  /// any divergence (an ordering or determinism bug) makes it differ.
  virtual std::uint64_t state_hash() const = 0;
};

// FNV-1a, the divergence-guard digest: fast, dependency-free, and good
// enough to make silent replica divergence loud (it is not cryptographic).
inline constexpr std::uint64_t kFnv64Offset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv64Prime = 1099511628211ull;

inline std::uint64_t fnv1a64(std::uint64_t hash,
                             std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= kFnv64Prime;
  }
  return hash;
}

inline std::uint64_t fnv1a64_u64(std::uint64_t hash, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash ^= static_cast<std::uint8_t>(v >> (8 * i));
    hash *= kFnv64Prime;
  }
  return hash;
}

}  // namespace allconcur::smr
