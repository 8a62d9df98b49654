// Replicated key-value store: the repo's first real SMR workload.
//
// A deterministic StateMachine over a hash table of binary-safe keys and
// values, driven by the KV command format of smr/command.hpp. The apply
// path copies nothing it does not keep: the command is decoded as views
// into the agreed payload, lookups hash those views directly (no key is
// built to find an entry), a put to an existing key reuses the stored
// value's capacity, and the response is written into the caller's buffer.
// The table is flat (open addressing, linear probing, each slot holding
// its hash, key and value), so a lookup touches one slot, not a bucket
// and a chain of nodes.
//
// Every applied command (including reads — they are part of the agreed
// stream) is folded into a running FNV-1a state hash, so replicas can
// cheaply assert they never diverged: same commands in the same order ⇒
// same hash, and any ordering or determinism bug flips it loudly.
//
// The table's slot order is not part of the state: snapshot() sorts the
// entries by key, so equal states still give byte-identical snapshots.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "smr/command.hpp"
#include "smr/state_machine.hpp"

namespace allconcur::smr {

class KvStore final : public StateMachine {
 public:
  void apply(std::span<const std::uint8_t> command,
             std::vector<std::uint8_t>& response) override;
  std::vector<std::uint8_t> snapshot() const override;
  bool restore(std::span<const std::uint8_t> bytes) override;
  std::uint64_t state_hash() const override { return hash_; }

  /// Local read, bypassing the agreed stream: reflects everything this
  /// replica has applied (read-your-writes once the client's commands
  /// were applied here; see Replica's read barrier for linearizability).
  std::optional<Bytes> get_local(const Bytes& key) const;
  bool contains(const Bytes& key) const { return find(key) != nullptr; }

  std::size_t size() const { return size_; }
  std::uint64_t commands_applied() const { return applied_; }

  /// A sorted copy of the contents — tests and tools only.
  std::map<Bytes, Bytes> contents() const;

 private:
  struct Slot {
    std::uint64_t hash = 0;  ///< of the key, top bit set; 0 = empty slot
    Bytes key;
    Bytes value;
  };
  static constexpr std::size_t kMinSlots = 16;

  void execute(const CommandView& cmd, std::vector<std::uint8_t>& response);
  /// Position of the slot holding `key` (whose hash is `hash`), or of the
  /// empty slot that ends its probe run.
  std::size_t probe(std::span<const std::uint8_t> key,
                    std::uint64_t hash) const;
  const Slot* find(std::span<const std::uint8_t> key) const;
  /// Fills the empty slot `at` and grows the table past half full.
  void insert_at(std::size_t at, std::uint64_t hash,
                 std::span<const std::uint8_t> key,
                 std::span<const std::uint8_t> value);
  /// Empties slot `at`, shifting back the entries of its probe run.
  void erase_at(std::size_t at);

  /// Linear probing over a power-of-two size, at most half full.
  std::vector<Slot> slots_ = std::vector<Slot>(kMinSlots);
  std::size_t size_ = 0;
  std::uint64_t hash_ = kFnv64Offset;
  std::uint64_t applied_ = 0;
};

}  // namespace allconcur::smr
