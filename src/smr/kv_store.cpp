#include "smr/kv_store.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string_view>

#include "smr/wire.hpp"

namespace allconcur::smr {

using wire::get_blob_view;
using wire::get_u64;

namespace {

constexpr std::uint64_t kOccupied = 1ull << 63;

std::uint64_t hash_of(std::span<const std::uint8_t> key) {
  return std::hash<std::string_view>{}(
             {reinterpret_cast<const char*>(key.data()), key.size()}) |
         kOccupied;
}

bool equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

}  // namespace

std::size_t KvStore::probe(std::span<const std::uint8_t> key,
                           std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (slots_[i].hash != 0 &&
         !(slots_[i].hash == hash && equal(slots_[i].key, key))) {
    i = (i + 1) & mask;
  }
  return i;
}

const KvStore::Slot* KvStore::find(std::span<const std::uint8_t> key) const {
  const Slot& slot = slots_[probe(key, hash_of(key))];
  return slot.hash == 0 ? nullptr : &slot;
}

void KvStore::insert_at(std::size_t at, std::uint64_t hash,
                        std::span<const std::uint8_t> key,
                        std::span<const std::uint8_t> value) {
  Slot& slot = slots_[at];
  slot.hash = hash;
  slot.key.assign(key.begin(), key.end());
  slot.value.assign(value.begin(), value.end());
  if (2 * ++size_ <= slots_.size()) return;
  std::vector<Slot> old = std::move(slots_);
  slots_ = std::vector<Slot>(2 * old.size());
  const std::size_t mask = slots_.size() - 1;
  for (Slot& s : old) {
    if (s.hash == 0) continue;
    std::size_t i = s.hash & mask;
    while (slots_[i].hash != 0) i = (i + 1) & mask;
    slots_[i] = std::move(s);
  }
}

void KvStore::erase_at(std::size_t at) {
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home slot lies cyclically after the hole.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (at + 1) & mask; slots_[j].hash != 0;
       j = (j + 1) & mask) {
    const std::size_t home = slots_[j].hash & mask;
    if (((j - home) & mask) >= ((j - at) & mask)) {
      slots_[at] = std::move(slots_[j]);
      at = j;
    }
  }
  slots_[at] = Slot{};
  --size_;
}

void KvStore::apply(std::span<const std::uint8_t> command,
                    std::vector<std::uint8_t>& response) {
  // Fold the exact agreed bytes into the divergence hash before anything
  // else: even a malformed command must perturb every replica equally.
  hash_ = fnv1a64(hash_, command);
  ++applied_;
  const auto cmd = decode_command_view(command);
  if (!cmd) {
    encode_response_into(response, KvResponse::Status::kBadCommand, false,
                         {});
    return;
  }
  execute(*cmd, response);
}

void KvStore::execute(const CommandView& cmd,
                      std::vector<std::uint8_t>& response) {
  using Status = KvResponse::Status;
  const std::uint64_t hash = hash_of(cmd.key);
  const std::size_t at = probe(cmd.key, hash);
  Slot& slot = slots_[at];
  const bool found = slot.hash != 0;
  // Stores the command's value under its key; an existing value keeps its
  // capacity, so overwriting a key allocates nothing.
  const auto store = [&] {
    if (found) {
      slot.value.assign(cmd.value.begin(), cmd.value.end());
    } else {
      insert_at(at, hash, cmd.key, cmd.value);
    }
  };
  switch (cmd.op) {
    case Command::Op::kPut:
      store();
      encode_response_into(response, Status::kOk, false, {});
      return;
    case Command::Op::kGet:
      if (found) {
        encode_response_into(response, Status::kOk, true, slot.value);
      } else {
        encode_response_into(response, Status::kNotFound, false, {});
      }
      return;
    case Command::Op::kDelete:
      if (found) erase_at(at);
      encode_response_into(response, found ? Status::kOk : Status::kNotFound,
                           false, {});
      return;
    case Command::Op::kCas: {
      const bool match = cmd.expect_absent
                             ? !found
                             : found && equal(slot.value, cmd.expected);
      if (match) {
        store();
        encode_response_into(response, Status::kOk, false, {});
      } else if (found) {
        // The loser learns the current value.
        encode_response_into(response, Status::kCasFailed, true, slot.value);
      } else {
        encode_response_into(response, Status::kCasFailed, false, {});
      }
      return;
    }
  }
}

std::optional<Bytes> KvStore::get_local(const Bytes& key) const {
  const Slot* slot = find(key);
  if (slot == nullptr) return std::nullopt;
  return slot->value;
}

std::map<Bytes, Bytes> KvStore::contents() const {
  std::map<Bytes, Bytes> out;
  for (const Slot& slot : slots_) {
    if (slot.hash != 0) out.emplace(slot.key, slot.value);
  }
  return out;
}

// Snapshot layout:
//   [u64 hash][u64 applied][u64 entry count]
//   then per entry, in ascending key order: [u32 klen][key][u32 vlen][value]
// Sorting makes snapshots of equal states byte-identical whatever order
// the table holds them in.
std::vector<std::uint8_t> KvStore::snapshot() const {
  // Sorted on each key's first eight bytes, read big-endian and
  // zero-padded, which orders keys as a byte-wise comparison does; only
  // keys that share those bytes are compared in full.
  struct Keyed {
    std::uint64_t prefix;
    const Slot* slot;
  };
  std::vector<Keyed> sorted;
  sorted.reserve(size_);
  std::size_t size = 24;
  for (const Slot& slot : slots_) {
    if (slot.hash == 0) continue;
    std::uint64_t prefix = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      prefix = (prefix << 8) | (i < slot.key.size() ? slot.key[i] : 0);
    }
    sorted.push_back({prefix, &slot});
    size += 8 + slot.key.size() + slot.value.size();
  }
  std::sort(sorted.begin(), sorted.end(), [](const Keyed& a, const Keyed& b) {
    return a.prefix != b.prefix ? a.prefix < b.prefix
                                : a.slot->key < b.slot->key;
  });
  std::vector<std::uint8_t> out(size);
  wire::Writer w(out.data());
  w.u64(hash_);
  w.u64(applied_);
  w.u64(static_cast<std::uint64_t>(size_));
  for (const Keyed& k : sorted) {
    w.blob(k.slot->key);
    w.blob(k.slot->value);
  }
  return out;
}

bool KvStore::restore(std::span<const std::uint8_t> bytes) {
  std::size_t at = 0;
  std::uint64_t hash = 0, applied = 0, count = 0;
  if (!get_u64(bytes, at, hash) || !get_u64(bytes, at, applied) ||
      !get_u64(bytes, at, count)) {
    return false;
  }
  KvStore fresh;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::span<const std::uint8_t> key, value;
    if (!get_blob_view(bytes, at, key) || !get_blob_view(bytes, at, value)) {
      return false;
    }
    const std::uint64_t key_hash = hash_of(key);
    const std::size_t slot = fresh.probe(key, key_hash);
    // A key twice is not a snapshot any state produces.
    if (fresh.slots_[slot].hash != 0) return false;
    fresh.insert_at(slot, key_hash, key, value);
  }
  if (at != bytes.size()) return false;
  fresh.hash_ = hash;
  fresh.applied_ = applied;
  *this = std::move(fresh);
  return true;
}

}  // namespace allconcur::smr
