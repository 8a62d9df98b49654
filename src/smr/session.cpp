#include "smr/session.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "smr/wire.hpp"

namespace allconcur::smr {

using wire::get_blob_view;
using wire::get_u32;
using wire::get_u64;

namespace {

std::size_t slot_of(std::uint64_t session, std::size_t mask) {
  // Fibonacci hashing: session ids are often sequential counters.
  return static_cast<std::size_t>((session * 0x9e3779b97f4a7c15ull) >> 32) &
         mask;
}

}  // namespace

std::size_t SessionTable::probe(std::uint64_t session) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = slot_of(session, mask);
  while (index_[i].entry != 0 && index_[i].session != session) {
    i = (i + 1) & mask;
  }
  return i;
}

SessionTable::Entry& SessionTable::add(std::uint64_t session,
                                       std::size_t slot) {
  index_[slot] = Slot{session, static_cast<std::uint32_t>(entries_.size() + 1)};
  Entry& e = entries_.emplace_back();
  e.session = session;
  // Keep the load factor at most one half.
  if (2 * entries_.size() > index_.size()) rebuild_index(2 * index_.size());
  return e;
}

void SessionTable::rebuild_index(std::size_t slots) {
  index_.assign(std::bit_ceil(std::max<std::size_t>(slots, kMinSlots)),
                Slot{});
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    index_[probe(entries_[i].session)] =
        Slot{entries_[i].session, static_cast<std::uint32_t>(i + 1)};
  }
}

const SessionTable::Entry* SessionTable::find(std::uint64_t session) const {
  const Slot& slot = index_[probe(session)];
  return slot.entry == 0 ? nullptr : &entries_[slot.entry - 1];
}

std::vector<std::uint8_t>* SessionTable::admit(std::uint64_t session,
                                               std::uint64_t seq) {
  const std::size_t slot = probe(session);
  Entry* e;
  if (index_[slot].entry != 0) {
    e = &entries_[index_[slot].entry - 1];
    if (seq <= e->last_seq) return nullptr;
  } else {
    e = &add(session, slot);
  }
  e->last_seq = seq;
  return &e->response;
}

std::optional<std::vector<std::uint8_t>> SessionTable::response(
    std::uint64_t session, std::uint64_t seq) const {
  const Entry* e = find(session);
  if (e == nullptr || e->last_seq != seq) return std::nullopt;
  return e->response;
}

// Layout: [u32 count] then per session, in first-seen order,
//   [u64 session][u64 last_seq][u32 response len][response bytes].
std::size_t SessionTable::encoded_size() const {
  std::size_t size = 4;
  for (const Entry& e : entries_) size += 20 + e.response.size();
  return size;
}

void SessionTable::encode_into(std::vector<std::uint8_t>& out) const {
  const std::size_t at = out.size();
  out.resize(at + encoded_size());
  wire::Writer w(out.data() + at);
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const Entry& e : entries_) {
    w.u64(e.session);
    w.u64(e.last_seq);
    w.blob(e.response);
  }
}

bool SessionTable::decode_from(std::span<const std::uint8_t> bytes,
                               std::size_t& at) {
  std::uint32_t count = 0;
  if (!get_u32(bytes, at, count)) return false;
  SessionTable table;
  // Every entry takes at least 20 bytes, which bounds a hostile count.
  const std::size_t expect =
      std::min<std::size_t>(count, (bytes.size() - at) / 20);
  table.entries_.reserve(expect);
  table.rebuild_index(2 * expect);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t session = 0, last_seq = 0;
    std::span<const std::uint8_t> response;
    if (!get_u64(bytes, at, session) || !get_u64(bytes, at, last_seq) ||
        !get_blob_view(bytes, at, response)) {
      return false;
    }
    // Each session has one entry; a repeated id is corruption.
    const std::size_t slot = table.probe(session);
    if (table.index_[slot].entry != 0) return false;
    Entry& e = table.add(session, slot);
    e.last_seq = last_seq;
    e.response.assign(response.begin(), response.end());
  }
  *this = std::move(table);
  return true;
}

std::vector<std::uint8_t> KvSession::issue(const Command& cmd) {
  ++seq_;
  last_envelope_ = encode_envelope(id_, seq_, encode_command(cmd));
  return last_envelope_;
}

}  // namespace allconcur::smr
