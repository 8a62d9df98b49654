// Client sessions: exactly-once command application over at-least-once
// submission.
//
// A client that never hears back (its contact node crashed, the response
// was lost) can only safely retry if retries are idempotent. The standard
// SMR construction (Raft §6.3 client interaction, Chubby sessions) tags
// every command with a (session id, sequence number) pair; replicas keep
// a dedup table keyed by session and apply a command only when its seq is
// new, caching the latest response for replay to the retrying client.
//
// The table itself is replicated state: it is driven purely by the agreed
// command stream, so all replicas hold identical tables, and it rides
// inside Replica snapshots so exactly-once survives snapshot/restore.
//
// Entries live in a flat vector in first-seen order (the order in which
// each session's first command was applied), with an open-addressing hash
// index from session id to entry; sessions are never removed, so the index
// needs no deletion. First-seen order is a function of the agreed history,
// so it is the same on every replica, and snapshots are written in it.
// decode_from takes entries in any order: snapshots written before the
// table was flat list sessions by ascending id.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "smr/command.hpp"

namespace allconcur::smr {

// ---------------------------------------------------------------------------
// Replica side: the replicated dedup table
// ---------------------------------------------------------------------------

class SessionTable {
 public:
  struct Entry {
    std::uint64_t session = 0;           ///< client session id
    std::uint64_t last_seq = 0;          ///< highest applied seq
    std::vector<std::uint8_t> response;  ///< response of that command
  };

  /// The table's only write path besides decode_from. Returns nullptr
  /// (recording nothing) when (session, seq) is a duplicate — seq is at
  /// most the session's last applied seq; otherwise records seq as the
  /// session's latest and returns its cached-response buffer, which the
  /// caller overwrites with the command's response. The buffer keeps its
  /// capacity from earlier commands. The pointer is valid until the next
  /// call that adds a session.
  std::vector<std::uint8_t>* admit(std::uint64_t session, std::uint64_t seq);

  /// Cached response for the session's most recent command, if it is
  /// exactly `seq` (older responses are not retained: clients retry only
  /// their latest in-flight command).
  std::optional<std::vector<std::uint8_t>> response(std::uint64_t session,
                                                    std::uint64_t seq) const;

  const Entry* find(std::uint64_t session) const;
  std::size_t size() const { return entries_.size(); }

  /// Deterministic serialization in first-seen order, appended to `out`;
  /// decode consumes from `bytes` at `at` and rejects a session id that
  /// appears twice.
  std::size_t encoded_size() const;
  void encode_into(std::vector<std::uint8_t>& out) const;
  bool decode_from(std::span<const std::uint8_t> bytes, std::size_t& at);

 private:
  /// One index slot: a session id and its entry's position plus one
  /// (0 marks an empty slot, so every id, 0 included, is a valid key).
  struct Slot {
    std::uint64_t session = 0;
    std::uint32_t entry = 0;
  };

  static constexpr std::size_t kMinSlots = 16;

  /// Position of the slot holding `session`, or of the empty slot where
  /// it would go.
  std::size_t probe(std::uint64_t session) const;
  /// Appends an entry for an absent session whose empty slot is `slot`.
  Entry& add(std::uint64_t session, std::size_t slot);
  /// Re-sizes the index to at least `slots` (a power of two) and refills it.
  void rebuild_index(std::size_t slots);

  std::vector<Entry> entries_;
  /// Linear probing over a power-of-two size, at most half full.
  std::vector<Slot> index_ = std::vector<Slot>(kMinSlots);
};

// ---------------------------------------------------------------------------
// Client side: session id + sequence numbering + retry
// ---------------------------------------------------------------------------

/// Issues envelopes for one client session. Session ids must be unique
/// across clients; deployments pick them (the cluster mounts hand out
/// counters — a production system would allocate them through the stream
/// itself or use sufficiently-random 64-bit ids).
class KvSession {
 public:
  explicit KvSession(std::uint64_t id) : id_(id) {}

  std::uint64_t id() const { return id_; }
  /// Sequence number of the most recently issued command (0 = none yet).
  std::uint64_t last_seq() const { return seq_; }

  /// Encodes `cmd` under the next sequence number. The returned bytes go
  /// into core::Request::of_data and may be submitted any number of
  /// times — replicas apply the command exactly once.
  std::vector<std::uint8_t> issue(const Command& cmd);

  /// The most recent envelope again, byte-identical (safe resubmission
  /// after a timeout or contact-node crash). Empty if nothing issued.
  std::vector<std::uint8_t> retry() const { return last_envelope_; }

 private:
  std::uint64_t id_;
  std::uint64_t seq_ = 0;
  std::vector<std::uint8_t> last_envelope_;
};

}  // namespace allconcur::smr
