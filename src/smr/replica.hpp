// Replica: turns the agreed round stream into replicated application
// state.
//
// One Replica mounts one StateMachine on one AllConcur node. Feed it
// every RoundResult the node A-delivers, in order; it walks the round's
// deliveries in the canonical order (RoundResult::deliveries is sorted by
// origin id — the paper's deterministic delivery order), unwraps session
// envelopes, deduplicates via the replicated SessionTable, and applies
// fresh commands to the machine. Non-SMR payloads in the same stream
// (opaque bench traffic, membership control) are ignored.
//
// Applying copies nothing: each batch is walked in place, envelopes and
// commands are views into the agreed payload, and the machine writes its
// response straight into the session's cached-response buffer, whose
// capacity carries over from the session's earlier commands.
//
// Snapshots capture machine state + session table + stream position, so a
// fresh or lagging replica restores and resumes from round `next_round()`
// instead of replaying from round 0 — exactly-once semantics included
// (the dedup table crosses the snapshot boundary).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "smr/session.hpp"
#include "smr/state_machine.hpp"

namespace allconcur::smr {

class Replica {
 public:
  explicit Replica(std::unique_ptr<StateMachine> machine);

  /// Applies one A-delivered round. Rounds must arrive in order: the
  /// result's round must equal next_round() (protocol deliveries are
  /// consecutive; after restore, resume from the snapshot's position).
  void on_round(const core::RoundResult& result);

  /// The first round not yet applied (0 on a fresh replica).
  Round next_round() const { return next_round_; }

  StateMachine& machine() { return *machine_; }
  const StateMachine& machine() const { return *machine_; }
  const SessionTable& sessions() const { return sessions_; }

  /// Cached response for a session's most recent command — how a client
  /// (or its retry) learns the outcome once the command was applied here.
  std::optional<std::vector<std::uint8_t>> response(std::uint64_t session,
                                                    std::uint64_t seq) const {
    return sessions_.response(session, seq);
  }

  /// Divergence digest: the machine's running hash additionally folded
  /// with the stream position, so "same hash" means "same commands, same
  /// rounds".
  std::uint64_t state_hash() const;

  std::uint64_t commands_applied() const { return applied_; }
  /// Commands skipped because their (session, seq) was already applied.
  std::uint64_t duplicates_suppressed() const { return duplicates_; }

  /// Serializes stream position + session table + machine snapshot.
  std::vector<std::uint8_t> snapshot() const;
  /// Restores from snapshot() bytes; false on malformed input (replica
  /// state is unspecified afterwards — discard it).
  bool restore(std::span<const std::uint8_t> bytes);

 private:
  std::unique_ptr<StateMachine> machine_;
  SessionTable sessions_;
  Round next_round_ = 0;
  std::uint64_t applied_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace allconcur::smr
