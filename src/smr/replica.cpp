#include "smr/replica.hpp"

#include "common/assert.hpp"
#include "core/batch.hpp"
#include "smr/wire.hpp"

namespace allconcur::smr {

using wire::get_u32;
using wire::get_u64;

namespace {

// Snapshot framing: a magic prefix guards against feeding a bare
// KvStore snapshot (or garbage) to Replica::restore.
constexpr std::uint32_t kSnapshotMagic = 0x52534d53;  // "SMSR"

}  // namespace

Replica::Replica(std::unique_ptr<StateMachine> machine)
    : machine_(std::move(machine)) {
  ALLCONCUR_ASSERT(machine_ != nullptr, "Replica needs a state machine");
}

void Replica::on_round(const core::RoundResult& result) {
  // With round pipelining the engine *completes* rounds out of order, but
  // A-delivery (and therefore this apply stream) must stay strictly
  // sequential — a skipped or reordered round would silently fork the
  // replicated state. Assert the contract instead of trusting the caller.
  ALLCONCUR_ASSERT(result.round == next_round_,
                   "rounds must be applied consecutively (out-of-order "
                   "delivery from a pipelined engine is a protocol bug)");
  // RoundResult::deliveries is sorted by origin id — the canonical,
  // replica-independent order. Within one delivery, batch order is the
  // origin's submission order, identical everywhere by agreement. Each
  // batch is walked in place and each command applied as a view into the
  // agreed payload; the response lands in the session's cached-response
  // buffer. A size-only, foreign or malformed payload applies nothing.
  for (const core::Delivery& delivery : result.deliveries) {
    core::for_each_request(
        delivery.payload, [this](core::Request::Kind kind, NodeId,
                                 std::span<const std::uint8_t> data) {
          if (kind != core::Request::Kind::kData) return;
          const auto env = decode_envelope(data);
          if (!env) return;  // non-SMR data sharing the stream
          std::vector<std::uint8_t>* response =
              sessions_.admit(env->session, env->seq);
          if (response == nullptr) {
            ++duplicates_;
            return;
          }
          machine_->apply(env->command, *response);
          ++applied_;
        });
  }
  ++next_round_;
}

std::uint64_t Replica::state_hash() const {
  return fnv1a64_u64(machine_->state_hash(), next_round_);
}

std::vector<std::uint8_t> Replica::snapshot() const {
  const auto machine = machine_->snapshot();
  std::vector<std::uint8_t> out(28);
  wire::Writer w(out.data());
  w.u32(kSnapshotMagic);
  w.u64(next_round_);
  w.u64(applied_);
  w.u64(duplicates_);
  out.reserve(out.size() + sessions_.encoded_size() + machine.size());
  sessions_.encode_into(out);
  out.insert(out.end(), machine.begin(), machine.end());
  return out;
}

bool Replica::restore(std::span<const std::uint8_t> bytes) {
  std::size_t at = 0;
  std::uint32_t magic = 0;
  std::uint64_t next_round = 0, applied = 0, duplicates = 0;
  if (!get_u32(bytes, at, magic) || magic != kSnapshotMagic) return false;
  if (!get_u64(bytes, at, next_round) || !get_u64(bytes, at, applied) ||
      !get_u64(bytes, at, duplicates)) {
    return false;
  }
  SessionTable sessions;
  if (!sessions.decode_from(bytes, at)) return false;
  if (!machine_->restore(bytes.subspan(at))) return false;
  sessions_ = std::move(sessions);
  next_round_ = next_round;
  applied_ = applied;
  duplicates_ = duplicates;
  return true;
}

}  // namespace allconcur::smr
