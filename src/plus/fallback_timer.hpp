// Deployment-agnostic round watchdog for the dual-digraph fast path.
//
// A fast round has no tracking, so a missing message produces no local
// evidence — only silence. The watchdog turns silence into the fallback
// transition: when the engine's in-progress round has been armed (own
// broadcast out, or any message received) and unchanged for longer than
// the timeout, poll() returns the round to hand to
// Engine::on_round_timeout(). Both deployments drive it — SimCluster from
// a scheduled tick on virtual time, TcpNode from its event-loop wake on
// the monotonic clock — so the stall-detection policy lives in exactly
// one place.
//
// With a flight recorder attached, arming, progress re-arms and fires
// are recorded against the watched round (kTimerArm/kTimerRearm/
// kTimerFire, the fire carrying the observed round age) — a dump then
// answers "why did this round fall back" directly: a fire after silence
// shows one arm and a timeout-aged fire; a gray-failure trickle shows
// the re-arm train hitting the age cap.
#pragma once

#include <cstddef>
#include <optional>

#include "common/types.hpp"
#include "obs/recorder.hpp"

namespace allconcur::plus {

class FallbackTimer {
 public:
  /// `timeout` <= 0 disables the watchdog (poll never fires).
  explicit FallbackTimer(DurationNs timeout) : timeout_(timeout) {}

  DurationNs timeout() const { return timeout_; }
  /// How long progress re-arms can defer the fallback for one round.
  DurationNs max_round_age() const { return 8 * timeout_; }

  /// Observability tap (may be null): owned by the deployment, shared
  /// with its engine so watchdog events interleave with the round
  /// lifecycle they explain.
  void set_recorder(obs::FlightRecorder* rec) { rec_ = rec; }

  /// Reports the engine's current state; returns the round to time out
  /// when it has been stuck-and-armed past the timeout with no progress.
  /// `progress` is the round's monotone activity counter
  /// (Engine::front_round_progress): 0 means unarmed (an idle round is
  /// merely quiet — the deadline starts counting only once the round
  /// arms), and any movement re-arms the deadline, so a legitimately
  /// slow round with traffic still flowing is not timed out. After
  /// firing the deadline re-arms, so a round that stays stuck (e.g. the
  /// fallback traffic itself was lost) fires again a full timeout later
  /// — the engine re-floods the transition on such re-fires.
  ///
  /// Re-arming is bounded by max_round_age: a gray-failed peer that
  /// trickles one frame per timeout would otherwise re-arm the deadline
  /// forever and the round would never fall back. Once the watched round
  /// has been armed for longer than the cap, progress movement no longer
  /// defers the fallback.
  std::optional<Round> poll(Round current, std::size_t progress,
                            TimeNs now) {
    if (timeout_ <= 0) return std::nullopt;
    if (current != watched_ || !started_) {
      watched_ = current;
      progress_ = progress;
      since_ = now;
      armed_at_ = progress > 0 ? now : kTimeNever;
      started_ = true;
      if (rec_ && progress > 0) {
        rec_->record(obs::EventKind::kTimerArm, watched_);
      }
      return std::nullopt;
    }
    if (progress == 0) {
      // Unarmed (idle) round: neither the deadline nor the age run.
      progress_ = progress;
      since_ = now;
      armed_at_ = kTimeNever;
      return std::nullopt;
    }
    if (armed_at_ == kTimeNever) {
      armed_at_ = now;
      if (rec_) rec_->record(obs::EventKind::kTimerArm, watched_);
    }
    const bool aged = now - armed_at_ >= max_round_age();
    if (progress != progress_) {
      progress_ = progress;
      since_ = now;
      if (!aged) {
        if (rec_) {
          rec_->record(obs::EventKind::kTimerRearm, watched_,
                       static_cast<std::uint64_t>(now - armed_at_));
        }
        return std::nullopt;
      }
      // Trickling progress past the age cap no longer buys deferral.
      if (rec_) {
        rec_->record(obs::EventKind::kTimerFire, watched_,
                     static_cast<std::uint64_t>(now - armed_at_), progress);
      }
      armed_at_ = now;  // pace re-fires: restart the age window
      return watched_;
    }
    if (now - since_ < timeout_) return std::nullopt;
    if (rec_) {
      rec_->record(obs::EventKind::kTimerFire, watched_,
                   static_cast<std::uint64_t>(now - armed_at_), progress);
    }
    since_ = now;  // re-arm
    return watched_;
  }

  void reset() { started_ = false; }

 private:
  DurationNs timeout_;
  Round watched_ = 0;
  std::size_t progress_ = 0;
  TimeNs since_ = 0;
  /// When the watched round first showed progress (kTimeNever = unarmed).
  TimeNs armed_at_ = kTimeNever;
  bool started_ = false;
  obs::FlightRecorder* rec_ = nullptr;
};

}  // namespace allconcur::plus
