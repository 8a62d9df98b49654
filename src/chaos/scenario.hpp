// Adversarial scenario engine: composable, seeded fault injection.
//
// AllConcur's correctness argument (early termination via tracking
// digraphs, §3) and the companion safety proof are stated over adversarial
// schedules, not just clean crashes. chaos::Scenario is a declarative
// timeline of fault phases — partitions/heals, asymmetric and flapping
// links, probabilistic reorder/duplication/corruption, and gray failures
// (slow-but-alive) — and chaos::ScenarioEngine turns it into one verdict
// per outbound frame. It is the one fault-injection mechanism of both
// deployments: api::SimCluster::handle_send and net::TcpNode::queue_frame
// each draw one verdict per frame on the send path, so a committed seed
// replays the identical fault schedule on virtual time and on real
// sockets alike. A gray phase with drop 0 draws no randomness and adds
// exactly its slowdown: that is how a deployment models one slow server.
//
// Determinism: every probabilistic decision is drawn from a per-link
// stream keyed on (seed, src, dst) and advanced exactly once per frame,
// so the n-th frame on a link gets the same verdict regardless of global
// interleaving. Timeline phases are keyed on time *since the engine's
// epoch* (first frame observed, or set_epoch), which aligns sim time and
// the monotonic clock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace allconcur::chaos {

/// Per-frame verdict: what happens to one outbound frame on one link.
struct Action {
  bool drop = false;       ///< lose the frame (partition, link-down, loss)
  bool duplicate = false;  ///< deliver a second, unmodified copy
  bool corrupt = false;    ///< flip one wire byte (checksum must catch it)
  DurationNs delay = 0;    ///< extra latency (gray slowdown, reorder jitter)
  std::uint64_t corrupt_at = 0;  ///< which byte to flip (mod frame size)
};

/// Probabilistic per-link fault knobs active during a phase.
struct LinkFaults {
  double drop = 0.0;       ///< P(lose the frame)
  double duplicate = 0.0;  ///< P(deliver it twice)
  double corrupt = 0.0;    ///< P(flip a byte)
  double reorder = 0.0;    ///< P(add jitter — reorders against other links)
  DurationNs reorder_jitter = 0;  ///< max extra delay when jittered
};

/// A seeded, declarative fault timeline. Builder methods append phases;
/// all intervals are half-open [from, until) in nanoseconds since the
/// engine's epoch. Phases compose: every phase active at a frame's send
/// time contributes to its verdict.
class Scenario {
 public:
  explicit Scenario(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  /// Symmetric partition: frames crossing the group boundary are dropped.
  Scenario& partition(TimeNs from, TimeNs until, std::vector<NodeId> group);
  /// Asymmetric link failure: src -> dst frames are dropped (the reverse
  /// direction is untouched).
  Scenario& link_down(TimeNs from, TimeNs until, NodeId src, NodeId dst);
  /// Flapping link: src -> dst is down during the first half of every
  /// `period`, up during the second half.
  Scenario& flap_link(TimeNs from, TimeNs until, NodeId src, NodeId dst,
                      DurationNs period);
  /// Gray failure: everything `node` sends is delayed by `slowdown` and
  /// dropped with probability `drop` — slow-but-alive, the failure mode
  /// heartbeat detectors are worst at.
  Scenario& gray(TimeNs from, TimeNs until, NodeId node, DurationNs slowdown,
                 double drop = 0.0);
  /// Probabilistic faults on every link.
  Scenario& faults(TimeNs from, TimeNs until, LinkFaults f);
  /// Probabilistic faults on one directed link.
  Scenario& link_faults(TimeNs from, TimeNs until, NodeId src, NodeId dst,
                        LinkFaults f);

  struct Phase {
    enum class Kind { kPartition, kLinkDown, kFlap, kGray, kFaults };
    Kind kind = Kind::kFaults;
    TimeNs from = 0;
    TimeNs until = kTimeNever;
    std::vector<NodeId> group;       ///< kPartition
    NodeId src = kInvalidNode;       ///< link scope (kInvalidNode = any);
                                     ///< kGray: the gray node
    NodeId dst = kInvalidNode;
    DurationNs period = 0;           ///< kFlap
    DurationNs slowdown = 0;         ///< kGray
    LinkFaults faults;               ///< kFaults; kGray uses faults.drop
  };
  const std::vector<Phase>& phases() const { return phases_; }

 private:
  Scenario& add(Phase p);

  std::uint64_t seed_;
  std::vector<Phase> phases_;
};

/// Injection-side counters. The wire checksum counters
/// (TcpNetStats::checksum_drops, SimCluster::corrupt_dropped) are the
/// detection side; the chaos gate asserts injected corruption is always
/// detected — never silently delivered.
struct InjectionStats {
  std::uint64_t frames_seen = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t delayed = 0;
};

/// Evaluates a Scenario frame by frame. Thread-safe: TCP deployments share
/// one engine across per-node event-loop threads.
class ScenarioEngine {
 public:
  explicit ScenarioEngine(Scenario scenario);

  const Scenario& scenario() const { return scenario_; }

  /// Pins t = 0 of the scenario timeline. Unset, the first on_frame call
  /// adopts its `now` as the epoch — correct for both the simulator
  /// (starts near 0) and wall-clock deployments (arbitrary monotonic
  /// origin).
  void set_epoch(TimeNs t0);

  /// One verdict for one outbound frame on (src, dst) at local time `now`.
  /// Deterministic given the call sequence: probabilistic draws come from
  /// the per-link stream and advance once per active faults phase.
  Action on_frame(NodeId src, NodeId dst, TimeNs now);

  InjectionStats stats() const;

  /// Bitmask of scenario phases whose [from, until) interval covers
  /// `now` (bit i = phases()[i]; phases beyond 64 saturate into bit 63).
  /// 0 before the epoch is pinned. Deployments record phase-set changes
  /// into the flight recorder so a dump shows which faults were live
  /// around each round.
  std::uint64_t active_phase_mask(TimeNs now) const;

 private:
  Rng& link_rng(NodeId src, NodeId dst);

  Scenario scenario_;
  mutable std::mutex mutex_;
  std::optional<TimeNs> epoch_;
  std::map<std::pair<NodeId, NodeId>, Rng> links_;
  InjectionStats stats_;
};

using ScenarioEngineRef = std::shared_ptr<ScenarioEngine>;

}  // namespace allconcur::chaos
