// Shared plumbing of the repository benchmark: clocks, sample statistics,
// the result record every workload fills, and the layer-replay entry points
// (layers.cpp) the traced runs call after a workload finished.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "net/tcp_transport.hpp"
#include "obs/recorder.hpp"
#include "perfbench_params.hpp"  // generated from perfbench/workloads.json
#include "smr/command.hpp"

namespace perfbench {

using allconcur::NodeId;
using allconcur::Round;

/// Monotonic nanoseconds on the same clock TcpNode stamps its flight
/// recorder with (steady_clock since its epoch).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleeps until the steady clock reads `t` (returns at once if past). The
/// calling thread's timer slack is set to 1 ns on first use, so short
/// sleeps are not stretched by the kernel's default 50 us slack.
void sleep_until_ns(std::int64_t t);

/// Placement of a TCP workload's threads: node event loop i runs on the
/// i-th CPU the process may use, the generator on the next one, so every
/// run places its four busy threads on four CPUs the same way rather than
/// wherever the scheduler happens to put them. Threads inherit the creating
/// thread's CPU set, so a node is pinned by pinning the caller around its
/// start(). Does nothing when fewer CPUs than `slot + 1` are available.
void pin_current_thread(std::size_t slot);
/// Undoes pin_current_thread for the calling thread.
void unpin_current_thread();
/// CPUs the process may use (the slots pin_current_thread counts).
std::size_t cpu_slots();

/// Process user+sys CPU seconds (every thread of the process).
double cpu_seconds();

/// Heap allocations made by the whole process (operator new is replaced
/// in main.cpp). Only meaningful around single-threaded code.
std::uint64_t allocations();

/// Linear-interpolated quantile; sorts `v` in place. 0 for an empty set.
double quantile(std::vector<double>& v, double q);
double mean(const std::vector<double>& v);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value
};

/// Everything one workload run reports.
struct Result {
  std::vector<std::string> failures;  ///< failed correctness checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< errors plus deadline misses
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Per-layer metrics this workload cannot measure (reported as 0 in the
  /// result JSON), with the reason.
  struct Unmeasured {
    std::string name, unit, why;
  };
  std::vector<Unmeasured> unmeasured;
  /// Context printed with the run: parameters, honesty figures, model
  /// predictions.
  std::vector<std::string> notes;

  bool correct() const { return failures.empty(); }
  void fail(std::string why) { failures.push_back(std::move(why)); }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
  void e2e(std::string name, double v, std::string unit, std::uint64_t n) {
    end_to_end.push_back({std::move(name), v, std::move(unit), n});
  }
  void layer(std::string name, double v, std::string unit, std::uint64_t n) {
    per_layer.push_back({std::move(name), v, std::move(unit), n});
  }
  void not_measured(std::string name, std::string unit, std::string why) {
    unmeasured.push_back({std::move(name), std::move(unit), std::move(why)});
  }
};

/// The command line. Everything else a workload uses is a compile-time
/// constant of perfbench::params (perfbench/workloads.json).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Result run_bcast_tcp(const Args& args);
Result run_kv_tcp(const Args& args);
Result run_kv_sim(const Args& args);

/// The KV workloads' command mix: 50% put of a `value_bytes` random
/// value, 50% get, over `keys` uniform keys.
allconcur::smr::Command next_command(allconcur::Rng& rng, std::size_t keys,
                                     std::size_t value_bytes);

/// First of `n` consecutive loopback ports that are all bindable now,
/// searched from a seed-dependent start (keeps concurrent runs apart).
std::uint16_t pick_base_port(std::uint64_t seed, std::size_t n);

// ---------------------------------------------------------------------------
// Wall-clock end-to-end figures of the TCP workloads. Latency percentiles
// are taken over each cluster lifetime's pooled ops; throughput and CPU per
// op over sub-windows of the measured window, so a burst of CPU steal
// spoils one sub-window, not the run.
// ---------------------------------------------------------------------------

/// (time, process CPU seconds) marks at sub-window boundaries, taken by the
/// generator thread as it runs.
class WindowMarks {
 public:
  void start(std::int64_t now, std::int64_t width) {
    width_ = width;
    next_ = now + width;
    marks_.assign(1, {now, cpu_seconds()});
  }
  void poll(std::int64_t now) {
    if (width_ > 0 && now >= next_) {
      marks_.push_back({now, cpu_seconds()});
      next_ += width_;
    }
  }
  void stop(std::int64_t now) {
    if (width_ > 0 && now > marks_.back().first) {
      marks_.push_back({now, cpu_seconds()});
    }
    width_ = 0;
  }
  const std::vector<std::pair<std::int64_t, double>>& marks() const {
    return marks_;
  }

 private:
  std::int64_t width_ = 0;
  std::int64_t next_ = 0;
  std::vector<std::pair<std::int64_t, double>> marks_;
};

/// One completed op: start (due or submit time), completion, request bytes.
struct OpSample {
  std::int64_t start = 0;
  std::int64_t done = 0;
  std::uint64_t bytes = 0;
};

/// What one cluster lifetime of a TCP workload produced.
struct TcpPhase {
  double setup_s = 0;
  std::vector<OpSample> ops;  ///< every completed op
  WindowMarks window;         ///< sub-windows of the measured window
  std::uint64_t attempted = 0;  ///< ops due in the measured window
  std::uint64_t failed = 0;     ///< of those: errors and deadline misses
  double events_per_s = 0;      ///< recorder events per second, busiest node
  /// Open loop: p99 of the generator's lateness (issue time minus due
  /// time) over the window's ops, in us; < 0 for a closed loop.
  double late_p99_us = -1;
};

/// op_p50_us: the median of each phase's ops started in its window, pooled,
/// then the median over the phases. op_p99_us (ops started in a
/// sub-window), ops_per_s, payload_MBps and cpu_us_per_op (ops completed in
/// it): the median over the sub-windows of every phase. The per-layer
/// op.pooled_p99_us is the tail op_p99_us leaves out: each phase's pooled
/// p99, median over the phases. setup_s: the median of `setup`. For an open
/// loop, the same statistic of the generator's lateness, the median over
/// the phases of each one's pooled p99, must stay within `late_limit_x`
/// times op_p50_us, or the run is invalid: beyond it, the reported
/// latencies would be the generator's delay rather than the system's.
void report_windowed(const std::vector<TcpPhase>& phases,
                     std::vector<double> setup, double late_limit_x,
                     Result& out);

/// How a TCP cluster lifetime runs. kPlain is the end-to-end configuration
/// (flight recorders on at their default size). kTimed adds the traced
/// run's instrumentation and nothing else: every submit call is timed and
/// the recorders are large enough to keep every event. kTraced is kTimed
/// plus the per-layer analysis, all of it after the measured window (a
/// crash of the last node, a drain, replays of the captured rounds).
enum class Mode { kPlain, kTimed, kTraced };

/// One cluster lifetime of a TCP workload: `phase(seed, seconds, capacity,
/// mode, out)` measures a window of `seconds` with flight recorders of
/// `capacity` events.
using TcpPhaseFn =
    std::function<TcpPhase(std::uint64_t, double, std::size_t, Mode, Result&)>;

/// The shape both TCP workloads share: `setups - lifetimes` bare set-ups,
/// then `lifetimes` plain cluster lifetimes that split the measured time
/// between them for the end-to-end figures (fresh sockets, threads and
/// placement each time, so no one lifetime's luck decides a run). With
/// --trace=1 each plain lifetime is followed by an instrumented one of the
/// same seed and length (the first kTraced, the rest kTimed): the traced
/// lifetime gives the per-layer figures, and the instrumented set against
/// the plain set gives the tracing overhead. Recorders are sized from the
/// paired plain lifetime's event rate to hold its window plus `extra_s`
/// (warmup, crash tail, drain). `setup_only(seed, out)` returns one set-up
/// time. `late_limit_x` goes to report_windowed.
Result run_tcp_workload(
    const Args& args, std::size_t setups, std::size_t lifetimes,
    double extra_s, double late_limit_x,
    const std::function<double(std::uint64_t, Result&)>& setup_only,
    const TcpPhaseFn& phase);

// ---------------------------------------------------------------------------
// Layer replays (layers.cpp): timed calls into public layer functions on the
// inputs a workload produced.
// ---------------------------------------------------------------------------

/// One sampled A-delivered round, in delivery order.
using Rounds = std::vector<allconcur::core::RoundResult>;

/// core::Frame::make, core::parse_stream and core::unpack_batch over the
/// rounds' payloads. Adds message.* and batch.* metrics.
void replay_codec(const Rounds& rounds, Result& out);

/// Replica::on_round of a fresh KvStore replica over the rounds
/// (renumbered from 0). Adds smr.apply_ns_per_cmd, and with
/// `report_duplicates` the replay's smr.duplicates_suppressed (workloads
/// with live replicas report theirs instead).
void replay_replica(const Rounds& rounds, bool report_duplicates,
                    Result& out);

/// The rounds' requests re-submitted into an in-process loopback of n
/// engines (window `window`): Engine::submit + broadcast_now per origin,
/// then on_message until quiet. Adds engine.ns_per_round_per_node and
/// engine.allocs_per_round_per_node.
void replay_engines(const Rounds& rounds, std::size_t n, std::size_t window,
                    Result& out);

/// One client op as the budget needs it: contact node, the round that
/// carried it, and its start (due/submit) and observed-completion times on
/// the clock the contact's recorder uses.
struct OpTrace {
  NodeId contact = 0;
  Round round = 0;
  std::int64_t start = 0;
  std::int64_t done = 0;
};

/// Splits each op's latency at the contact's recorder events of its round
/// (kRoundOpen, kBcastSent, last kMsgRecv, kComplete/kFastComplete,
/// kDelivered) and adds the op.* metrics: mean segments, the residual of
/// their sum against the mean latency, and the measured/LogP ratio of the
/// broadcast-to-delivery round time for an n-node default overlay. Fails
/// the run when the residual exceeds `tolerance_pct` in magnitude.
void op_budget(const std::vector<OpTrace>& ops,
               const std::vector<std::vector<allconcur::obs::Event>>& events,
               std::size_t n, double tolerance_pct, Result& out);

/// Engine counters of a run: engine.msgs_per_round_per_node,
/// engine.reqs_per_round, engine.tracking_resets_per_round,
/// engine.dropped_ahead, engine.fail_msgs_per_crash (`crashes` > 0).
void engine_counters(const std::vector<allconcur::core::EngineStats>& stats,
                     std::uint64_t requests, std::size_t crashes,
                     Result& out);

/// Socket counters summed over the nodes between two snapshots:
/// net.frames_per_sendmsg, net.wire_bytes_per_op, net.eagain_waits_per_kframe,
/// net.partial_writes_per_kframe, net.checksum_drops (checked to be 0), and
/// net.submit_call_ns (median of the timed TcpNode::submit calls).
void net_counters(const std::vector<allconcur::net::TcpNetStats>& before,
                  const std::vector<allconcur::net::TcpNetStats>& after,
                  std::uint64_t ops, std::vector<double>& submit_ns,
                  Result& out);
std::vector<allconcur::net::TcpNetStats> snapshot_net(
    const std::vector<const allconcur::net::TcpNode*>& nodes);

/// Crash metrics from the survivors' recorder events: fd.detect_ms (crash
/// to the first kSuspect of `crashed`) and view.drain_ms (that suspicion to
/// the first kRoundOpen of `new_view_round`, the first round without the
/// crashed node). Both deployments stamp events in nanoseconds.
void crash_metrics(const std::vector<std::vector<allconcur::obs::Event>>& events,
                   NodeId crashed, std::int64_t t_crash, Round new_view_round,
                   Result& out);

/// fd.failover_gap_ms: the longest stretch, from `t_crash` on, in which no
/// op completed anywhere (time without service; `done` are completion
/// times at or after the crash, any order).
void failover_gap(std::vector<std::int64_t> done, std::int64_t t_crash,
                  Result& out);

/// Percentage by which `traced` exceeds `plain` (0 when plain is 0).
inline double overhead_pct(double traced, double plain) {
  return plain > 0 ? 100.0 * (traced - plain) / plain : 0.0;
}

}  // namespace perfbench
