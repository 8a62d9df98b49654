// Shared helpers for the figure/table reproduction harnesses.
//
// Each bench binary regenerates one artifact of the paper's evaluation
// (see DESIGN.md §3 for the index) and prints the same rows/series the
// paper reports. Absolute numbers come from the simulated fabric — the
// *shape* (who wins, scaling, crossovers) is the reproduction target.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "api/sim_cluster.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/schema.hpp"

namespace allconcur::bench {

inline void print_title(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_note(const std::string& note) {
  std::printf("  # %s\n", note.c_str());
}

/// Smoke mode (--smoke): shrink the experiment so the binary exercises its
/// full code path in about a second. The build registers every bench with
/// ctest under the `smoke` label this way, so the harnesses are verified
/// runnable — not merely compilable — on every run.
inline bool smoke_mode(const Flags& flags) {
  const bool on = flags.get_bool("smoke", false);
  if (on) print_note("smoke mode: reduced sizes/horizons, shapes only");
  return on;
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

// ----------------------------------------------------------------------
// Metrics embedding: every bench --json carries a snapshot of the
// unified metrics plane (obs/schema.hpp names) under a stable "metrics"
// key, so a run's internal counters travel with its perf numbers.
// bench_compare.py excludes the subtree from default direction gating
// (counters like "drops" would pattern-match perf heuristics) — metric
// diffs are opt-in via its --metric allowlist.
// ----------------------------------------------------------------------

/// Registry JSON for an aggregate EngineStats snapshot — for harnesses
/// that drive engines directly instead of through a SimCluster (which
/// has its own richer metrics_json()).
inline std::string metrics_snapshot_json(const core::EngineStats& stats) {
  obs::Registry registry;
  obs::fill_engine_stats(registry, stats);
  return registry.to_json(2);
}

/// Emits the "metrics" key at top-level depth. Call between the last
/// sibling key and the closing `}` of the bench's JSON object.
inline void write_metrics_key(std::FILE* f, const std::string& metrics_json) {
  std::fprintf(f, ",\n  \"metrics\": %s\n",
               metrics_json.empty() ? "{}" : metrics_json.c_str());
}

// ----------------------------------------------------------------------
// AllConcur round loops on the simulated fabric.
// ----------------------------------------------------------------------

struct BatchRunResult {
  double avg_round_ns = 0.0;
  double agreement_gbps = 0.0;   ///< n * batch_bytes per round
  double aggregate_gbps = 0.0;   ///< agreement * n (Fig. 10d)
  bool completed = false;
  std::string metrics_json;      ///< end-of-run unified metrics snapshot
};

/// Fixed-size message per server per round (the Fig. 10 workload):
/// every server contributes `batch_bytes` each round, rounds run
/// back-to-back for `rounds` rounds.
inline BatchRunResult run_allconcur_batch(std::size_t n,
                                          const sim::FabricParams& fabric,
                                          std::size_t batch_bytes,
                                          std::size_t rounds,
                                          TimeNs deadline = sec(300)) {
  api::ClusterOptions opt;
  opt.n = n;
  opt.fabric = fabric;
  api::SimCluster cluster(opt);
  cluster.on_deliver = [&](NodeId who, const core::RoundResult& r, TimeNs) {
    if (r.round + 1 < rounds) {
      cluster.submit_opaque(who, batch_bytes);
      cluster.broadcast_now(who);
    }
  };
  for (NodeId id : cluster.live_nodes()) {
    cluster.submit_opaque(id, batch_bytes);
  }
  cluster.broadcast_all_now();
  BatchRunResult out;
  out.completed = cluster.run_until_round_done(rounds - 1, deadline);
  out.metrics_json = cluster.metrics_json();
  if (!out.completed) return out;
  out.avg_round_ns = static_cast<double>(cluster.sim().now()) /
                     static_cast<double>(rounds);
  out.agreement_gbps = 8.0 * static_cast<double>(n) *
                       static_cast<double>(batch_bytes) / out.avg_round_ns;
  out.aggregate_gbps = out.agreement_gbps * static_cast<double>(n);
  return out;
}

struct RateRunResult {
  Summary latency_us;      ///< per-node agreement latency samples
  bool unstable = false;   ///< offered load exceeded agreement throughput
  std::string metrics_json;  ///< end-of-run unified metrics snapshot
};

/// Constant request rate per server (the Fig. 8/9 workloads), fluid
/// approximation: at each broadcast a server packs rate * elapsed bytes of
/// requests accumulated since its previous broadcast. Rounds run
/// back-to-back; the system destabilizes exactly like the paper describes
/// (§5: bigger messages -> longer rounds -> bigger messages) once the rate
/// exceeds the agreement throughput. `window` > 1 runs the same workload
/// on the pipelined engine (up to W rounds in flight), which moves the
/// destabilization knee right.
inline RateRunResult run_allconcur_rate(std::size_t n,
                                        const sim::FabricParams& fabric,
                                        std::size_t request_bytes,
                                        double requests_per_sec_per_server,
                                        std::size_t warmup_rounds,
                                        std::size_t measured_rounds,
                                        TimeNs deadline = sec(120),
                                        std::size_t window = 1) {
  api::ClusterOptions opt;
  opt.n = n;
  opt.fabric = fabric;
  opt.window = window;
  api::SimCluster cluster(opt);

  const double bytes_per_ns = requests_per_sec_per_server *
                              static_cast<double>(request_bytes) / 1e9;
  std::vector<TimeNs> last_pack(n, 0);
  std::vector<double> carry(n, 0.0);
  RateRunResult out;
  const std::size_t total_rounds = warmup_rounds + measured_rounds;

  cluster.on_deliver = [&](NodeId who, const core::RoundResult& r, TimeNs t) {
    if (r.round >= warmup_rounds && r.round < total_rounds) {
      const auto started = cluster.broadcast_time(who, r.round);
      if (started) out.latency_us.add(to_us(t - *started));
    }
    if (r.round + 1 >= total_rounds) return;
    const double accumulated =
        carry[who] + bytes_per_ns * static_cast<double>(t - last_pack[who]);
    const double whole_requests =
        std::floor(accumulated / static_cast<double>(request_bytes));
    const std::size_t bytes =
        static_cast<std::size_t>(whole_requests) * request_bytes;
    carry[who] = accumulated - static_cast<double>(bytes);
    last_pack[who] = t;
    if (bytes > 0) cluster.submit_opaque(who, bytes);
    cluster.broadcast_now(who);
  };
  cluster.broadcast_all_now();
  if (!cluster.run_until_round_done(total_rounds - 1, deadline)) {
    out.unstable = true;
  }
  out.metrics_json = cluster.metrics_json();
  if (!out.unstable && out.latency_us.count() >= 4) {
    // Blow-up detection: the tail of the run is far above its median.
    const double med = out.latency_us.median();
    if (out.latency_us.max() > 20.0 * med && med > 0.0) out.unstable = true;
  }
  return out;
}

}  // namespace allconcur::bench
