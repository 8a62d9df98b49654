// Round pipelining: rounds/s and per-round latency vs the window size W,
// with and without an induced slow node.
//
// The paper's performance model (§5, Fig. 8) assumes rounds are not
// globally synchronized: a server that finished round R immediately
// starts R+1 while slower peers are still relaying R, so the steady-state
// rate is bound by per-round message work, not by round latency. The
// windowed engine makes that real: a producer paced faster than the round
// latency keeps up to W rounds in flight, and one slow server (the convoy
// that serializes a stop-and-wait deployment) no longer gates throughput.
//
//   * sim fabric — deterministic virtual time, TCP-over-IB LogP model,
//     one server's traffic delayed by --skew-us (the induced skew: a
//     chaos::Scenario gray phase on that server). The
//     ≥ 1.5x W=4 vs W=1 rounds/s claim and the p99-no-worse-without-skew
//     claim are asserted here (virtual time makes them machine-stable).
//   * TCP localhost — real sockets, epoll event loops, wall-clock paced
//     producers; scheduling skew only (reported, not asserted).
//
//   $ ./round_pipeline              # full run
//   $ ./round_pipeline --smoke      # ~2 s shape check (same assertions)
//   $ ./round_pipeline --json=out.json
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "chaos/scenario.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "net/ports.hpp"
#include "net/tcp_transport.hpp"

namespace allconcur {
namespace {

// ---------------------------------------------------------------------------
// Simulated fabric: paced producers on every node, one skewed sender.
// ---------------------------------------------------------------------------

/// Induced skew: every frame node 1 sends is held back by `skew` (a
/// drop-free gray phase adds exactly the slowdown and draws no randomness).
chaos::ScenarioEngineRef skew_node1(DurationNs skew) {
  if (skew <= 0) return nullptr;
  return std::make_shared<chaos::ScenarioEngine>(
      chaos::Scenario(/*seed=*/1).gray(0, kTimeNever, 1, skew));
}

struct SimPoint {
  std::size_t window = 1;
  double rounds_per_sec = 0;  ///< delivered rounds/s of virtual time
  double p50_us = 0;          ///< per-round latency, own broadcast -> deliver
  double p99_us = 0;
  std::uint64_t rounds = 0;
  double cpu_secs = 0;  ///< CPU time of the simulating thread (the
                        ///< virtual-time rate is identical with/without
                        ///< tracing, so the obs overhead gate compares the
                        ///< work each run cost)
};

/// CPU time consumed so far by the calling thread, in seconds.
double thread_cpu_secs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Pins the calling thread to the CPU it runs on until destroyed, then
/// gives back its CPU set (threads started later inherit the set, so the
/// TCP runs must not see the pin). Does nothing where affinity is denied.
class PinToCurrentCpu {
 public:
  PinToCurrentCpu() {
    CPU_ZERO(&saved_);
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToCurrentCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToCurrentCpu(const PinToCurrentCpu&) = delete;
  PinToCurrentCpu& operator=(const PinToCurrentCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

SimPoint run_sim(std::size_t n, std::size_t window, DurationNs skew,
                 DurationNs pace, DurationNs horizon,
                 bool flight_recorder = true,
                 std::string* metrics_out = nullptr) {
  api::ClusterOptions opt;
  opt.n = n;
  opt.window = window;
  opt.fabric = sim::FabricParams::tcp_ib();
  opt.flight_recorder = flight_recorder;
  opt.chaos = skew_node1(skew);
  api::SimCluster cluster(opt);

  // Warmup cut: latency samples only after the pipeline filled.
  const Round warmup = 2 * window + 4;
  Summary latency_us;
  std::uint64_t delivered = 0;
  cluster.on_deliver = [&](NodeId who, const core::RoundResult& r, TimeNs t) {
    if (who != 0) return;
    ++delivered;
    if (r.round < warmup) return;
    if (const auto started = cluster.broadcast_time(0, r.round)) {
      latency_us.add(to_us(t - *started));
    }
  };

  // Paced producer per node: submit a small payload and nudge the engine
  // every `pace`. With W=1 the nudge no-ops while a round is in flight
  // (stop-and-wait); with W>1 up to W rounds overlap.
  std::function<void(NodeId)> tick = [&](NodeId id) {
    cluster.sim().schedule(pace, [&, id] {
      if (cluster.alive(id)) {
        cluster.submit_opaque(id, 64);
        cluster.engine(id).broadcast_now();
      }
      tick(id);
    });
  };
  for (NodeId id : cluster.live_nodes()) tick(id);
  const double cpu0 = thread_cpu_secs();
  cluster.run_for(horizon);
  const double cpu_secs = thread_cpu_secs() - cpu0;
  if (metrics_out != nullptr) *metrics_out = cluster.metrics_json();

  SimPoint out;
  out.window = window;
  out.cpu_secs = cpu_secs;
  out.rounds = delivered;
  out.rounds_per_sec = static_cast<double>(delivered) / to_sec(horizon);
  if (latency_us.count() > 0) {
    out.p50_us = latency_us.quantile(0.5);
    out.p99_us = latency_us.quantile(0.99);
  }
  return out;
}

// ---------------------------------------------------------------------------
// TCP localhost: real TcpNodes, wall-clock paced producer.
// ---------------------------------------------------------------------------

struct TcpPoint {
  std::size_t window = 1;
  double rounds_per_sec = 0;
  std::uint64_t rounds = 0;
};

TcpPoint run_tcp(std::size_t n, std::size_t window, DurationNs pace,
                 DurationNs horizon, DurationNs skew = 0) {
  const auto base_port = net::pick_free_port_base(
      n, window + static_cast<std::uint64_t>(skew));
  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);

  std::vector<std::unique_ptr<net::TcpNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    net::TcpNodeOptions opt;
    opt.self = static_cast<NodeId>(i);
    opt.members = members;
    opt.base_port = base_port;
    opt.window = window;
    // netem-style induced skew on one real socket sender — the same gray
    // phase as the sim runs, so the convoy claim is testable on actual
    // sockets instead of scheduler noise.
    if (i == 1) opt.chaos = skew_node1(skew);
    nodes.push_back(std::make_unique<net::TcpNode>(
        opt, [](const core::RoundResult&) {}));
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (auto& node : nodes) {
    threads.emplace_back([&node] { node->run(); });
  }
  for (auto& node : nodes) node->wait_connected(sec(10));

  // Paced producer: every node submits and nudges each tick. With W=1
  // the nudge no-ops while the round is in flight; with W>1 the pipeline
  // keeps several rounds on the wire.
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::nanoseconds(horizon);
  const std::uint64_t before = nodes[0]->rounds_completed();
  while (std::chrono::steady_clock::now() < deadline) {
    for (auto& node : nodes) {
      node->submit(core::Request::of_data({0x42}));
      node->broadcast_now();
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(pace));
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::uint64_t rounds = nodes[0]->rounds_completed() - before;
  for (auto& node : nodes) node->stop();
  for (auto& t : threads) t.join();

  TcpPoint out;
  out.window = window;
  out.rounds = rounds;
  out.rounds_per_sec = static_cast<double>(rounds) / secs;
  return out;
}

}  // namespace
}  // namespace allconcur

int main(int argc, char** argv) {
  using namespace allconcur;
  const Flags flags(argc, argv);
  const bool smoke = bench::smoke_mode(flags);

  const std::size_t n = static_cast<std::size_t>(
      flags.get_int("n", smoke ? 8 : 16));
  // The producer paces at (just above) the cluster's per-round message
  // work, so the pipeline hides *latency* instead of masking overload: a
  // window cannot beat the work bound, and overdriving it would only
  // queue rounds and inflate tail latency at every W.
  const DurationNs pace = us(flags.get_int("pace-us", smoke ? 100 : 250));
  const DurationNs skew = us(flags.get_int("skew-us", 3 * pace / 1000));
  const DurationNs horizon = ms(smoke ? 80 : 500);
  const std::vector<std::int64_t> windows =
      flags.get_int_list("windows", {1, 2, 4, 8});

  bench::print_title("Round pipelining (sim fabric, TCP-IB model)");
  bench::print_note(
      "paced producer per server (pace " + std::to_string(pace / 1000) +
      "us); skewed runs delay every message of one server by " +
      std::to_string(skew / 1000) + "us; latency = own broadcast -> "
      "A-delivery at server 0");

  std::vector<SimPoint> sim_skewed, sim_clean;
  bench::row("%8s %6s %16s %12s %12s %10s", "variant", "W", "rounds/s",
             "p50 us", "p99 us", "rounds");
  for (const auto w : windows) {
    const auto p = run_sim(n, static_cast<std::size_t>(w), skew, pace,
                           horizon);
    sim_skewed.push_back(p);
    bench::row("%8s %6zu %16.0f %12.1f %12.1f %10llu", "skew", p.window,
               p.rounds_per_sec, p.p50_us, p.p99_us,
               static_cast<unsigned long long>(p.rounds));
  }
  std::string sim_metrics_json;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto p = run_sim(n, static_cast<std::size_t>(windows[i]), 0, pace,
                           horizon, /*flight_recorder=*/true,
                           i + 1 == windows.size() ? &sim_metrics_json
                                                   : nullptr);
    sim_clean.push_back(p);
    bench::row("%8s %6zu %16.0f %12.1f %12.1f %10llu", "no-skew", p.window,
               p.rounds_per_sec, p.p50_us, p.p99_us,
               static_cast<unsigned long long>(p.rounds));
  }

  // The acceptance gates compare W=4 against W=1; a custom --windows list
  // may omit either, in which case the gates are skipped (with a note)
  // instead of dereferencing a missing entry.
  const auto find_w = [](const std::vector<SimPoint>& v,
                         std::size_t w) -> const SimPoint* {
    const auto it =
        std::find_if(v.begin(), v.end(),
                     [w](const SimPoint& p) { return p.window == w; });
    return it == v.end() ? nullptr : &*it;
  };
  const SimPoint* skew_w1 = find_w(sim_skewed, 1);
  const SimPoint* skew_w4 = find_w(sim_skewed, 4);
  const bool gated = skew_w1 != nullptr && skew_w4 != nullptr;
  const double speedup_skew =
      gated ? skew_w4->rounds_per_sec / skew_w1->rounds_per_sec : 0.0;
  if (gated) {
    bench::print_note("skewed W=4 vs W=1 rounds/s: " +
                      std::to_string(speedup_skew) + "x");
  } else {
    bench::print_note("--windows omits 1 and/or 4: speedup/p99 gates "
                      "skipped");
  }

  // ---- Observability overhead gate (tentpole acceptance: <= 5%) ----
  // Virtual-time rates are identical with tracing on or off by
  // construction, so this gate compares the CPU TIME the simulating thread
  // spends on identical W=4 workloads. Thread CPU time leaves out the time
  // the thread waits for a core, which wall clock counts, so the gate does
  // not follow the host's load. Off/on runs alternate back-to-back and the
  // gate takes the median of the per-pair ratios (same estimator as
  // bench/wire_path.cpp: the host's speed still drifts too much for
  // independent best-of runs to resolve a small effect).
  bench::print_title(
      "Observability: flight-recorder overhead (simulator thread CPU time)");
  // Each timed run needs tens of ms of CPU or timer granularity and cache
  // effects swamp the effect being measured. Both arms of every pair run
  // on one CPU: a migration between arms costs the moved run a cold cache.
  const DurationNs obs_horizon = ms(smoke ? 120 : 200);
  const std::size_t obs_pairs = smoke ? 10 : 12;
  Summary obs_ratios;
  double obs_best_off = 0.0, obs_best_on = 0.0;  // min CPU secs seen
  {
    const PinToCurrentCpu pin;
    // Discarded warmup: the first run pays allocator growth and page
    // faults that would bias whichever configuration goes first.
    (void)run_sim(n, 4, 0, pace, obs_horizon, false);
    for (std::size_t pair = 0; pair < obs_pairs; ++pair) {
      SimPoint off, on;
      if (pair % 2 == 0) {
        off = run_sim(n, 4, 0, pace, obs_horizon, false);
        on = run_sim(n, 4, 0, pace, obs_horizon, true);
      } else {
        on = run_sim(n, 4, 0, pace, obs_horizon, true);
        off = run_sim(n, 4, 0, pace, obs_horizon, false);
      }
      obs_ratios.add(on.cpu_secs / off.cpu_secs);
      if (obs_best_off == 0.0 || off.cpu_secs < obs_best_off) {
        obs_best_off = off.cpu_secs;
      }
      if (obs_best_on == 0.0 || on.cpu_secs < obs_best_on) {
        obs_best_on = on.cpu_secs;
      }
    }
  }
  const double obs_overhead_pct = 100.0 * (obs_ratios.median() - 1.0);
  bench::row("%6s %16s %16s %12s", "W", "off CPU ms", "on CPU ms",
             "overhead");
  bench::row("%6d %16.1f %16.1f %11.1f%%", 4, 1e3 * obs_best_off,
             1e3 * obs_best_on, obs_overhead_pct);

  bench::print_title("Round pipelining (TCP localhost, real sockets)");
  bench::print_note("scheduling skew only; wall clock — reported, not "
                    "asserted");
  std::vector<TcpPoint> tcp_points;
  bench::row("%6s %16s %10s", "W", "rounds/s", "rounds");
  for (const std::size_t w : {std::size_t{1}, std::size_t{4}}) {
    const auto p = run_tcp(smoke ? 3 : 5, w, us(smoke ? 200 : 100),
                           ms(smoke ? 250 : 1500));
    tcp_points.push_back(p);
    bench::row("%6zu %16.0f %10llu", p.window, p.rounds_per_sec,
               static_cast<unsigned long long>(p.rounds));
  }

  // Real induced skew: one node's sends held back by a chaos gray phase on
  // node 1 (TcpNodeOptions::chaos). The convoy is now physical (bytes
  // really arrive late), so the W=4-hides-the-slow-sender claim is
  // asserted on actual sockets too — with a generous margin, since the
  // measurement is still wall clock.
  const DurationNs tcp_skew = us(flags.get_int("tcp-skew-us", 3000));
  bench::print_title("Round pipelining (TCP localhost, induced skew)");
  bench::print_note("node 1 gray slowdown = " +
                    std::to_string(tcp_skew / 1000) +
                    "us (chaos gray phase on node 1); W=4 >= 1.2x W=1 "
                    "and W=1 <= 0.5x the unskewed W=1 asserted");
  std::vector<TcpPoint> tcp_skewed;
  bench::row("%6s %16s %10s", "W", "rounds/s", "rounds");
  for (const std::size_t w : {std::size_t{1}, std::size_t{4}}) {
    const auto p = run_tcp(smoke ? 3 : 5, w, us(smoke ? 200 : 100),
                           ms(smoke ? 300 : 1500), tcp_skew);
    tcp_skewed.push_back(p);
    bench::row("%6zu %16.0f %10llu", p.window, p.rounds_per_sec,
               static_cast<unsigned long long>(p.rounds));
  }
  const double tcp_skew_speedup =
      tcp_skewed[0].rounds_per_sec > 0
          ? tcp_skewed[1].rounds_per_sec / tcp_skewed[0].rounds_per_sec
          : 0.0;
  bench::print_note("skewed TCP W=4 vs W=1 rounds/s: " +
                    std::to_string(tcp_skew_speedup) + "x");
  // The convoy gate only means something if node 1 really was slow: the
  // unskewed run's W=1 rate already gains ~1.2-1.3x from a window, so the
  // skewed W=1 rate must also fall well below the unskewed one.
  const double tcp_w1_skew_ratio =
      tcp_points[0].rounds_per_sec > 0
          ? tcp_skewed[0].rounds_per_sec / tcp_points[0].rounds_per_sec
          : 0.0;
  bench::print_note("TCP W=1 rounds/s, skewed vs unskewed: " +
                    std::to_string(tcp_w1_skew_ratio) + "x");

  const std::string json_path = flags.get("json", "");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const auto dump_points = [f](const char* key,
                                 const std::vector<SimPoint>& pts) {
      std::fprintf(f, "    \"%s\": [", key);
      for (std::size_t i = 0; i < pts.size(); ++i) {
        std::fprintf(f,
                     "%s\n      {\"window\": %zu, \"rounds_per_sec\": %.0f, "
                     "\"p50_us\": %.1f, \"p99_us\": %.1f}",
                     i ? "," : "", pts[i].window, pts[i].rounds_per_sec,
                     pts[i].p50_us, pts[i].p99_us);
      }
      std::fprintf(f, "\n    ]");
    };
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"round_pipeline\",\n"
                 "  \"smoke\": %s,\n"
                 "  \"sim\": {\n"
                 "    \"n\": %zu, \"pace_us\": %lld, \"skew_us\": %lld,\n",
                 smoke ? "true" : "false", n,
                 static_cast<long long>(pace / 1000),
                 static_cast<long long>(skew / 1000));
    dump_points("skew", sim_skewed);
    std::fprintf(f, ",\n");
    dump_points("no_skew", sim_clean);
    std::fprintf(f,
                 ",\n    \"speedup_w4_over_w1_skew\": %.2f\n  },\n"
                 "  \"tcp\": {\n    \"points\": [",
                 speedup_skew);
    for (std::size_t i = 0; i < tcp_points.size(); ++i) {
      std::fprintf(f,
                   "%s\n      {\"window\": %zu, \"rounds_per_sec\": %.0f}",
                   i ? "," : "", tcp_points[i].window,
                   tcp_points[i].rounds_per_sec);
    }
    std::fprintf(f,
                 "\n    ],\n    \"skew_us\": %lld,\n    \"skewed\": [",
                 static_cast<long long>(tcp_skew / 1000));
    for (std::size_t i = 0; i < tcp_skewed.size(); ++i) {
      std::fprintf(f,
                   "%s\n      {\"window\": %zu, \"rounds_per_sec\": %.0f}",
                   i ? "," : "", tcp_skewed[i].window,
                   tcp_skewed[i].rounds_per_sec);
    }
    std::fprintf(f,
                 "\n    ],\n    \"speedup_w4_over_w1_skew\": %.2f\n  },\n",
                 tcp_skew_speedup);
    // The *_wall_secs keys keep their names for the JSON's readers; they
    // hold the simulating thread's CPU seconds.
    std::fprintf(f,
                 "  \"obs_overhead\": {\"disabled_wall_secs\": %.4f, "
                 "\"enabled_wall_secs\": %.4f, \"overhead_pct\": %.1f}",
                 obs_best_off, obs_best_on, obs_overhead_pct);
    bench::write_metrics_key(f, sim_metrics_json);
    std::fprintf(f, "}\n");
    std::fclose(f);
    bench::print_note("wrote " + json_path);
  }

  // Acceptance gates — virtual-time measurements, deterministic on any
  // machine, so these are hard failures rather than warnings.
  int rc = 0;
  if (gated && speedup_skew < 1.5) {
    std::fprintf(stderr,
                 "FAIL: skewed W=4 rounds/s only %.2fx of W=1 (< 1.5x): the "
                 "window no longer hides the convoy\n",
                 speedup_skew);
    rc = 1;
  }
  if (tcp_skew_speedup > 0 && tcp_skew_speedup < 1.2) {
    std::fprintf(stderr,
                 "FAIL: real-socket skewed W=4 rounds/s only %.2fx of W=1 "
                 "(< 1.2x): the window no longer hides a physically slow "
                 "sender\n",
                 tcp_skew_speedup);
    rc = 1;
  }
  if (tcp_w1_skew_ratio > 0.5) {
    std::fprintf(stderr,
                 "FAIL: real-socket W=1 rounds/s with node 1 slowed is "
                 "%.2fx the unskewed rate (> 0.5x): the induced skew had "
                 "no effect, so the convoy gate above proves nothing\n",
                 tcp_w1_skew_ratio);
    rc = 1;
  }
  const SimPoint* clean_w1 = find_w(sim_clean, 1);
  const SimPoint* clean_w4 = find_w(sim_clean, 4);
  if (clean_w1 != nullptr && clean_w4 != nullptr &&
      clean_w4->p99_us > 1.25 * clean_w1->p99_us) {
    std::fprintf(stderr,
                 "FAIL: no-skew p99 round latency at W=4 (%.1fus) exceeds "
                 "1.25x the W=1 baseline (%.1fus)\n",
                 clean_w4->p99_us, clean_w1->p99_us);
    rc = 1;
  }
  if (obs_overhead_pct > 5.0) {
    std::fprintf(stderr,
                 "FAIL: flight-recorder overhead %.1f%% exceeds the 5%% "
                 "budget (%.1fms CPU enabled vs %.1fms disabled)\n",
                 obs_overhead_pct, 1e3 * obs_best_on, 1e3 * obs_best_off);
    rc = 1;
  }
  return rc;
}
