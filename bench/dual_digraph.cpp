// Dual-digraph fast path (AllConcur+): failure-free rounds/s and p50
// latency of the untracked G_U fast path vs the always-reliable G_R
// engine, plus a measured fallback-cost column, reproducing the paper
// family's claim that racing an unreliable digraph against the reliable
// one buys large failure-free speedups.
//
//   1. round engine — in-process n-engine cluster, allocations per round
//      (operator-new counted in this TU): the fast path must do zero
//      tracking work (EngineStats::tracking_resets == 0) and no more
//      heap churn than the classic pooled engine.
//   2. sim fabric — TCP-over-IB LogP model at n in {8,16,32}: rounds/s
//      and p50 own-broadcast->deliver latency, fast vs always-reliable,
//      and a forced-fallback column (every round spuriously re-executed
//      over G_R — the measured cost of a fallback transition). The
//      >= 1.3x speedup at n=32 is asserted (virtual time, deterministic).
//   3. TCP localhost — real sockets over both overlays' links, wall
//      clock; reported, not asserted.
//
//   $ ./dual_digraph              # full run
//   $ ./dual_digraph --smoke      # ~2 s shape check (same assertions)
//   $ ./dual_digraph --json=out.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <new>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "net/ports.hpp"
#include "net/tcp_transport.hpp"
#include "plus/plus.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (this TU only): measures heap churn per round.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t a =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, size) == 0) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace allconcur {
namespace {

using core::Engine;
using core::FrameRef;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// 1. Round engine: allocations and rounds/s, dual vs classic, in-process.
// ---------------------------------------------------------------------------

struct EngineRun {
  double allocs_per_round_per_node = 0;
  double rounds_per_sec = 0;
  std::uint64_t tracking_resets = 0;
  std::uint64_t fallback_rounds = 0;
};

EngineRun bench_engines(bool dual, std::size_t n, std::size_t payload_bytes,
                        std::size_t rounds) {
  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
  const core::GraphBuilder builder = core::make_default_graph_builder();
  core::Engine::Options opts;
  if (dual) opts.fast_builder = plus::make_unreliable_builder();

  std::deque<std::tuple<NodeId, NodeId, FrameRef>> queue;
  std::vector<std::unique_ptr<Engine>> engines;
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    Engine::Hooks hooks;
    hooks.send = [&queue, id](NodeId dst, const FrameRef& f) {
      queue.emplace_back(id, dst, f);
    };
    hooks.deliver = [&delivered](const core::RoundResult&) { ++delivered; };
    engines.push_back(std::make_unique<Engine>(
        id, core::View(members, builder, opts.fast_builder), builder, hooks,
        opts));
  }

  const auto run_round = [&] {
    for (auto& e : engines) {
      e->submit_opaque(payload_bytes);
      e->broadcast_now();
    }
    while (!queue.empty()) {
      auto [src, dst, f] = queue.front();
      queue.pop_front();
      engines[dst]->on_message(src, f->msg());
    }
  };

  for (int i = 0; i < 3; ++i) run_round();  // warmup fills every pool

  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) run_round();
  const double secs = seconds_since(t0);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;

  EngineRun out;
  out.allocs_per_round_per_node = static_cast<double>(allocs) /
                                  static_cast<double>(rounds) /
                                  static_cast<double>(n);
  out.rounds_per_sec = static_cast<double>(rounds) / secs;
  for (const auto& e : engines) {
    out.tracking_resets += e->stats().tracking_resets;
    out.fallback_rounds += e->stats().fallback_rounds;
  }
  return out;
}

// ---------------------------------------------------------------------------
// 2. Sim fabric: rounds/s + p50 latency, fast vs reliable vs forced-fallback.
// ---------------------------------------------------------------------------

enum class SimMode { kReliable, kFast, kForcedFallback };

struct SimRun {
  double rounds_per_sec = 0;
  double p50_us = 0;
  std::uint64_t rounds = 0;
  core::EngineStats stats;
};

SimRun run_sim(SimMode mode, std::size_t n, std::size_t payload_bytes,
               Round rounds, TimeNs deadline) {
  api::ClusterOptions opt;
  opt.n = n;
  opt.fabric = sim::FabricParams::tcp_ib();
  if (mode != SimMode::kReliable) {
    opt.fast_builder = plus::make_unreliable_builder();
    // Forced runs inject their fallbacks explicitly; the watchdog stays
    // out of the way in both dual variants (virtual rounds are ~us).
    opt.fallback_timeout = 0;
  }
  api::SimCluster cluster(opt);

  const Round warmup = 3;
  Summary latency_us;
  cluster.on_deliver = [&](NodeId who, const core::RoundResult& r, TimeNs t) {
    if (who == 0 && r.round >= warmup && r.round < rounds) {
      if (const auto started = cluster.broadcast_time(0, r.round)) {
        latency_us.add(to_us(t - *started));
      }
    }
    if (r.round + 1 < rounds) {
      cluster.submit_opaque(who, payload_bytes);
      cluster.broadcast_now(who);
      // Forced-fallback column: node 0 spuriously times every round out
      // the moment it starts — the full measured cost of re-executing
      // over G_R after the fast attempt already began.
      if (mode == SimMode::kForcedFallback && who == 0) {
        cluster.force_fallback(0);
      }
    }
  };
  for (NodeId id : cluster.live_nodes()) {
    cluster.submit_opaque(id, payload_bytes);
  }
  cluster.broadcast_all_now();
  if (mode == SimMode::kForcedFallback) cluster.force_fallback(0);

  SimRun out;
  if (!cluster.run_until_round_done(rounds - 1, deadline)) {
    std::fprintf(stderr, "FAIL: sim run (mode %d, n=%zu) stalled\n",
                 static_cast<int>(mode), n);
    std::exit(1);
  }
  out.rounds = rounds;
  out.rounds_per_sec =
      static_cast<double>(rounds) / to_sec(cluster.sim().now());
  if (latency_us.count() > 0) out.p50_us = latency_us.quantile(0.5);
  out.stats = cluster.aggregate_stats();
  return out;
}

// ---------------------------------------------------------------------------
// 3. TCP localhost: fast rounds over real sockets.
// ---------------------------------------------------------------------------

double run_tcp(std::size_t n, DurationNs horizon) {
  const auto base_port = net::pick_free_port_base(n, 17);
  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);

  std::vector<std::unique_ptr<net::TcpNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    net::TcpNodeOptions opt;
    opt.self = static_cast<NodeId>(i);
    opt.members = members;
    opt.base_port = base_port;
    opt.fast_builder = plus::make_unreliable_builder();
    opt.fallback_timeout = ms(200);
    nodes.push_back(std::make_unique<net::TcpNode>(
        opt, [](const core::RoundResult&) {}));
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (auto& node : nodes) {
    threads.emplace_back([&node] { node->run(); });
  }
  for (auto& node : nodes) node->wait_connected(sec(10));

  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::nanoseconds(horizon);
  while (std::chrono::steady_clock::now() < deadline) {
    for (auto& node : nodes) {
      node->submit(core::Request::of_data({0x42}));
      node->broadcast_now();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double secs = seconds_since(t0);
  const double rps =
      static_cast<double>(nodes[0]->rounds_completed()) / secs;
  for (auto& node : nodes) node->stop();
  for (auto& t : threads) t.join();
  return rps;
}

}  // namespace
}  // namespace allconcur

int main(int argc, char** argv) {
  using namespace allconcur;
  const Flags flags(argc, argv);
  const bool smoke = bench::smoke_mode(flags);

  const std::size_t payload = static_cast<std::size_t>(
      flags.get_int("payload-bytes", 64));
  const Round rounds = static_cast<Round>(
      flags.get_int("rounds", smoke ? 40 : 300));
  const TimeNs deadline = sec(smoke ? 60 : 600);

  bench::print_title("Dual-digraph fast path (AllConcur+)");
  bench::print_note(
      "G_U = binary de Bruijn (degree <= 2, untracked bitmap completion); "
      "G_R = GS(n,d) Table 3 (full tracking); fallback = spurious "
      "re-execution of every round over G_R");

  // --- 1. engine allocations ---
  bench::print_title("Round engine: heap churn per round (in-process)");
  const std::size_t alloc_n = smoke ? 8 : 16;
  const std::size_t alloc_rounds = smoke ? 50 : 400;
  const auto classic_run =
      bench_engines(false, alloc_n, 1024, alloc_rounds);
  const auto dual_run = bench_engines(true, alloc_n, 1024, alloc_rounds);
  bench::row("%10s %22s %14s %16s", "variant", "allocs/round/node",
             "rounds/s", "tracking resets");
  bench::row("%10s %22.1f %14.0f %16llu", "reliable",
             classic_run.allocs_per_round_per_node,
             classic_run.rounds_per_sec,
             static_cast<unsigned long long>(classic_run.tracking_resets));
  bench::row("%10s %22.1f %14.0f %16llu", "fast",
             dual_run.allocs_per_round_per_node, dual_run.rounds_per_sec,
             static_cast<unsigned long long>(dual_run.tracking_resets));

  // --- 2. sim fabric ---
  bench::print_title("Sim fabric (TCP-IB model): fast vs always-reliable");
  bench::row("%6s %14s %14s %9s %12s %12s %14s %12s", "n", "fast rnd/s",
             "reliable r/s", "speedup", "fast p50us", "rel p50us",
             "fallback r/s", "fb cost");
  struct Point {
    std::size_t n;
    SimRun fast, reliable, forced;
    double speedup, fallback_cost;
  };
  std::vector<Point> points;
  const std::vector<std::int64_t> sizes =
      flags.get_int_list("sizes", {8, 16, 32});
  for (const std::int64_t n_i : sizes) {
    const auto n = static_cast<std::size_t>(n_i);
    Point p;
    p.n = n;
    p.fast = run_sim(SimMode::kFast, n, payload, rounds, deadline);
    p.reliable = run_sim(SimMode::kReliable, n, payload, rounds, deadline);
    p.forced =
        run_sim(SimMode::kForcedFallback, n, payload, rounds, deadline);
    p.speedup = p.fast.rounds_per_sec / p.reliable.rounds_per_sec;
    p.fallback_cost = p.fast.rounds_per_sec / p.forced.rounds_per_sec;
    points.push_back(p);
    bench::row("%6zu %14.0f %14.0f %8.2fx %12.1f %12.1f %14.0f %11.2fx",
               p.n, p.fast.rounds_per_sec, p.reliable.rounds_per_sec,
               p.speedup, p.fast.p50_us, p.reliable.p50_us,
               p.forced.rounds_per_sec, p.fallback_cost);
  }
  bench::print_note(
      "fb cost = fast rounds/s over forced-fallback rounds/s (every round "
      "spuriously re-executed over G_R after the fast attempt started)");

  // --- 3. TCP localhost ---
  bench::print_title("TCP localhost (real sockets, both overlays dialed)");
  const double tcp_rps = run_tcp(smoke ? 3 : 5, ms(smoke ? 250 : 1500));
  bench::row("%6s %16s", "n", "fast rounds/s");
  bench::row("%6d %16.0f", smoke ? 3 : 5, tcp_rps);

  // --- JSON ---
  const std::string json_path = flags.get("json", "");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"dual_digraph\",\n"
                 "  \"smoke\": %s,\n"
                 "  \"alloc\": {\"reliable_allocs_per_round_per_node\": "
                 "%.1f, \"fast_allocs_per_round_per_node\": %.1f},\n"
                 "  \"sim\": {\n    \"payload_bytes\": %zu,\n"
                 "    \"points\": [",
                 smoke ? "true" : "false",
                 classic_run.allocs_per_round_per_node,
                 dual_run.allocs_per_round_per_node, payload);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(
          f,
          "%s\n      {\"n\": %zu, \"fast_rounds_per_sec\": %.0f, "
          "\"reliable_rounds_per_sec\": %.0f, \"speedup\": %.2f, "
          "\"fast_p50_us\": %.1f, \"reliable_p50_us\": %.1f, "
          "\"forced_fallback_rounds_per_sec\": %.0f, "
          "\"fallback_cost_x\": %.2f}",
          i ? "," : "", p.n, p.fast.rounds_per_sec,
          p.reliable.rounds_per_sec, p.speedup, p.fast.p50_us,
          p.reliable.p50_us, p.forced.rounds_per_sec, p.fallback_cost);
    }
    std::fprintf(f,
                 "\n    ]\n  },\n"
                 "  \"tcp\": {\"fast_rounds_per_sec\": %.0f}",
                 tcp_rps);
    bench::write_metrics_key(
        f, points.empty()
               ? std::string()
               : bench::metrics_snapshot_json(points.back().fast.stats));
    std::fprintf(f, "}\n");
    std::fclose(f);
    bench::print_note("wrote " + json_path);
  }

  // --- Acceptance gates (virtual-time/deterministic: hard failures) ---
  int rc = 0;
  for (const Point& p : points) {
    // Zero tracking work on the failure-free fast path, at every size.
    if (p.fast.stats.tracking_resets != 0 ||
        p.fast.stats.fallback_rounds != 0) {
      std::fprintf(stderr,
                   "FAIL: n=%zu fast run did tracking work (%llu resets, "
                   "%llu fallback rounds) — the fast path is not fast\n",
                   p.n,
                   static_cast<unsigned long long>(
                       p.fast.stats.tracking_resets),
                   static_cast<unsigned long long>(
                       p.fast.stats.fallback_rounds));
      rc = 1;
    }
    if (p.n == 32 && p.speedup < 1.3) {
      std::fprintf(stderr,
                   "FAIL: n=32 fast path only %.2fx of always-reliable "
                   "(< 1.3x)\n",
                   p.speedup);
      rc = 1;
    }
    // The forced-fallback run must terminate with every round delivered
    // (checked inside run_sim) and must actually have fallen back.
    if (p.forced.stats.fallback_rounds == 0) {
      std::fprintf(stderr,
                   "FAIL: n=%zu forced-fallback run never fell back\n",
                   p.n);
      rc = 1;
    }
  }
  if (dual_run.tracking_resets != 0) {
    std::fprintf(stderr,
                 "FAIL: in-process fast engines reset %llu tracking "
                 "digraphs (expected 0)\n",
                 static_cast<unsigned long long>(dual_run.tracking_resets));
    rc = 1;
  }
  // Deterministic alloc budget: the fast path must not out-allocate the
  // pooled classic engine (it does strictly less work per round).
  if (dual_run.allocs_per_round_per_node >
      classic_run.allocs_per_round_per_node + 1.0) {
    std::fprintf(stderr,
                 "FAIL: fast path allocates %.1f/round/node vs classic "
                 "%.1f — retention/fallback state leaked into the "
                 "steady-state round loop\n",
                 dual_run.allocs_per_round_per_node,
                 classic_run.allocs_per_round_per_node);
    rc = 1;
  }
  return rc;
}
