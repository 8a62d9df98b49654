// SMR KV throughput: applied-ops/s of the replicated KV store vs
// cluster size and value size, on the simulated fabric.
//
// Workload: every node hosts one client session; each round every
// client packs `cmds` puts into its node's broadcast, rounds run
// back-to-back (the §5 batching regime, but with real KV commands
// through the full SMR stack: envelopes, dedup, apply, divergence
// hash). Reported ops/s are commands *applied on every replica* per
// simulated second — agreement + application, not just agreement.
//
//
// Also reports apply.allocs_per_cmd: heap allocations per command while
// one Replica applies pre-built rounds of puts and gets over keys and
// sessions it has already seen. The apply path is meant to allocate
// nothing there, and the bench exits nonzero when it does.
//
//   $ ./smr_kv_throughput            # full sweep
//   $ ./smr_kv_throughput --smoke    # ~1 s shape check
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/batch.hpp"
#include "smr/kv_cluster.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (this TU only): heap churn of the apply path.
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

using namespace allconcur;

namespace {

struct ApplyAllocs {
  double allocs_per_cmd = 0;
  std::uint64_t cmds = 0;
};

/// Counts allocations in Replica::on_round over pre-built rounds: n
/// deliveries a round, `cmds` commands each, half puts of `value_bytes`
/// and half gets over `keys` keys, one session per delivery. Warm-up
/// rounds (a put to every key, then a get by every session) leave every
/// key stored and every session's response buffer large enough, so the
/// measured rounds see only the steady state.
ApplyAllocs measure_apply_allocs(std::size_t n, std::size_t cmds,
                                 std::size_t keys, std::size_t value_bytes,
                                 std::size_t rounds) {
  std::vector<smr::KvSession> sessions;
  for (std::size_t i = 0; i < n; ++i) sessions.emplace_back(i + 1);
  const auto key = [](std::size_t k) {
    return smr::to_bytes("key-" + std::to_string(k));
  };
  const smr::Bytes value(value_bytes, 0x61);
  const auto make_round = [&](Round r, const auto& command) {
    core::RoundResult result;
    result.round = r;
    result.view_size = n;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<core::Request> batch;
      for (std::size_t c = 0; c < cmds; ++c) {
        batch.push_back(core::Request::of_data(sessions[i].issue(command())));
      }
      core::Delivery d;
      d.origin = static_cast<NodeId>(i);
      d.payload = core::pack_batch(batch);
      result.deliveries.push_back(std::move(d));
    }
    return result;
  };
  std::vector<core::RoundResult> warmup, measured;
  std::size_t next_key = 0;
  while (next_key < keys) {
    warmup.push_back(make_round(warmup.size(), [&] {
      return smr::Command::put(key(next_key++ % keys), value);
    }));
  }
  warmup.push_back(make_round(warmup.size(),
                              [&] { return smr::Command::get(key(0)); }));
  Rng rng(0xa110c);
  for (std::size_t r = 0; r < rounds; ++r) {
    measured.push_back(make_round(warmup.size() + r, [&] {
      const smr::Bytes k = key(rng.next_below(keys));
      return rng.next_below(2) == 0 ? smr::Command::put(k, value)
                                    : smr::Command::get(k);
    }));
  }

  smr::Replica replica(std::make_unique<smr::KvStore>());
  for (const auto& round : warmup) replica.on_round(round);
  const std::uint64_t applied0 = replica.commands_applied();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  for (const auto& round : measured) replica.on_round(round);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;
  ApplyAllocs out;
  out.cmds = replica.commands_applied() - applied0;
  out.allocs_per_cmd =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<std::uint64_t>(out.cmds, 1));
  return out;
}

struct SmrRunResult {
  double ops_per_sec = 0.0;
  double agreement_mbps = 0.0;
  bool completed = false;
  bool converged = false;
  std::string metrics_json;  ///< end-of-run unified metrics snapshot
};

SmrRunResult run_smr_kv(std::size_t n, const sim::FabricParams& fabric,
                        std::size_t value_bytes, std::size_t cmds_per_round,
                        std::size_t rounds) {
  smr::SimKvOptions opt;
  opt.cluster.n = n;
  opt.cluster.fabric = fabric;
  smr::SimKvCluster cluster(opt);

  std::vector<smr::KvSession> sessions;
  sessions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sessions.push_back(cluster.make_session());
  }
  const smr::Bytes value(value_bytes, 0x61);
  const auto load = [&](NodeId who) {
    for (std::size_t k = 0; k < cmds_per_round; ++k) {
      const auto key =
          smr::to_bytes("key-" + std::to_string((who + k * 131) % 256));
      cluster.submit(who, sessions[who], smr::Command::put(key, value));
    }
  };

  cluster.on_deliver = [&](NodeId who, const core::RoundResult& r, TimeNs) {
    if (r.round + 1 < rounds) {
      load(who);
      cluster.cluster().broadcast_now(who);
    }
  };
  for (NodeId id : cluster.cluster().live_nodes()) load(id);
  cluster.cluster().broadcast_all_now();

  SmrRunResult out;
  out.completed = cluster.cluster().run_until_round_done(
      rounds - 1, sec(600));
  out.metrics_json = cluster.cluster().metrics_json();
  if (!out.completed) return out;
  out.converged = cluster.converged();
  const double secs = to_sec(cluster.sim().now());
  const double applied =
      static_cast<double>(cluster.replica(0).commands_applied());
  out.ops_per_sec = applied / secs;
  out.agreement_mbps =
      applied * static_cast<double>(value_bytes) / secs / 1e6;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool smoke = bench::smoke_mode(flags);

  bench::print_title("SMR replicated KV: applied throughput vs n");
  bench::print_note(
      "ops/s = commands applied on every replica per simulated second "
      "(agreement + SMR apply), InfiniBand fabric, 4 cmds/client/round");

  const std::vector<std::int64_t> sizes =
      flags.get_int_list("n", smoke ? std::vector<std::int64_t>{5, 8}
                                    : std::vector<std::int64_t>{8, 16, 32});
  const std::vector<std::int64_t> value_sizes = flags.get_int_list(
      "value-bytes", smoke ? std::vector<std::int64_t>{16}
                           : std::vector<std::int64_t>{16, 256, 1024});
  const std::size_t rounds =
      static_cast<std::size_t>(flags.get_int("rounds", smoke ? 10 : 60));
  const std::size_t cmds =
      static_cast<std::size_t>(flags.get_int("cmds", 4));

  bench::row("%4s %12s %14s %14s %10s", "n", "value B", "ops/s",
             "MB/s agreed", "replicas");
  bool all_ok = true;
  std::vector<std::string> json_rows;
  std::string last_metrics_json;
  for (const std::int64_t n : sizes) {
    for (const std::int64_t vb : value_sizes) {
      const auto r = run_smr_kv(static_cast<std::size_t>(n),
                                sim::FabricParams::infiniband(),
                                static_cast<std::size_t>(vb), cmds, rounds);
      if (!r.metrics_json.empty()) last_metrics_json = r.metrics_json;
      if (!r.completed) {
        bench::row("%4lld %12lld %14s", static_cast<long long>(n),
                   static_cast<long long>(vb), "stalled");
        all_ok = false;
        continue;
      }
      all_ok &= r.converged;
      bench::row("%4lld %12lld %14.0f %14.2f %10s",
                 static_cast<long long>(n), static_cast<long long>(vb),
                 r.ops_per_sec, r.agreement_mbps,
                 r.converged ? "converged" : "DIVERGED");
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "    {\"n\": %lld, \"value_bytes\": %lld, "
                    "\"ops_per_sec\": %.0f, \"agreement_mbps\": %.2f, "
                    "\"converged\": %s}",
                    static_cast<long long>(n), static_cast<long long>(vb),
                    r.ops_per_sec, r.agreement_mbps,
                    r.converged ? "true" : "false");
      json_rows.emplace_back(buf);
    }
  }
  bench::print_title("SMR apply path: steady-state allocations");
  bench::print_note(
      "one Replica over pre-built rounds of 64 B puts and gets, keys and "
      "sessions already seen; heap allocations counted per command");
  const ApplyAllocs apply = measure_apply_allocs(
      8, 8, 256, 64, smoke ? 64 : 512);
  bench::row("%12s %16s", "commands", "allocs/cmd");
  bench::row("%12llu %16.3f", static_cast<unsigned long long>(apply.cmds),
             apply.allocs_per_cmd);

  const std::string json_path = flags.get("json", "");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"smr_kv_throughput\",\n  \"smoke\": %s,"
                 "\n  \"rows\": [\n", smoke ? "true" : "false");
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      std::fprintf(f, "%s%s\n", json_rows[i].c_str(),
                   i + 1 < json_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"apply\": {\"allocs_per_cmd\": %.3f, "
                 "\"cmds\": %llu}",
                 apply.allocs_per_cmd,
                 static_cast<unsigned long long>(apply.cmds));
    bench::write_metrics_key(f, last_metrics_json);
    std::fprintf(f, "}\n");
    std::fclose(f);
    bench::print_note("wrote " + json_path);
  }
  if (!all_ok) {
    std::fprintf(stderr, "bench failed: stall or replica divergence\n");
    return 1;
  }
  // Allocation counts are deterministic, so this is a hard gate: applying
  // a get, or a put to a stored key, must allocate nothing.
  constexpr double kApplyAllocBudget = 0.0;
  if (apply.allocs_per_cmd > kApplyAllocBudget) {
    std::fprintf(stderr,
                 "FAIL: the apply path allocates %.3f times per command in "
                 "steady state (budget %.1f)\n",
                 apply.allocs_per_cmd, kApplyAllocBudget);
    return 1;
  }
  return 0;
}
