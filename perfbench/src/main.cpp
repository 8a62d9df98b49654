// allconcur_perfbench: the repository benchmark. Runs one workload through
// the shipped public APIs (net::TcpNode, smr::KvNode, smr::SimKvCluster),
// checks the outputs, and prints every metric by name with its unit and
// sample count. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace=0) or the per-layer metrics of
// the traced run (--trace=1). A failed check prints the failures and an
// empty metrics object, and exits 1.
//
//   allconcur_perfbench --workload=kv_sim --seed=3 --seconds=10 --trace=0
//
// The workload parameters are compiled in from perfbench/workloads.json.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <ctime>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "bench.hpp"
#include "common/flags.hpp"

// Process-wide allocation counter (engine.allocs_per_round_per_node).
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t a =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, size == 0 ? 1 : size) == 0) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

void sleep_until_ns(std::int64_t t) {
  thread_local const bool slack_set = prctl(PR_SET_TIMERSLACK, 1UL) == 0;
  (void)slack_set;
  const std::int64_t now = now_ns();
  if (t <= now) return;
  const timespec ts{static_cast<time_t>((t - now) / 1'000'000'000),
                    static_cast<long>((t - now) % 1'000'000'000)};
  nanosleep(&ts, nullptr);
}

namespace {
cpu_set_t initial_cpus() {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    sched_getaffinity(0, sizeof(s), &s);
    return s;
  }();
  return set;
}
}  // namespace

void pin_current_thread(std::size_t slot) {
  const cpu_set_t allowed = initial_cpus();
  if (static_cast<std::size_t>(CPU_COUNT(&allowed)) <= slot) return;
  std::size_t seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (seen++ == slot) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

void unpin_current_thread() {
  const cpu_set_t allowed = initial_cpus();
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

std::size_t cpu_slots() {
  const cpu_set_t allowed = initial_cpus();
  return static_cast<std::size_t>(CPU_COUNT(&allowed));
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench

namespace {

void print_metrics(const char* title,
                   const std::vector<perfbench::Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-34s %16.6g %-8s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const allconcur::Flags flags(argc, argv);
  Args args;
  args.workload = flags.get("workload", "");
  args.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  args.seconds = flags.get_double("seconds", 10);
  args.trace = flags.get_int("trace", 0) != 0;
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  Result r;
  if (args.workload == "bcast_tcp") {
    r = run_bcast_tcp(args);
  } else if (args.workload == "kv_tcp") {
    r = run_kv_tcp(args);
  } else if (args.workload == "kv_sim") {
    r = run_kv_sim(args);
  } else {
    std::fprintf(stderr, "unknown --workload '%s' (bcast_tcp, kv_tcp, kv_sim)\n",
                 args.workload.c_str());
    return 2;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const auto& note : r.notes) std::printf("  # %s\n", note.c_str());
  print_metrics("end-to-end:", r.end_to_end);
  if (args.trace) {
    print_metrics("per-layer (traced run):", r.per_layer);
    for (const auto& u : r.unmeasured) {
      std::printf("  %-34s not measured: %s\n", u.name.c_str(), u.why.c_str());
    }
  }
  for (const auto& f : r.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("attempted %llu failed %llu (failed_frac %.6g)\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0);

  std::string json = "{\"correct\": ";
  json += r.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  if (r.correct()) {
    std::vector<Metric> metrics = args.trace ? r.per_layer : r.end_to_end;
    if (args.trace) {
      for (const auto& u : r.unmeasured) metrics.push_back({u.name, 0, u.unit, 0});
    }
    bool first = true;
    for (const auto& m : metrics) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
      json += buf;
      first = false;
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
