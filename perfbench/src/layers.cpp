// Per-layer measurement from outside the program: timed calls into public
// layer functions replayed on a workload's own inputs, the op latency
// budget rebuilt from flight-recorder events, and ratios of the public
// engine counters.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <tuple>
#include <unordered_map>

#include "bench.hpp"
#include "core/batch.hpp"
#include "core/logp_model.hpp"
#include "core/message.hpp"
#include "graph/properties.hpp"
#include "sim/network_model.hpp"
#include "smr/kv_store.hpp"
#include "smr/replica.hpp"

namespace perfbench {

namespace core = allconcur::core;
namespace net = allconcur::net;
using allconcur::obs::Event;
using allconcur::obs::EventKind;

namespace {

/// Replays touch at most this many payload bytes (bounds replay time and
/// memory on the 4 KiB-request workload).
constexpr std::size_t kReplayBytes = 8u << 20;
/// Timed passes per replay; the median pass is reported.
constexpr int kPasses = 5;

double elapsed_ns(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0);
}

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c);
  return buf;
}

}  // namespace

allconcur::smr::Command next_command(allconcur::Rng& rng, std::size_t keys,
                                     std::size_t value_bytes) {
  namespace smr = allconcur::smr;
  char key[24];
  const int len = std::snprintf(key, sizeof(key), "k%llu",
                                static_cast<unsigned long long>(
                                    rng.next_below(keys)));
  smr::Bytes k(key, key + len);
  if (rng.next_below(2) == 0) {
    smr::Bytes value(value_bytes);
    for (auto& b : value) b = static_cast<std::uint8_t>(rng.next_u64());
    return smr::Command::put(std::move(k), std::move(value));
  }
  return smr::Command::get(std::move(k));
}

std::uint16_t pick_base_port(std::uint64_t seed, std::size_t n) {
  const std::uint32_t span = 30000;
  std::uint32_t base = 20000 + static_cast<std::uint32_t>((seed * 7919) % span);
  for (int attempt = 0; attempt < 200; ++attempt) {
    bool ok = true;
    std::vector<int> fds;
    for (std::size_t i = 0; i < n && ok; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        ok = false;
        break;
      }
      fds.push_back(fd);
      const int one = 1;
      setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
      ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    }
    for (int fd : fds) ::close(fd);
    if (ok) return static_cast<std::uint16_t>(base);
    base = 20000 + (base - 20000 + 97) % span;
  }
  return static_cast<std::uint16_t>(base);
}

void report_windowed(const std::vector<TcpPhase>& phases,
                     std::vector<double> setup, double late_limit_x,
                     Result& out) {
  std::vector<double> p50, p99, window_p99, rate, mbps, cpu, late;
  std::uint64_t started = 0, completed = 0, windows = 0;
  for (const TcpPhase& ph : phases) {
    const auto& marks = ph.window.marks();
    const std::size_t k = marks.size() < 2 ? 0 : marks.size() - 1;
    std::vector<std::vector<double>> lat(k);
    std::vector<std::uint64_t> done(k, 0), bytes(k, 0);
    const auto window_of = [&marks, k](std::int64_t t) -> std::size_t {
      if (k == 0 || t < marks.front().first || t >= marks.back().first) {
        return k;
      }
      const auto it = std::upper_bound(
          marks.begin(), marks.end(), t,
          [](std::int64_t v, const auto& m) { return v < m.first; });
      return static_cast<std::size_t>(it - marks.begin()) - 1;
    };
    for (const OpSample& op : ph.ops) {
      if (const std::size_t i = window_of(op.start); i < k) {
        lat[i].push_back(static_cast<double>(op.done - op.start) / 1e3);
        ++started;
      }
      if (const std::size_t i = window_of(op.done); i < k) {
        ++done[i];
        bytes[i] += op.bytes;
        ++completed;
      }
    }
    std::vector<double> pooled;
    for (std::size_t i = 0; i < k; ++i) {
      pooled.insert(pooled.end(), lat[i].begin(), lat[i].end());
      if (!lat[i].empty()) window_p99.push_back(quantile(lat[i], 0.99));
      if (done[i] == 0) continue;
      const double secs =
          static_cast<double>(marks[i + 1].first - marks[i].first) / 1e9;
      rate.push_back(static_cast<double>(done[i]) / secs);
      mbps.push_back(static_cast<double>(bytes[i]) / secs / 1e6);
      cpu.push_back((marks[i + 1].second - marks[i].second) * 1e6 /
                    static_cast<double>(done[i]));
      ++windows;
    }
    if (pooled.empty()) continue;
    if (ph.late_p99_us >= 0) late.push_back(ph.late_p99_us);
    p50.push_back(quantile(pooled, 0.5));
    p99.push_back(quantile(pooled, 0.99));
    out.notes.push_back(
        fmt("lifetime %.0f: latency p50 %.1f us, p99 %.1f us, ",
            static_cast<double>(&ph - phases.data()), p50.back(),
            p99.back()) +
        fmt("p99.9 %.1f us, max %.1f us", quantile(pooled, 0.999),
            pooled.back()));
  }
  out.e2e("setup_s", quantile(setup, 0.5), "s", setup.size());
  out.e2e("op_p50_us", quantile(p50, 0.5), "us", started);
  out.e2e("op_p99_us", quantile(window_p99, 0.5), "us", started);
  out.e2e("ops_per_s", quantile(rate, 0.5), "1/s", completed);
  out.e2e("payload_MBps", quantile(mbps, 0.5), "MB/s", completed);
  out.e2e("cpu_us_per_op", quantile(cpu, 0.5), "us", completed);
  out.layer("op.pooled_p99_us", quantile(p99, 0.5), "us", started);
  if (!late.empty()) {
    const double late_p99 = quantile(late, 0.5);
    const double limit = late_limit_x * quantile(p50, 0.5);
    out.notes.push_back(
        fmt("generator: gen_late_p99_us %.1f (median over the lifetimes of "
            "each one's pooled p99; limit %.1f = %g x op_p50_us)",
            late_p99, limit, late_limit_x));
    out.check(late_p99 <= limit,
              fmt("generator fell behind its schedule (gen_late_p99_us %.1f, "
                  "limit %.1f): run invalid",
                  late_p99, limit));
  }
  out.notes.push_back(
      "end-to-end figures: op_p50_us over each lifetime's pooled ops, median "
      "over " + std::to_string(p50.size()) + " lifetimes; op_p99_us, "
      "throughput and CPU, median over " + std::to_string(windows) +
      " sub-windows; per-layer op.pooled_p99_us " +
      fmt("%.1f us (each lifetime's pooled p99, median over the lifetimes)",
          quantile(p99, 0.5)));
}

Result run_tcp_workload(
    const Args& args, std::size_t setups, std::size_t lifetimes,
    double extra_s, double late_limit_x,
    const std::function<double(std::uint64_t, Result&)>& setup_only,
    const TcpPhaseFn& phase) {
  Result out;
  std::vector<double> setup;
  for (std::size_t i = lifetimes; i < setups; ++i) {
    setup.push_back(setup_only(args.seed + i, out));
  }
  const double seconds = args.seconds / static_cast<double>(lifetimes);
  std::vector<TcpPhase> plain, timed;
  Result layers;
  for (std::size_t i = 0; i < lifetimes && out.correct(); ++i) {
    plain.push_back(phase(args.seed + i, seconds,
                          net::TcpNodeOptions{}.recorder_capacity,
                          Mode::kPlain, out));
    setup.push_back(plain.back().setup_s);
    out.attempted += plain.back().attempted;
    out.failed += plain.back().failed;
    if (!args.trace || !out.correct() || !layers.correct()) continue;
    const auto capacity = static_cast<std::size_t>(
        1.5 * plain.back().events_per_s * (seconds + extra_s) + 4096);
    timed.push_back(phase(args.seed + i, seconds, capacity,
                          i == 0 ? Mode::kTraced : Mode::kTimed, layers));
  }
  report_windowed(plain, setup, late_limit_x, out);
  if (!args.trace || !out.correct()) return out;

  // Tracing overhead: the instrumented lifetimes against the plain ones of
  // the same seeds, run in alternation.
  Result timed_e2e;
  report_windowed(timed, {0.0}, late_limit_x, timed_e2e);
  std::uint64_t timed_ops = 0;
  for (const TcpPhase& ph : timed) timed_ops += ph.ops.size();
  const auto value = [](const Result& r, const std::string& name) {
    for (const auto& m : r.end_to_end) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  layers.layer("obs.trace_overhead_p50_pct",
               overhead_pct(value(timed_e2e, "op_p50_us"),
                            value(out, "op_p50_us")),
               "%", timed_ops);
  layers.layer("obs.trace_overhead_cpu_pct",
               overhead_pct(value(timed_e2e, "cpu_us_per_op"),
                            value(out, "cpu_us_per_op")),
               "%", timed_ops);
  out.per_layer.insert(out.per_layer.end(), layers.per_layer.begin(),
                       layers.per_layer.end());
  out.unmeasured = std::move(layers.unmeasured);
  for (auto& n : layers.notes) out.notes.push_back(std::move(n));
  for (auto& f : layers.failures) out.fail("traced run: " + f);
  return out;
}

void replay_codec(const Rounds& rounds, Result& out) {
  std::vector<core::Message> msgs;
  std::size_t bytes = 0;
  for (const auto& r : rounds) {
    for (const auto& d : r.deliveries) {
      if (!d.payload || bytes >= kReplayBytes) continue;
      msgs.push_back(core::Message::bcast(r.round, d.origin, d.payload));
      bytes += d.payload->size();
    }
  }
  if (msgs.empty() || bytes == 0) {
    const char* why = "the run delivered no payload";
    out.not_measured("message.encode_ns_per_KiB", "ns/KiB", why);
    out.not_measured("message.parse_ns_per_KiB", "ns/KiB", why);
    out.not_measured("batch.unpack_ns_per_req", "ns", why);
    return;
  }
  const double kib = static_cast<double>(bytes) / 1024.0;

  std::vector<double> enc, parse, unpack;
  std::vector<core::FrameRef> frames;
  frames.reserve(msgs.size());
  for (int p = 0; p < kPasses; ++p) {
    frames.clear();
    const std::int64_t t0 = now_ns();
    for (const auto& m : msgs) frames.push_back(core::Frame::make(m));
    enc.push_back(elapsed_ns(t0) / kib);
  }

  std::vector<std::uint8_t> stream;
  for (const auto& f : frames) {
    const auto b = f->to_bytes();
    stream.insert(stream.end(), b.begin(), b.end());
  }
  const double stream_kib = static_cast<double>(stream.size()) / 1024.0;
  for (int p = 0; p < kPasses; ++p) {
    core::StreamStats st;
    std::uint64_t seen = 0;
    const std::int64_t t0 = now_ns();
    const std::size_t used = core::parse_stream(
        stream, 0, st, [&](const core::Message& m) { seen += m.payload_bytes; });
    parse.push_back(elapsed_ns(t0) / stream_kib);
    out.check(used == stream.size() && st.frames == frames.size() &&
                  st.corrupt_drops == 0 && seen == bytes,
              "parse_stream did not return the encoded frames intact");
  }

  std::uint64_t reqs = 0;
  for (int p = 0; p < kPasses; ++p) {
    std::uint64_t count = 0;
    const std::int64_t t0 = now_ns();
    for (const auto& m : msgs) {
      const auto batch = core::unpack_batch(m.payload);
      if (batch) count += batch->size();
    }
    const double ns = elapsed_ns(t0);
    reqs = count;
    unpack.push_back(count > 0 ? ns / static_cast<double>(count) : 0);
  }
  out.layer("message.encode_ns_per_KiB", quantile(enc, 0.5), "ns/KiB",
            msgs.size());
  out.layer("message.parse_ns_per_KiB", quantile(parse, 0.5), "ns/KiB",
            frames.size());
  out.layer("batch.unpack_ns_per_req", quantile(unpack, 0.5), "ns", reqs);
}

void replay_replica(const Rounds& rounds, bool report_duplicates,
                    Result& out) {
  Rounds renumbered;
  std::uint64_t reqs = 0;
  std::size_t bytes = 0;
  for (const auto& r : rounds) {
    if (bytes >= kReplayBytes) break;
    core::RoundResult c = r;
    c.round = renumbered.size();
    renumbered.push_back(std::move(c));
    for (const auto& d : r.deliveries) {
      if (!d.payload) continue;
      bytes += d.payload->size();
      if (const auto batch = core::unpack_batch(d.payload)) reqs += batch->size();
    }
  }
  if (reqs == 0) {
    out.not_measured("smr.apply_ns_per_cmd", "ns",
                     "the run delivered no request");
    return;
  }
  std::vector<double> per_cmd;
  std::uint64_t duplicates = 0;
  for (int p = 0; p < kPasses; ++p) {
    allconcur::smr::Replica replica(std::make_unique<allconcur::smr::KvStore>());
    const std::int64_t t0 = now_ns();
    for (const auto& r : renumbered) replica.on_round(r);
    per_cmd.push_back(elapsed_ns(t0) / static_cast<double>(reqs));
    duplicates = replica.duplicates_suppressed();
  }
  out.layer("smr.apply_ns_per_cmd", quantile(per_cmd, 0.5), "ns", reqs);
  if (report_duplicates) {
    out.layer("smr.duplicates_suppressed", static_cast<double>(duplicates),
              "count", reqs);
  }
}

std::vector<allconcur::net::TcpNetStats> snapshot_net(
    const std::vector<const allconcur::net::TcpNode*>& nodes) {
  std::vector<allconcur::net::TcpNetStats> out;
  for (const auto* n : nodes) out.push_back(n->net_stats());
  return out;
}

void net_counters(const std::vector<allconcur::net::TcpNetStats>& before,
                  const std::vector<allconcur::net::TcpNetStats>& after,
                  std::uint64_t ops, std::vector<double>& submit_ns,
                  Result& out) {
  double calls = 0, frames = 0, bytes = 0, eagain = 0, partial = 0, drops = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const auto& a = after[i];
    const auto& b = before[i];
    calls += static_cast<double>(a.sendmsg_calls - b.sendmsg_calls);
    frames += static_cast<double>(a.frames_sent - b.frames_sent);
    bytes += static_cast<double>(a.bytes_sent - b.bytes_sent);
    eagain += static_cast<double>(a.eagain_waits - b.eagain_waits);
    partial += static_cast<double>(a.partial_writes - b.partial_writes);
    drops += static_cast<double>(a.checksum_drops);
  }
  const auto n = static_cast<std::uint64_t>(frames);
  out.layer("net.frames_per_sendmsg", calls > 0 ? frames / calls : 0, "count",
            static_cast<std::uint64_t>(calls));
  out.layer("net.wire_bytes_per_op",
            ops > 0 ? bytes / static_cast<double>(ops) : 0, "B", ops);
  out.layer("net.eagain_waits_per_kframe", frames > 0 ? 1e3 * eagain / frames : 0,
            "count", n);
  out.layer("net.partial_writes_per_kframe",
            frames > 0 ? 1e3 * partial / frames : 0, "count", n);
  out.layer("net.submit_call_ns", quantile(submit_ns, 0.5), "ns",
            submit_ns.size());
  out.layer("net.checksum_drops", drops, "count", n);
  out.check(drops == 0, "frames failed their checksum on a clean network");
}

void replay_engines(const Rounds& rounds, std::size_t n, std::size_t window,
                    Result& out) {
  // Requests per round per origin, materialized before the clock starts.
  std::vector<std::vector<std::vector<core::Request>>> load;
  std::size_t bytes = 0;
  for (const auto& r : rounds) {
    if (bytes >= kReplayBytes) break;
    std::vector<std::vector<core::Request>> per_node(n);
    for (const auto& d : r.deliveries) {
      if (!d.payload || d.origin >= n) continue;
      bytes += d.payload->size();
      if (auto batch = core::unpack_batch(d.payload)) {
        per_node[d.origin] = std::move(*batch);
      }
    }
    load.push_back(std::move(per_node));
  }
  const std::size_t warm = std::min<std::size_t>(8, load.size() / 4);
  if (load.size() - warm < 4) {
    out.not_measured("engine.ns_per_round_per_node", "ns",
                     "too few rounds captured");
    out.not_measured("engine.allocs_per_round_per_node", "count",
                     "too few rounds captured");
    return;
  }

  const core::GraphBuilder builder = core::make_default_graph_builder();
  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
  std::deque<std::tuple<NodeId, NodeId, core::FrameRef>> queue;
  std::uint64_t delivered = 0;
  std::vector<std::unique_ptr<core::Engine>> engines;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<NodeId>(i);
    core::Engine::Hooks hooks;
    hooks.send = [&queue, id](NodeId dst, const core::FrameRef& f) {
      queue.emplace_back(id, dst, f);
    };
    hooks.deliver = [&delivered](const core::RoundResult&) { ++delivered; };
    core::EngineOptions opts;
    opts.window = window;
    engines.push_back(std::make_unique<core::Engine>(
        id, core::View(members, builder), builder, hooks, opts));
  }
  const auto run_round = [&](std::vector<std::vector<core::Request>>& reqs) {
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& q : reqs[i]) engines[i]->submit(std::move(q));
      engines[i]->broadcast_now();
    }
    while (!queue.empty()) {
      auto [src, dst, f] = std::move(queue.front());
      queue.pop_front();
      engines[dst]->on_message(src, f->msg());
    }
  };
  for (std::size_t r = 0; r < warm; ++r) run_round(load[r]);
  const std::uint64_t delivered0 = delivered;
  const std::uint64_t a0 = allocations();
  const std::int64_t t0 = now_ns();
  for (std::size_t r = warm; r < load.size(); ++r) run_round(load[r]);
  const double ns = elapsed_ns(t0);
  const double allocs = static_cast<double>(allocations() - a0);
  const double rounds_done = static_cast<double>(load.size() - warm);
  const double node_rounds = rounds_done * static_cast<double>(n);
  out.check(delivered - delivered0 == (load.size() - warm) * n,
            "engine loopback replay did not deliver every round everywhere");
  out.layer("engine.ns_per_round_per_node", ns / node_rounds, "ns",
            load.size() - warm);
  out.layer("engine.allocs_per_round_per_node", allocs / node_rounds, "count",
            load.size() - warm);
}

void engine_counters(const std::vector<core::EngineStats>& stats,
                     std::uint64_t requests, std::size_t crashes,
                     Result& out) {
  double recv = 0, node_rounds = 0, resets = 0, ahead = 0, fails = 0;
  double max_rounds = 0;
  for (const auto& s : stats) {
    recv += static_cast<double>(s.bcast_received + s.ubcast_received +
                                s.fail_received + s.fwd_bwd_received +
                                s.fallback_received);
    node_rounds += static_cast<double>(s.rounds_completed);
    max_rounds = std::max(max_rounds, static_cast<double>(s.rounds_completed));
    resets += static_cast<double>(s.tracking_resets);
    ahead += static_cast<double>(s.dropped_ahead);
    fails += static_cast<double>(s.fail_sent);
  }
  const auto rounds_n = static_cast<std::uint64_t>(max_rounds);
  out.layer("engine.msgs_per_round_per_node",
            node_rounds > 0 ? recv / node_rounds : 0, "count", rounds_n);
  out.layer("engine.reqs_per_round",
            max_rounds > 0 ? static_cast<double>(requests) / max_rounds : 0,
            "count", rounds_n);
  out.layer("engine.tracking_resets_per_round",
            node_rounds > 0 ? resets / node_rounds : 0, "count", rounds_n);
  out.layer("engine.dropped_ahead", ahead, "count", rounds_n);
  if (crashes > 0) {
    out.layer("engine.fail_msgs_per_crash",
              fails / static_cast<double>(crashes), "count", crashes);
  }
}

void crash_metrics(const std::vector<std::vector<Event>>& events,
                   NodeId crashed, std::int64_t t_crash, Round new_view_round,
                   Result& out) {
  constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();
  std::int64_t suspect = kNone, opened = kNone;
  for (std::size_t node = 0; node < events.size(); ++node) {
    if (node == crashed) continue;
    for (const Event& e : events[node]) {
      if (e.kind == EventKind::kSuspect && e.a == crashed && e.t >= t_crash) {
        suspect = std::min(suspect, e.t);
      }
      if (e.kind == EventKind::kRoundOpen && e.round == new_view_round) {
        opened = std::min(opened, e.t);
      }
    }
  }
  if (suspect == kNone) {
    out.fail("no survivor suspected the crashed node");
    return;
  }
  out.layer("fd.detect_ms", static_cast<double>(suspect - t_crash) / 1e6, "ms",
            1);
  if (opened == kNone) {
    out.fail("no survivor opened a round of the view without the crashed node");
    return;
  }
  out.layer("view.drain_ms",
            static_cast<double>(std::max<std::int64_t>(0, opened - suspect)) /
                1e6,
            "ms", 1);
}

void failover_gap(std::vector<std::int64_t> done, std::int64_t t_crash,
                  Result& out) {
  if (done.empty()) {
    out.fail("no op completed after the crash");
    return;
  }
  std::sort(done.begin(), done.end());
  std::int64_t prev = t_crash, gap = 0;
  for (const std::int64_t t : done) {
    gap = std::max(gap, t - prev);
    prev = t;
  }
  out.layer("fd.failover_gap_ms", static_cast<double>(gap) / 1e6, "ms",
            done.size());
}

void op_budget(const std::vector<OpTrace>& ops,
               const std::vector<std::vector<Event>>& events, std::size_t n,
               double tolerance_pct, Result& out) {
  struct RoundTimes {
    std::int64_t open = -1, bcast = -1, last_recv = -1, complete = -1,
                 delivered = -1;
  };
  std::vector<std::unordered_map<Round, RoundTimes>> times(events.size());
  for (std::size_t node = 0; node < events.size(); ++node) {
    auto& map = times[node];
    for (const Event& e : events[node]) {
      RoundTimes& t = map[e.round];
      switch (e.kind) {
        case EventKind::kRoundOpen:
          if (t.open < 0) t.open = e.t;
          break;
        case EventKind::kBcastSent:
          if (t.bcast < 0) t.bcast = e.t;
          break;
        case EventKind::kMsgRecv:
          t.last_recv = std::max(t.last_recv, e.t);
          break;
        case EventKind::kComplete:
        case EventKind::kFastComplete:
          if (t.complete < 0) t.complete = e.t;
          break;
        case EventKind::kDelivered:
          if (t.delivered < 0) t.delivered = e.t;
          break;
        default:
          break;
      }
    }
  }

  std::vector<double> batch, window, diss, term, inorder, apply, e2e, round_ns;
  // Integer sums for the residual: on a virtual clock it is exactly 0.
  std::int64_t seg_sum = 0, e2e_sum = 0;
  std::uint64_t unmapped = 0;
  for (const OpTrace& op : ops) {
    if (op.contact >= times.size()) {
      ++unmapped;
      continue;
    }
    const auto it = times[op.contact].find(op.round);
    if (it == times[op.contact].end() || it->second.bcast < 0 ||
        it->second.complete < 0 || it->second.delivered < 0) {
      ++unmapped;
      continue;
    }
    const RoundTimes& t = it->second;
    const auto seg = [&seg_sum](std::int64_t a, std::int64_t b) {
      const std::int64_t d = std::max<std::int64_t>(0, b - a);
      seg_sum += d;
      return static_cast<double>(d);
    };
    // Failure-free rounds end with the last message received; rounds
    // decided by tracking (a crashed origin) may complete without one.
    const std::int64_t recv = std::max(t.last_recv, t.bcast);
    const std::int64_t open = t.open < 0 ? t.bcast : std::min(t.open, t.bcast);
    batch.push_back(seg(op.start, t.bcast));
    window.push_back(std::min(
        batch.back(),
        static_cast<double>(std::max<std::int64_t>(0, open - op.start))));
    diss.push_back(seg(t.bcast, recv));
    term.push_back(seg(recv, t.complete));
    inorder.push_back(seg(t.complete, t.delivered));
    apply.push_back(seg(t.delivered, op.done));
    e2e.push_back(static_cast<double>(op.done - op.start));
    e2e_sum += op.done - op.start;
    round_ns.push_back(
        static_cast<double>(std::max<std::int64_t>(0, t.delivered - t.bcast)));
  }
  if (e2e.empty()) {
    const char* why = "no op could be matched to recorder events";
    for (const char* m :
         {"op.batch_wait_us", "op.window_wait_us", "op.dissemination_us",
          "op.termination_us", "op.inorder_us", "op.apply_observe_us"}) {
      out.not_measured(m, "us", why);
    }
    out.not_measured("op.budget_residual_pct", "%", why);
    out.not_measured("op.model_ratio", "ratio", why);
    return;
  }
  const std::uint64_t k = e2e.size();
  const double sum = mean(batch) + mean(diss) + mean(term) + mean(inorder) +
                     mean(apply);
  const double lat = mean(e2e);
  const double residual =
      e2e_sum > 0 ? 100.0 * static_cast<double>(e2e_sum - seg_sum) /
                        static_cast<double>(e2e_sum)
                  : 0;
  out.layer("op.batch_wait_us", mean(batch) / 1e3, "us", k);
  out.layer("op.window_wait_us", mean(window) / 1e3, "us", k);
  out.layer("op.dissemination_us", mean(diss) / 1e3, "us", k);
  out.layer("op.termination_us", mean(term) / 1e3, "us", k);
  out.layer("op.inorder_us", mean(inorder) / 1e3, "us", k);
  out.layer("op.apply_observe_us", mean(apply) / 1e3, "us", k);
  out.layer("op.budget_residual_pct", residual, "%", k);
  out.check(std::abs(residual) <= tolerance_pct,
            fmt("op budget segments miss the mean latency by %.3f%% "
                "(tolerance %.3f%%)",
                residual, tolerance_pct));

  // LogP reference line (paper §4) with the TCP/IB fabric parameters the
  // simulator also uses: one round costs max(work, depth).
  const auto g = core::make_default_graph_builder()(n);
  const std::size_t d = g.out_degree(0);
  const std::size_t diam = allconcur::graph::diameter(g).value_or(1);
  const auto fabric = allconcur::sim::FabricParams::tcp_ib();
  const core::LogP logp{static_cast<double>(fabric.latency),
                        static_cast<double>(fabric.overhead)};
  const double depth = core::logp_depth_ns(d, diam, logp);
  const double model = std::max(core::logp_work_bound_ns(n, d, logp), depth);
  out.layer("op.model_ratio", mean(round_ns) / model, "ratio", k);
  out.notes.push_back(fmt(
      "op budget over %.0f ops (%.0f unmatched): mean latency %.3f us", double(k),
      double(unmapped), lat / 1e3));
  out.notes.push_back(fmt(
      "segments sum to %.3f us; residual %.3f%%", sum / 1e3, residual));
  out.notes.push_back(fmt(
      "LogP (n=%.0f, d=%.0f, D=%.0f, L=12us, o=1.8us):", double(n), double(d),
      double(diam)));
  out.notes.push_back(fmt(
      "  dissemination: measured %.3f us vs model depth %.3f us",
      mean(diss) / 1e3, depth / 1e3));
  out.notes.push_back(fmt(
      "  round (bcast->deliver): measured %.3f us vs model %.3f us",
      mean(round_ns) / 1e3, model / 1e3));
  out.notes.push_back(
      "  batch wait, termination, in-order and apply have no model term");
}

}  // namespace perfbench
