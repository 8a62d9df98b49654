// Wire-path micro-benchmarks: the cost of getting one message to d
// successors, measured three ways.
//
//   1. encode+relay — the old per-successor contiguous encode
//      (core::encode once per destination, as the transport did before
//      frames) vs the encode-once shared core::Frame path.
//   2. transmit — one send() syscall per frame vs one vectored sendmsg
//      batching the same frames, over a UNIX socketpair.
//   3. round state — allocations per engine round and rounds/s of an
//      in-process n-engine cluster (the start_round_state pooling).
//
// The "baseline" columns reproduce the pre-frame wire path with the same
// primitives it used, so the speedup column is a like-for-like before/after.
//
//   $ ./wire_path              # full run
//   $ ./wire_path --smoke      # ~1 s shape check
//   $ ./wire_path --json=out.json
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <new>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "graph/gs_digraph.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

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
using core::Frame;
using core::FrameRef;
using core::Message;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// 1. encode+relay: one message to `degree` successors.
// ---------------------------------------------------------------------------

struct RelayResult {
  double baseline_ops = 0;  ///< messages relayed/s, encode per successor
  double frame_ops = 0;     ///< messages relayed/s, encode-once frames
  double speedup = 0;
};

RelayResult bench_relay(std::size_t payload_bytes, std::size_t degree,
                        std::size_t iters) {
  const Message m = Message::bcast(
      1, 0, core::make_payload(
                std::vector<std::uint8_t>(payload_bytes, 0xab)));
  RelayResult out;
  volatile std::uint64_t sink = 0;

  {
    // Old path: the send hook serialized the full frame once per
    // destination and handed the transport an owned byte vector.
    std::deque<std::vector<std::uint8_t>> wqueue;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      for (std::size_t d = 0; d < degree; ++d) {
        wqueue.push_back(core::encode(m));
        sink += wqueue.back()[Message::kHeaderBytes];
      }
      wqueue.clear();
    }
    out.baseline_ops = static_cast<double>(iters) / seconds_since(t0);
  }
  {
    // New path: one Frame per message; destinations share it by reference.
    std::deque<FrameRef> wqueue;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      const FrameRef f = Frame::make(m);
      for (std::size_t d = 0; d < degree; ++d) {
        wqueue.push_back(f);
        sink += wqueue.back()->header()[0];
      }
      wqueue.clear();
    }
    out.frame_ops = static_cast<double>(iters) / seconds_since(t0);
  }
  out.speedup = out.frame_ops / out.baseline_ops;
  return out;
}

// ---------------------------------------------------------------------------
// 2. transmit: syscalls per flushed batch over a socketpair.
// ---------------------------------------------------------------------------

struct TransmitResult {
  double per_frame_ops = 0;  ///< frames/s with one send() each
  double vectored_ops = 0;   ///< frames/s with one sendmsg per batch
  double speedup = 0;
};

TransmitResult bench_transmit(std::size_t payload_bytes, std::size_t batch,
                              std::size_t iters) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return {};
  // A draining reader so the writer never blocks on a full buffer.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::vector<std::uint8_t> buf(1 << 20);
    while (!done.load(std::memory_order_acquire)) {
      if (::read(fds[1], buf.data(), buf.size()) <= 0) break;
    }
  });

  std::vector<FrameRef> frames;
  for (std::size_t i = 0; i < batch; ++i) {
    frames.push_back(Frame::make(Message::bcast(
        1, 0,
        core::make_payload(std::vector<std::uint8_t>(payload_bytes, 0x5a)))));
  }
  std::vector<std::vector<std::uint8_t>> contiguous;
  for (const auto& f : frames) contiguous.push_back(f->to_bytes());

  TransmitResult out;
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      for (const auto& bytes : contiguous) {
        if (::send(fds[0], bytes.data(), bytes.size(), MSG_NOSIGNAL) < 0) {
          break;
        }
      }
    }
    out.per_frame_ops =
        static_cast<double>(iters * batch) / seconds_since(t0);
  }
  {
    std::vector<iovec> iov(2 * batch);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      std::size_t niov = 0;
      for (const auto& f : frames) {
        const auto header = f->header();
        iov[niov].iov_base = const_cast<std::uint8_t*>(header.data());
        iov[niov].iov_len = header.size();
        ++niov;
        const core::Payload& p = f->wire_payload();
        if (p) {
          iov[niov].iov_base = const_cast<std::uint8_t*>(p->data());
          iov[niov].iov_len = p->size();
          ++niov;
        }
      }
      msghdr mh{};
      mh.msg_iov = iov.data();
      mh.msg_iovlen = niov;
      if (::sendmsg(fds[0], &mh, MSG_NOSIGNAL) < 0) break;
    }
    out.vectored_ops =
        static_cast<double>(iters * batch) / seconds_since(t0);
  }
  done.store(true, std::memory_order_release);
  ::shutdown(fds[0], SHUT_RDWR);
  ::close(fds[0]);
  reader.join();
  ::close(fds[1]);
  out.speedup = out.vectored_ops / out.per_frame_ops;
  return out;
}

// ---------------------------------------------------------------------------
// 3. round state: allocations per round on an in-process engine cluster.
// ---------------------------------------------------------------------------

struct RoundResultBench {
  double allocs_per_round_per_node = 0;
  double rounds_per_sec = 0;
  core::EngineStats node0_stats;  ///< for the --json metrics snapshot
};

/// `with_obs` wires a default-sized flight recorder (no time source) into
/// every engine, with causal tracing sampling 1 round in 64 into the same
/// ring — the enabled-observability configuration the ≤5% overhead gate
/// below compares against this function's plain mode. `wire_codec` routes
/// every hop through the serialize → checksum-verify → copy path the TCP
/// transport executes per frame; without it messages pass by reference
/// (the round-state section wants the bare engine loop, the overhead gate
/// wants the deployment's real per-hop cost).
RoundResultBench bench_rounds(std::size_t n, std::size_t payload_bytes,
                              std::size_t rounds, bool with_obs = false,
                              bool wire_codec = false) {
  const core::GraphBuilder builder = [](std::size_t size) {
    return graph::make_gs_digraph(size, 3);
  };
  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);

  std::deque<std::tuple<NodeId, NodeId, FrameRef>> queue;
  std::vector<std::unique_ptr<obs::FlightRecorder>> rings;
  // Shared hop-latency histogram: the engine reads its running mean on
  // every sampled relay, so the gate pays the real estimate-stamping cost.
  static obs::Histogram hop_hist;
  std::vector<std::unique_ptr<Engine>> engines;
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    Engine::Hooks hooks;
    hooks.send = [&queue, id](NodeId dst, const FrameRef& f) {
      queue.emplace_back(id, dst, f);
    };
    hooks.deliver = [&delivered](const core::RoundResult&) { ++delivered; };
    Engine::Options eopts;
    if (with_obs) {
      rings.push_back(std::make_unique<obs::FlightRecorder>());
      eopts.recorder = rings.back().get();
      eopts.trace_sample_period = 64;
      eopts.hop_histogram = &hop_hist;
    }
    engines.push_back(std::make_unique<Engine>(
        id, core::View(members, builder), builder, hooks, eopts));
  }

  const auto run_round = [&] {
    for (auto& e : engines) {
      e->submit_opaque(payload_bytes);
      e->broadcast_now();
    }
    while (!queue.empty()) {
      auto [src, dst, f] = queue.front();
      queue.pop_front();
      if (wire_codec) {
        const std::vector<std::uint8_t> bytes = f->to_bytes();
        if (const auto m =
                core::decode(std::span<const std::uint8_t>(bytes))) {
          engines[dst]->on_message(src, *m);
        }
      } else {
        engines[dst]->on_message(src, f->msg());
      }
    }
  };

  // Warmup fills every pool (tracking digraphs, queues, flag vectors).
  for (int i = 0; i < 3; ++i) run_round();

  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) run_round();
  const double secs = seconds_since(t0);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;

  RoundResultBench out;
  out.allocs_per_round_per_node = static_cast<double>(allocs) /
                                  static_cast<double>(rounds) /
                                  static_cast<double>(n);
  out.rounds_per_sec = static_cast<double>(rounds) / secs;
  out.node0_stats = engines[0]->stats();
  return out;
}

}  // namespace
}  // namespace allconcur

int main(int argc, char** argv) {
  using namespace allconcur;
  const Flags flags(argc, argv);
  const bool smoke = bench::smoke_mode(flags);

  const std::size_t relay_iters = smoke ? 20'000 : 400'000;
  const std::size_t tx_iters = smoke ? 2'000 : 40'000;
  const std::size_t rounds = smoke ? 50 : 500;
  const std::size_t degree =
      static_cast<std::size_t>(flags.get_int("degree", 6));

  bench::print_title("Wire path: encode-once shared frames");
  bench::print_note(
      "baseline = pre-frame path (contiguous encode per successor, one "
      "syscall per frame); ops are whole messages relayed to all "
      "successors");

  bench::row("%10s %7s %16s %16s %9s", "payload B", "degree",
             "baseline msg/s", "frames msg/s", "speedup");
  const std::vector<std::int64_t> payloads = flags.get_int_list(
      "payload-bytes", smoke ? std::vector<std::int64_t>{64, 4096}
                             : std::vector<std::int64_t>{16, 64, 512, 4096,
                                                         65536});
  RelayResult relay_last;
  double frame_ops_64 = 0, frame_ops_4k = 0;  // for the size-independence gate
  for (const std::int64_t p : payloads) {
    const auto r = bench_relay(static_cast<std::size_t>(p), degree,
                               static_cast<std::size_t>(p) > 8192
                                   ? relay_iters / 10
                                   : relay_iters);
    bench::row("%10lld %7zu %16.0f %16.0f %8.1fx",
               static_cast<long long>(p), degree, r.baseline_ops,
               r.frame_ops, r.speedup);
    if (p == 64) frame_ops_64 = r.frame_ops;
    if (p == 4096) frame_ops_4k = r.frame_ops;
    relay_last = r;
  }
  // Relaying a payload must not re-read its bytes: the payload checksum is
  // computed once and cached on the shared bytes, so a 4 KiB relay costs
  // about what a 64 B one does. Both figures come from this run, so the
  // ratio does not depend on the host's speed. 0 when either size is
  // missing from --payload-bytes (gate skipped).
  const double relay_size_ratio =
      frame_ops_64 > 0 ? frame_ops_4k / frame_ops_64 : 0.0;
  if (relay_size_ratio > 0) {
    bench::print_note("frame relay msgs/s, 4096 B vs 64 B: " +
                      std::to_string(relay_size_ratio) +
                      "x (>= 0.5x asserted)");
  }

  bench::print_title("Transmit: vectored sendmsg vs send-per-frame");
  bench::row("%10s %7s %16s %16s %9s", "payload B", "batch",
             "send() frm/s", "sendmsg frm/s", "speedup");
  const auto tx = bench_transmit(smoke ? 256 : 1024, 16, tx_iters);
  bench::row("%10d %7d %16.0f %16.0f %8.1fx", smoke ? 256 : 1024, 16,
             tx.per_frame_ops, tx.vectored_ops, tx.speedup);

  bench::print_title("Round state: pooled per-round allocations");
  bench::print_note(
      "in-process GS(n,3) cluster, size-only payloads; allocations counted "
      "per round per node after warmup (frames + queue included)");
  bench::row("%6s %12s %22s %14s", "n", "payload B", "allocs/round/node",
             "rounds/s");
  const auto rr = bench_rounds(smoke ? 8 : 16, 1024, rounds);
  bench::row("%6d %12d %22.1f %14.0f", smoke ? 8 : 16, 1024,
             rr.allocs_per_round_per_node, rr.rounds_per_sec);

  // ---- Observability overhead gate (tentpole acceptance: <= 5%) ----
  // Same engine cluster, one flight recorder per engine holding events
  // and spans sampled 1/64 vs none, every hop routed through the real
  // wire path (serialize, checksum verify, payload copy) — the per-hop
  // cost any deployment actually pays, which the bare by-reference loop
  // above deliberately skips. Machine throughput here drifts by ~10% on
  // 50 ms timescales, so comparing two independent best-of runs cannot
  // resolve a small effect: instead off/on chunks run back-to-back in
  // alternating order and the gate takes the MEDIAN of the per-pair
  // ratios — each pair sees near-identical machine conditions, and the
  // median discards pairs a noise spike split.
  bench::print_title(
      "Observability: one event ring, spans sampled 1/64 (wire path)");
  const std::size_t obs_n = 8;
  const std::size_t obs_rounds = smoke ? 200 : 400;
  const std::size_t obs_pairs = smoke ? 56 : 64;
  Summary obs_ratios;
  RoundResultBench best_off, best_on;
  // Discarded warmup chunk: the first codec run pays allocator growth and
  // page faults that would bias whichever configuration goes first.
  (void)bench_rounds(obs_n, 1024, obs_rounds / 2, false, true);
  for (std::size_t pair = 0; pair < obs_pairs; ++pair) {
    RoundResultBench off, on;
    if (pair % 2 == 0) {
      off = bench_rounds(obs_n, 1024, obs_rounds, false, true);
      on = bench_rounds(obs_n, 1024, obs_rounds, true, true);
    } else {
      on = bench_rounds(obs_n, 1024, obs_rounds, true, true);
      off = bench_rounds(obs_n, 1024, obs_rounds, false, true);
    }
    obs_ratios.add(off.rounds_per_sec / on.rounds_per_sec);
    if (off.rounds_per_sec > best_off.rounds_per_sec) best_off = off;
    if (on.rounds_per_sec > best_on.rounds_per_sec) best_on = on;
  }
  const double obs_overhead_pct = 100.0 * (obs_ratios.median() - 1.0);
  bench::row("%6s %18s %18s %12s", "n", "off rounds/s", "on rounds/s",
             "overhead");
  bench::row("%6zu %18.0f %18.0f %11.1f%%", obs_n, best_off.rounds_per_sec,
             best_on.rounds_per_sec, obs_overhead_pct);

  const std::string json_path = flags.get("json", "");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"wire_path\",\n"
        "  \"smoke\": %s,\n"
        "  \"encode_relay\": {\"baseline_msgs_per_sec\": %.0f, "
        "\"frame_msgs_per_sec\": %.0f, \"speedup\": %.2f, "
        "\"size_ratio_4096_over_64\": %.3f},\n"
        "  \"transmit\": {\"send_per_frame_frames_per_sec\": %.0f, "
        "\"vectored_frames_per_sec\": %.0f, \"speedup\": %.2f},\n"
        "  \"round_state\": {\"allocs_per_round_per_node\": %.1f, "
        "\"rounds_per_sec\": %.0f},\n"
        "  \"obs_overhead\": {\"disabled_rounds_per_sec\": %.0f, "
        "\"enabled_rounds_per_sec\": %.0f, \"overhead_pct\": %.2f}",
        smoke ? "true" : "false", relay_last.baseline_ops,
        relay_last.frame_ops, relay_last.speedup, relay_size_ratio,
        tx.per_frame_ops,
        tx.vectored_ops, tx.speedup, rr.allocs_per_round_per_node,
        rr.rounds_per_sec, best_off.rounds_per_sec, best_on.rounds_per_sec,
        obs_overhead_pct);
    bench::write_metrics_key(
        f, bench::metrics_snapshot_json(best_on.node0_stats));
    std::fprintf(f, "}\n");
    std::fclose(f);
    bench::print_note("wrote " + json_path);
  }

  // The zero-copy relay path should beat per-successor encoding clearly;
  // a low ratio hints at a regression in Frame::make. Warning only: this
  // is a timing measurement, and CI runners are noisy neighbors — the
  // uploaded JSON is the trajectory record, not a hard gate.
  if (relay_last.speedup < 1.2) {
    std::fprintf(stderr,
                 "WARNING: frame relay speedup %.2fx < 1.2x (noisy run, or "
                 "a regression in the frame path)\n",
                 relay_last.speedup);
  }
  if (relay_size_ratio > 0 && relay_size_ratio < 0.5) {
    std::fprintf(stderr,
                 "FAIL: 4096 B frame relay at %.2fx the 64 B rate (< 0.5x): "
                 "relay cost grows with payload size\n",
                 relay_size_ratio);
    return 1;
  }
  // Steady-state heap churn is a hard budget, not a timing measurement:
  // allocation counts are deterministic, so a regression here is real.
  // PR 3 measured 24.2 allocs/round/node; the pooled round-state engine
  // sits near 13 — fail loudly if a change regresses past the budget.
  constexpr double kAllocBudget = 30.0;
  if (rr.allocs_per_round_per_node > kAllocBudget) {
    std::fprintf(stderr,
                 "FAIL: %.1f allocs/round/node exceeds the %.1f budget "
                 "(round-state pooling regressed)\n",
                 rr.allocs_per_round_per_node, kAllocBudget);
    return 1;
  }
  // Enabled-mode observability (one ring, spans sampled 1/64) must
  // stay within 5% of the bare engine loop (acceptance gate; median of
  // interleaved pairs, so this holds on noisy runners too — a trip means
  // the record()/trace path grew real work).
  if (obs_overhead_pct > 5.0) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.1f%% exceeds the 5%% "
                 "budget (%.0f rounds/s enabled vs %.0f disabled)\n",
                 obs_overhead_pct, best_on.rounds_per_sec,
                 best_off.rounds_per_sec);
    return 1;
  }
  return 0;
}
