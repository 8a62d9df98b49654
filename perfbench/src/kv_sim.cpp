// Workload kv_sim: smr::SimKvCluster with n=16, window W=4, classic mode,
// the tcp_ib fabric and the heartbeat failure detector. Every node has its
// own seeded Poisson client stream on the virtual clock (same command mix
// as kv_tcp); node `crash_node` fails at a fixed virtual time mid-run and
// its clients retry() at the next live node once their client timeout
// passes. The only workload where the overlay has diameter > 1 and where
// tracking digraphs, FAIL dissemination, the FD and the membership drain
// do real work. Latencies are virtual and, like the counts, exactly
// repeatable for a seed (checked by a self-test in every run); throughput
// and CPU per op are those of the simulator process, per wall second, and
// show the engine cost at n=16. Parameters: params::kv_sim (workloads.json).
//
// Checks: live replicas converge (SimKvCluster::converged()), no corrupt
// frame was delivered, every response is ok or not-found, and the
// determinism self-test.
#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "smr/kv_cluster.hpp"

namespace perfbench {
namespace {

namespace core = allconcur::core;
namespace smr = allconcur::smr;
using allconcur::TimeNs;

namespace P = params::kv_sim;
constexpr std::size_t kNodes = P::n;
constexpr std::size_t kCaptureBytes = 8u << 20;

struct Config {
  double virtual_s = 0;  ///< virtual time of arrivals
  std::size_t recorder_capacity = 1024;
  /// Traced run: recorders are on only from trace_pre_ms before the crash
  /// to trace_post_ms after it (the traced window), which bounds their
  /// memory at n=16; submit calls are timed.
  bool traced = false;
};

struct Op {
  NodeId contact = 0;
  std::size_t session = 0;
  std::uint64_t seq = 0;
  TimeNs due = 0;
  TimeNs done = -1;
  Round round = 0;
  bool retried = false;
};

/// One complete simulated run: cluster, clients, crash, drain.
class SimRun {
 public:
  SimRun(const Config& cfg, std::uint64_t seed) : cfg_(cfg), seed_(seed) {
    smr::SimKvOptions opt;
    opt.cluster.n = kNodes;
    opt.cluster.window = P::window;
    opt.cluster.fabric = allconcur::sim::FabricParams::tcp_ib();
    opt.cluster.heartbeat_fd = true;
    opt.cluster.recorder_capacity = cfg.recorder_capacity;
    opt.cluster.seed = seed;
    const std::int64_t t0 = now_ns();
    kv_ = std::make_unique<smr::SimKvCluster>(opt);
    setup_s_ = static_cast<double>(now_ns() - t0) / 1e9;
  }

  double setup_s() const { return setup_s_; }
  smr::SimKvCluster& kv() { return *kv_; }
  const std::vector<Op>& ops() const { return ops_; }
  TimeNs crash_time() const { return t_crash_; }
  std::optional<Round> removal_round() const { return removal_round_; }
  const Rounds& captured() const { return captured_; }
  std::vector<double>& submit_call_ns() { return submit_ns_; }
  std::uint64_t errors() const { return errors_; }
  double wall_s() const { return wall_s_; }

  /// One virtual-time slice [begin, end): wall and process CPU seconds
  /// spent simulating it, ops completed and node 0's delivered request
  /// bytes in it.
  struct Slice {
    TimeNs begin = 0, end = 0;
    double wall_s = 0;
    double cpu_s = 0;
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
  };
  const std::vector<Slice>& slices() const { return slices_; }

  /// Schedules the clients and the crash; run_slice(1..windows) then
  /// simulates the arrivals and drain() lets outstanding ops finish.
  void start() {
    free_.resize(kNodes);
    for (std::size_t c = 0; c < kNodes; ++c) {
      rngs_.emplace_back(seed_ * 1000003 + c);
    }
    outstanding_.resize(kNodes);
    end_ = static_cast<TimeNs>(cfg_.virtual_s * 1e9);
    t_crash_ = static_cast<TimeNs>(P::crash_frac * cfg_.virtual_s * 1e9);
    ops_.reserve(static_cast<std::size_t>(1.2 * P::rate_per_node * kNodes *
                                          cfg_.virtual_s));
    kv_->on_deliver = [this](NodeId who, const core::RoundResult& r,
                             TimeNs t) { on_deliver(who, r, t); };
    kv_->cluster().crash_at(P::crash_node, t_crash_);
    if (cfg_.traced) {
      set_recorders(false);
      kv_->sim().schedule_at(trace_begin(), [this] { set_recorders(true); });
      kv_->sim().schedule_at(trace_end(), [this] { set_recorders(false); });
    }
    for (std::size_t c = 0; c < kNodes; ++c) schedule_arrival(NodeId(c), 0);
  }

  /// Simulates slice k (1-based) of `windows` equal slices of the virtual
  /// arrival time and records its wall and CPU cost: wall-clock figures
  /// are taken per slice, so a burst of CPU steal spoils one slice, not the
  /// run.
  void run_slice(std::int64_t k) {
    const TimeNs begin = end_ * (k - 1) / P::windows;
    const TimeNs end = end_ * k / P::windows;
    const double cpu0 = cpu_seconds();
    const std::int64_t w0 = now_ns();
    const std::uint64_t ops0 = completed_, bytes0 = node0_bytes_;
    kv_->sim().run_until(end);
    const double cpu_s = cpu_seconds() - cpu0;
    const double wall_s = static_cast<double>(now_ns() - w0) / 1e9;
    slices_.push_back({begin, end, wall_s, cpu_s, completed_ - ops0,
                       node0_bytes_ - bytes0});
    wall_s_ += wall_s;
  }

  void drain() {
    auto& sim = kv_->sim();
    const TimeNs drain_end =
        end_ + static_cast<TimeNs>(P::deadline_ms * 1e6) * 2;
    while (!idle() && sim.now() < drain_end) {
      sim.run_until(sim.now() + allconcur::ms(1));
    }
  }

  bool idle() const {
    for (const auto& o : outstanding_) {
      if (!o.empty()) return false;
    }
    return true;
  }

  /// The traced window (virtual time).
  TimeNs trace_begin() const {
    return std::max<TimeNs>(
        0, t_crash_ - static_cast<TimeNs>(P::trace_pre_ms * 1e6));
  }
  TimeNs trace_end() const {
    return t_crash_ + static_cast<TimeNs>(P::trace_post_ms * 1e6);
  }

 private:
  void set_recorders(bool on) {
    for (NodeId i = 0; i < kNodes; ++i) {
      if (auto* rec = kv_->cluster().recorder(i)) rec->set_enabled(on);
    }
  }

  void schedule_arrival(NodeId c, TimeNs after) {
    const auto gap = static_cast<TimeNs>(
        rngs_[c].next_exponential(1e9 / P::rate_per_node));
    const TimeNs at = after + gap;
    if (at >= end_) return;
    kv_->sim().schedule_at(at, [this, c, at] {
      issue(c, at);
      schedule_arrival(c, at);
    });
  }

  void issue(NodeId c, TimeNs due) {
    auto& rng = rngs_[c];
    const smr::Command cmd = next_command(rng, P::keys, P::value_bytes);
    // A client with no free session opens one; free sessions are reused
    // most recent first, so the sessions in use stay few and warm (about
    // rate x latency per node, more only while the crash stalls rounds).
    if (free_[c].empty()) {
      free_[c].push_back(sessions_.size());
      sessions_.push_back(kv_->make_session());
      owner_.push_back(c);
    }
    const std::size_t s = free_[c].back();
    free_[c].pop_back();
    Op op;
    op.contact = c;
    op.session = s;
    op.due = due;
    const std::size_t k = ops_.size();
    if (cfg_.traced) {
      const std::int64_t t0 = now_ns();
      kv_->submit(c, sessions_[s], cmd);
      submit_ns_.push_back(static_cast<double>(now_ns() - t0));
    } else {
      kv_->submit(c, sessions_[s], cmd);
    }
    op.seq = sessions_[s].last_seq();
    kv_->cluster().broadcast_now(c);
    ops_.push_back(op);
    outstanding_[c].push_back(k);
    schedule_timeout(k);
  }

  /// Client timeout: an op whose contact died retries at the next live
  /// node (exactly-once through the session table).
  void schedule_timeout(std::size_t k) {
    kv_->sim().schedule(static_cast<TimeNs>(P::retry_ms * 1e6), [this, k] {
      Op& op = ops_[k];
      if (op.done >= 0) return;
      if (kv_->cluster().alive(op.contact)) {
        schedule_timeout(k);
        return;
      }
      auto& out = outstanding_[op.contact];
      out.erase(std::find(out.begin(), out.end(), k));
      NodeId next = op.contact;
      do {
        next = static_cast<NodeId>((next + 1) % kNodes);
      } while (!kv_->cluster().alive(next));
      op.contact = next;
      op.retried = true;
      kv_->cluster().submit(
          next, core::Request::of_data(sessions_[op.session].retry()));
      kv_->cluster().broadcast_now(next);
      outstanding_[next].push_back(k);
      schedule_timeout(k);
    });
  }

  void on_deliver(NodeId who, const core::RoundResult& r, TimeNs t) {
    if (!r.removed.empty() && !removal_round_) removal_round_ = r.round;
    if (who == 0) {
      for (const auto& d : r.deliveries) {
        node0_bytes_ += d.payload ? d.payload->size() : 0;
      }
    }
    if (cfg_.traced && who == 0 && captured_bytes_ < kCaptureBytes &&
        r.view_size == kNodes) {
      captured_.push_back(r);
      for (const auto& d : r.deliveries) {
        captured_bytes_ += d.payload ? d.payload->size() : 0;
      }
    }
    if (who >= outstanding_.size()) return;
    auto& out = outstanding_[who];
    if (out.empty()) return;
    const smr::Replica& rep = kv_->replica(who);
    std::vector<std::size_t> still;
    for (const std::size_t k : out) {
      Op& op = ops_[k];
      const auto bytes = rep.response(sessions_[op.session].id(), op.seq);
      if (!bytes) {
        still.push_back(k);
        continue;
      }
      op.done = t;
      op.round = r.round;
      ++completed_;
      const auto resp = smr::decode_response(*bytes);
      if (!resp || (resp->status != smr::KvResponse::Status::kOk &&
                    resp->status != smr::KvResponse::Status::kNotFound)) {
        ++errors_;
      }
      // Sessions return to the pool of the node whose clients own them.
      free_[owner_[op.session]].push_back(op.session);
    }
    out.swap(still);
    if (!out.empty()) kv_->cluster().broadcast_now(who);
  }

  Config cfg_;
  std::uint64_t seed_;
  std::unique_ptr<smr::SimKvCluster> kv_;
  double setup_s_ = 0;
  std::vector<smr::KvSession> sessions_;
  std::vector<NodeId> owner_;  ///< by session: the node whose clients use it
  std::vector<std::vector<std::size_t>> free_;
  std::vector<allconcur::Rng> rngs_;
  std::vector<Op> ops_;
  std::vector<std::vector<std::size_t>> outstanding_;
  TimeNs end_ = 0, t_crash_ = 0;
  std::optional<Round> removal_round_;
  Rounds captured_;
  std::size_t captured_bytes_ = 0;
  std::vector<double> submit_ns_;
  std::uint64_t errors_ = 0;
  std::uint64_t node0_bytes_ = 0;
  std::uint64_t completed_ = 0;
  std::vector<Slice> slices_;
  double wall_s_ = 0;
};

/// Runs `runs` slice by slice in alternation, so a drift of host speed
/// during the run reaches each of them alike, then drains them. `between`
/// runs after every slice, outside its measurement. Slice k runs on the
/// k-th CPU in turn: on a shared VM the CPUs differ in speed by up to a
/// fifth, and a run should not depend on which one the scheduler picked.
void run_alternating(const std::vector<SimRun*>& runs,
                     const std::function<void()>& between = {}) {
  for (SimRun* r : runs) r->start();
  for (std::int64_t k = 1; k <= P::windows; ++k) {
    pin_current_thread(static_cast<std::size_t>(k) % cpu_slots());
    for (SimRun* r : runs) {
      r->run_slice(k);
      if (between) between();
    }
  }
  unpin_current_thread();
  for (SimRun* r : runs) r->drain();
}

/// Digest of everything a seed determines: per-op virtual times, rounds
/// and contacts, node 0's state hash and round count.
std::uint64_t fingerprint(SimRun& run) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const Op& op : run.ops()) {
    mix(static_cast<std::uint64_t>(op.due));
    mix(static_cast<std::uint64_t>(op.done));
    mix(op.round);
    mix(op.contact);
  }
  mix(run.kv().replica(0).state_hash());
  mix(run.kv().cluster().engine(0).stats().rounds_completed);
  return h;
}

/// Same seed, same figures; another seed, other figures (the seed reaches
/// the generator). Runs a short copy of the workload three times.
void determinism_self_test(Config cfg, std::uint64_t seed, Result& out) {
  cfg.virtual_s = std::min(cfg.virtual_s, 0.1);
  const auto digest = [&cfg](std::uint64_t s) {
    SimRun run(cfg, s);
    run_alternating({&run});
    return fingerprint(run);
  };
  const std::uint64_t a = digest(seed), b = digest(seed), c = digest(seed + 1);
  out.check(a == b, "kv_sim is not deterministic: same seed, different runs");
  out.check(a != c, "kv_sim ignores its seed: two seeds, identical runs");
}

}  // namespace

Result run_kv_sim(const Args& args) {
  Result out;
  Config cfg;
  cfg.virtual_s = P::virtual_ms_per_s * args.seconds / 1e3;

  // One extra set-up after every slice: set-ups spread over the whole run
  // are not all caught by the same moment of host load.
  std::vector<double> setup;
  const auto add_setup = [&] {
    setup.push_back(SimRun(cfg, args.seed + setup.size()).setup_s());
  };
  SimRun run(cfg, args.seed);
  setup.push_back(run.setup_s());
  run_alternating({&run}, add_setup);

  // ---- Checks ----
  out.check(run.idle(), "ops still outstanding after the drain");
  out.check(run.kv().converged(), "replica state hashes diverged");
  out.check(run.kv().cluster().corrupt_delivered() == 0,
            "a corrupt frame was delivered");
  out.check(run.errors() == 0, "responses were malformed or errors");
  out.check(run.removal_round().has_value(),
            "the crashed node was never removed from the view");
  determinism_self_test(cfg, args.seed, out);

  // ---- End-to-end figures ----
  const TimeNs t_crash = run.crash_time();
  constexpr double deadline_ns = P::deadline_ms * 1e6;
  std::vector<double> lat;
  out.attempted = run.ops().size();
  for (const Op& op : run.ops()) {
    if (op.done < 0 || static_cast<double>(op.done - op.due) > deadline_ns) {
      ++out.failed;
    }
    if (op.done >= 0 && op.due < t_crash) {
      lat.push_back(static_cast<double>(op.done - op.due) / 1e3);
    }
  }
  const std::size_t pre_crash = lat.size();
  out.e2e("setup_s", quantile(setup, 0.5), "s", setup.size());
  out.e2e("op_p50_us", quantile(lat, 0.5), "us", pre_crash);
  const double p99 = quantile(lat, 0.99);
  out.e2e("op_p99_us", p99, "us", pre_crash);
  // Throughput and CPU of the simulator process: per slice of virtual time,
  // median over the slices.
  std::vector<double> rate, mbps, cpu;
  std::uint64_t slice_ops = 0;
  for (const auto& slice : run.slices()) {
    slice_ops += slice.ops;
    if (slice.ops == 0 || slice.wall_s <= 0) continue;
    rate.push_back(static_cast<double>(slice.ops) / slice.wall_s);
    mbps.push_back(static_cast<double>(slice.bytes) / slice.wall_s / 1e6);
    cpu.push_back(slice.cpu_s * 1e6 / static_cast<double>(slice.ops));
  }
  out.e2e("ops_per_s", quantile(rate, 0.5), "1/s", slice_ops);
  out.e2e("payload_MBps", quantile(mbps, 0.5), "MB/s", slice_ops);
  out.e2e("cpu_us_per_op", quantile(cpu, 0.5), "us", slice_ops);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "virtual run %.0f ms (crash of node %d at %.0f ms) in %.2f s "
                "wall; generator lateness 0 on the virtual clock",
                cfg.virtual_s * 1e3, static_cast<int>(P::crash_node),
                static_cast<double>(t_crash) / 1e6, run.wall_s());
  out.notes.push_back(buf);
  out.notes.push_back("threads: 1 (the simulator), " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      " hardware threads");
  if (!args.trace || !out.correct()) return out;
  out.layer("op.pooled_p99_us", p99, "us", pre_crash);  // one pool here

  // ---- Traced run: the same seed, slices and set-ups as a plain run it
  // alternates with slice by slice; only the recorders (on and large over
  // the traced window) and the timed submit calls differ ----
  std::uint64_t events = 0;
  for (NodeId i = 0; i < kNodes; ++i) {
    events = std::max<std::uint64_t>(
        events, run.kv().cluster().recorder(i)->total_recorded());
  }
  Config traced = cfg;
  traced.traced = true;
  const double window_share =
      (P::trace_pre_ms + P::trace_post_ms) / (cfg.virtual_s * 1e3);
  traced.recorder_capacity = static_cast<std::size_t>(
      2.0 * window_share * static_cast<double>(events) + 4096);
  SimRun tr(traced, args.seed);
  SimRun paired(cfg, args.seed);
  run_alternating({&paired, &tr}, add_setup);
  out.check(fingerprint(tr) == fingerprint(run),
            "recording changed the simulated run");
  std::uint64_t wire_bytes = 0;
  std::vector<core::EngineStats> stats;
  std::vector<std::vector<allconcur::obs::Event>> ev;
  for (NodeId i = 0; i < kNodes; ++i) {
    stats.push_back(tr.kv().cluster().engine(i).stats());
    wire_bytes += stats.back().bytes_sent;
    const auto* rec = tr.kv().cluster().recorder(i);
    ev.push_back(rec->events());
    out.check(rec->dropped() == 0,
              "flight recorder wrapped; raise recorder_capacity");
  }
  const auto done = static_cast<std::uint64_t>(tr.ops().size());
  out.not_measured("net.frames_per_sendmsg", "count",
                   "the simulated fabric has no sendmsg");
  out.layer("net.wire_bytes_per_op",
            static_cast<double>(wire_bytes) / static_cast<double>(done), "B",
            done);
  out.not_measured("net.eagain_waits_per_kframe", "count",
                   "the simulated fabric has no socket buffers");
  out.not_measured("net.partial_writes_per_kframe", "count",
                   "the simulated fabric has no socket buffers");
  out.layer("net.submit_call_ns", quantile(tr.submit_call_ns(), 0.5), "ns",
            tr.submit_call_ns().size());
  out.layer("net.checksum_drops",
            static_cast<double>(tr.kv().cluster().corrupt_dropped()), "count",
            done);
  replay_codec(tr.captured(), out);
  replay_replica(tr.captured(), /*report_duplicates=*/false, out);
  std::uint64_t duplicates = 0;
  for (NodeId i = 0; i < kNodes; ++i) {
    if (tr.kv().cluster().alive(i)) {
      duplicates =
          std::max(duplicates, tr.kv().replica(i).duplicates_suppressed());
    }
  }
  out.layer("smr.duplicates_suppressed", static_cast<double>(duplicates),
            "count", done);
  replay_engines(tr.captured(), kNodes, P::window, out);
  engine_counters(stats, done, 1, out);
  // Budget over the ops due inside the traced window before the crash (a
  // little after its start, so their rounds' events are all recorded).
  const TimeNs from = tr.trace_begin() + allconcur::ms(5);
  std::vector<OpTrace> tr_ops;
  for (const Op& op : tr.ops()) {
    if (op.done < 0 || op.due < from || op.due >= t_crash) continue;
    tr_ops.push_back({op.contact, op.round, op.due, op.done});
  }
  op_budget(tr_ops, ev, kNodes, P::budget_tolerance_pct, out);
  if (tr.removal_round()) {
    crash_metrics(ev, P::crash_node, t_crash, *tr.removal_round() + 1, out);
  }
  std::vector<std::int64_t> done_after;
  for (const Op& op : tr.ops()) {
    if (op.done >= t_crash) done_after.push_back(op.done);
  }
  failover_gap(done_after, t_crash, out);
  // Tracing overhead on process CPU over the slices inside the traced
  // window, where the traced run records into large rings and its paired
  // plain run into the default ones.
  const auto window_cpu = [&tr](const SimRun& r) {
    double cpu_s = 0;
    std::uint64_t ops = 0;
    for (const auto& slice : r.slices()) {
      if (slice.begin < tr.trace_begin() || slice.end > tr.trace_end()) {
        continue;
      }
      cpu_s += slice.cpu_s;
      ops += slice.ops;
    }
    return ops > 0 ? cpu_s * 1e6 / static_cast<double>(ops) : 0.0;
  };
  out.not_measured("obs.trace_overhead_p50_pct", "%",
                   "latency is virtual: recording cannot change it");
  out.layer("obs.trace_overhead_cpu_pct",
            overhead_pct(window_cpu(tr), window_cpu(paired)), "%", done);
  return out;
}

}  // namespace perfbench
