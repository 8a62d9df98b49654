// Workload kv_tcp: three smr::KvNode replicas on localhost with default
// options (window W=1). One generator thread (this one) runs an open loop:
// Poisson arrivals at a fixed offered rate, 64 B values, 50% put and 50%
// get over uniform keys, one outstanding command per client session, and
// contact nodes picked round-robin. Each op is submitted with
// transport().submit() + broadcast_now() and is complete once
// KvNode::response_for() returns its response at the contact replica,
// polled every `poll_us`. Latency runs from the op's due time, so a stalled
// generator shows up as latency and as lateness (reported, and checked
// against `late_limit_x` times the op latency; see report_windowed).
// Parameters: params::kv_tcp (workloads.json).
//
// Per-request and per-round costs dominate here: the mutex+eventfd command
// hop, round cadence, session dedup and the apply under the KvNode mutex.
//
// Checks: every response decodes with status ok or not-found; after the
// load stops, all live replicas reach the same round and the same state
// hash; no frame failed its checksum.
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/batch.hpp"
#include "smr/tcp_kv.hpp"

namespace perfbench {
namespace {

namespace core = allconcur::core;
namespace net = allconcur::net;
namespace smr = allconcur::smr;

namespace P = params::kv_tcp;
constexpr std::size_t kNodes = 3;

struct Op {
  NodeId contact = 0;
  std::size_t session = 0;
  std::uint64_t seq = 0;
  std::int64_t due = 0;
  std::int64_t issued = 0;
  std::int64_t done = -1;
  std::optional<Round> round;  ///< set when the poll pins it to one round
  std::vector<std::uint8_t> envelope;
};

class Cluster {
 public:
  Cluster(std::uint64_t seed, std::size_t recorder_capacity) {
    const std::uint16_t port = pick_base_port(seed, kNodes);
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < kNodes; ++i) members.push_back(NodeId(i));
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kNodes; ++i) {
      net::TcpNodeOptions o;
      o.self = NodeId(i);
      o.members = members;
      o.base_port = port;
      o.recorder_capacity = recorder_capacity;
      nodes_.push_back(std::make_unique<smr::KvNode>(o));
      live_.push_back(true);
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      pin_current_thread(i);
      nodes_[i]->start();
    }
    pin_current_thread(nodes_.size());  // the generator
    connected_ = true;
    for (auto& n : nodes_) {
      connected_ = n->wait_connected(allconcur::sec(10)) && connected_;
    }
    setup_s_ = static_cast<double>(now_ns() - t0) / 1e9;
  }

  smr::KvNode& node(std::size_t i) { return *nodes_[i]; }
  std::size_t size() const { return nodes_.size(); }
  bool live(std::size_t i) const { return live_[i]; }
  void crash(std::size_t i) {
    nodes_[i]->stop();
    live_[i] = false;
  }
  void stop_all() {
    for (auto& n : nodes_) n->stop();
    unpin_current_thread();
  }
  ~Cluster() { stop_all(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  bool connected() const { return connected_; }
  double setup_s() const { return setup_s_; }
  std::vector<const net::TcpNode*> tcps() {
    std::vector<const net::TcpNode*> out;
    for (auto& n : nodes_) out.push_back(&n->transport());
    return out;
  }

 private:
  std::vector<std::unique_ptr<smr::KvNode>> nodes_;
  std::vector<bool> live_;
  bool connected_ = false;
  double setup_s_ = 0;
};

/// The open-loop client population.
class Generator {
 public:
  /// `expected_ops` sizes the op log up front: growing it under load would
  /// stall the generator for the copy and show as lateness.
  Generator(Cluster& c, std::uint64_t seed, std::size_t expected_ops)
      : c_(c), rng_(seed), seen_round_(c.size(), 0), outstanding_(c.size()),
        last_nudge_(c.size(), 0) {
    for (std::size_t s = 0; s < static_cast<std::size_t>(P::sessions); ++s) {
      // Session ids are unique per run and never 0.
      sessions_.emplace_back((seed << 20) + s + 1);
      free_.push_back(s);
    }
    ops_.reserve(expected_ops);
    late_us_.reserve(expected_ops);
    for (auto& o : outstanding_) o.reserve(P::sessions);
  }

  std::vector<Op>& ops() { return ops_; }
  std::vector<double>& lateness_us() { return late_us_; }
  std::vector<double>& submit_call_ns() { return submit_ns_; }
  std::uint64_t errors() const { return errors_; }
  double mean_poll_us() const {
    return polls_ > 0 ? poll_time_ / static_cast<double>(polls_) / 1e3 : 0;
  }
  void set_marks(WindowMarks* marks) { marks_ = marks; }

  /// Issues arrivals due before `until` and polls completions.
  void run_until(std::int64_t until, bool arrivals, bool time_submit) {
    if (next_due_ == 0) next_due_ = now_ns();
    std::int64_t last_poll = now_ns();
    constexpr auto poll_ns = static_cast<std::int64_t>(P::poll_us * 1e3);
    while (now_ns() < until) {
      std::int64_t now = now_ns();
      if (marks_ != nullptr) marks_->poll(now);
      while (arrivals && next_due_ <= now && !free_.empty()) {
        issue(next_due_, time_submit);
        next_due_ += static_cast<std::int64_t>(
            rng_.next_exponential(1e9 / P::rate));
        now = now_ns();
      }
      if (now - last_poll >= poll_ns) {
        poll_time_ += static_cast<double>(now - last_poll);
        ++polls_;
        last_poll = now;
        poll(now);
        now = now_ns();
      }
      // Sleep to the next arrival or poll instead of spinning: the node
      // threads and the kernel's loopback work need the cores.
      std::int64_t wake = std::min(last_poll + poll_ns, until);
      if (arrivals && !free_.empty()) wake = std::min(wake, next_due_);
      sleep_until_ns(wake);
    }
  }

  bool idle() const {
    for (const auto& o : outstanding_) {
      if (!o.empty()) return false;
    }
    return true;
  }

 private:
  NodeId next_contact() {
    for (;;) {
      const NodeId c = static_cast<NodeId>(rr_++ % c_.size());
      if (c_.live(c)) return c;
    }
  }

  void issue(std::int64_t due, bool time_submit) {
    const std::size_t s = free_.front();
    free_.pop_front();
    const smr::Command cmd = next_command(rng_, P::keys, P::value_bytes);
    Op op;
    op.contact = next_contact();
    op.session = s;
    op.envelope = sessions_[s].issue(cmd);
    op.seq = sessions_[s].last_seq();
    op.due = due;
    submit(op.contact, op.envelope, time_submit);
    op.issued = now_ns();
    late_us_.push_back(static_cast<double>(op.issued - due) / 1e3);
    outstanding_[op.contact].push_back(ops_.size());
    ops_.push_back(std::move(op));
  }

  void submit(NodeId contact, const std::vector<std::uint8_t>& envelope,
              bool time_submit) {
    auto& tcp = c_.node(contact).transport();
    const std::int64_t t0 = now_ns();
    tcp.submit(core::Request::of_data(envelope));
    if (time_submit) submit_ns_.push_back(static_cast<double>(now_ns() - t0));
    tcp.broadcast_now();
    last_nudge_[contact] = now_ns();
  }

  void poll(std::int64_t now) {
    for (std::size_t i = 0; i < c_.size(); ++i) {
      auto& out = outstanding_[i];
      if (out.empty()) continue;
      if (!c_.live(i)) {
        retry_elsewhere(i, now);
        continue;
      }
      smr::KvNode& kv = c_.node(i);
      const Round before = kv.next_round();
      if (before == seen_round_[i]) {
        // No round applied since the last check. Keep rounds coming while
        // commands wait (W=1: a command submitted after our round's
        // broadcast waits for the next one).
        if (now - last_nudge_[i] > 200'000) {
          kv.transport().broadcast_now();
          last_nudge_[i] = now;
        }
        continue;
      }
      still_.clear();
      found_.clear();
      for (const std::size_t k : out) {
        Op& op = ops_[k];
        const auto bytes = kv.response_for(sessions_[op.session].id(), op.seq);
        if (!bytes) {
          still_.push_back(k);
          continue;
        }
        op.done = now_ns();
        const auto resp = smr::decode_response(*bytes);
        if (!resp || (resp->status != smr::KvResponse::Status::kOk &&
                      resp->status != smr::KvResponse::Status::kNotFound)) {
          ++errors_;
        }
        free_.push_back(op.session);
        found_.push_back(k);
      }
      const Round after = kv.next_round();
      // Everything found lies in rounds [seen, after-1]; one round pins it.
      if (after == seen_round_[i] + 1) {
        for (const std::size_t k : found_) ops_[k].round = seen_round_[i];
      }
      seen_round_[i] = before;
      out.swap(still_);
      if (!out.empty()) {
        kv.transport().broadcast_now();
        last_nudge_[i] = now;
      }
    }
  }

  /// Clients of a crashed contact retry at the next live node once their
  /// client timeout passed (exactly-once through the session table).
  void retry_elsewhere(std::size_t dead, std::int64_t now) {
    auto& out = outstanding_[dead];
    std::vector<std::size_t> keep;
    for (const std::size_t k : out) {
      Op& op = ops_[k];
      if (now - op.issued < static_cast<std::int64_t>(P::retry_ms * 1e6)) {
        keep.push_back(k);
        continue;
      }
      op.contact = next_contact();
      op.issued = now;
      submit(op.contact, sessions_[op.session].retry(), false);
      outstanding_[op.contact].push_back(k);
    }
    out.swap(keep);
  }

  Cluster& c_;
  allconcur::Rng rng_;
  std::vector<smr::KvSession> sessions_;
  std::deque<std::size_t> free_;
  std::vector<Op> ops_;
  std::vector<Round> seen_round_;
  std::vector<std::vector<std::size_t>> outstanding_;
  std::vector<std::size_t> still_, found_;  ///< poll scratch
  std::vector<std::int64_t> last_nudge_;
  std::vector<double> late_us_, submit_ns_;
  std::int64_t next_due_ = 0;
  std::uint64_t rr_ = 0;
  std::uint64_t errors_ = 0;
  double poll_time_ = 0;
  std::uint64_t polls_ = 0;
  WindowMarks* marks_ = nullptr;
};

/// Waits until every live replica applied the same rounds, then compares
/// their state hashes.
void check_converged(Cluster& c, Result& out) {
  // Keeps trying for a while: a barrier's nudge can start one more round,
  // and a stalled host can hold a replica a round behind for a moment.
  const std::int64_t deadline = now_ns() + 10'000'000'000;
  while (now_ns() < deadline) {
    Round target = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (c.live(i)) target = std::max(target, c.node(i).next_round());
    }
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (c.live(i) && target > 0) {
        c.node(i).read_barrier(target - 1, allconcur::sec(5));
      }
    }
    // Let rounds started by the barrier nudges finish everywhere.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    bool same_round = true;
    Round r0 = 0;
    std::optional<std::uint64_t> h0;
    bool same_hash = true;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (!c.live(i)) continue;
      // The hash belongs to round r only if no round was applied meanwhile.
      const Round r = c.node(i).next_round();
      const std::uint64_t h = c.node(i).state_hash();
      if (!h0) {
        r0 = r;
        h0 = h;
      }
      same_round = same_round && r == r0 && c.node(i).next_round() == r;
      same_hash = same_hash && h == *h0;
    }
    if (same_round) {
      out.check(same_hash, "replica state hashes differ at round " +
                               std::to_string(r0));
      return;
    }
  }
  out.fail("live replicas did not reach a common round");
}

TcpPhase run_phase(std::uint64_t seed, double seconds, std::size_t capacity,
                   Mode mode, Result& out) {
  const bool timed = mode != Mode::kPlain;
  const bool traced = mode == Mode::kTraced;
  TcpPhase ph;
  Cluster c(seed, capacity);
  ph.setup_s = c.setup_s();
  if (!c.connected()) {
    out.fail("nodes did not connect within 10 s");
    return ph;
  }
  const double load_s =
      P::warmup_s + seconds + (traced ? P::crash_tail_s : 0.0);
  Generator gen(c, seed, static_cast<std::size_t>(1.2 * P::rate * load_s));
  const std::int64_t t_begin = now_ns();
  gen.run_until(t_begin + static_cast<std::int64_t>(P::warmup_s * 1e9), true,
                timed);
  const auto net0 = snapshot_net(c.tcps());
  const std::int64_t t0 = now_ns();
  const std::int64_t t1 = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::size_t first_op = gen.ops().size();
  ph.window.start(t0, static_cast<std::int64_t>(P::window_ms * 1e6));
  gen.set_marks(&ph.window);
  gen.run_until(t1, true, timed);
  ph.window.stop(now_ns());
  gen.set_marks(nullptr);
  const std::size_t end_op = gen.ops().size();
  const auto net1 = snapshot_net(c.tcps());
  for (std::size_t i = 0; i < c.size(); ++i) {
    ph.events_per_s = std::max(
        ph.events_per_s,
        static_cast<double>(c.node(i).transport().recorder().total_recorded()) /
            (static_cast<double>(now_ns() - t_begin) / 1e9));
  }

  const auto crashed = static_cast<NodeId>(c.size() - 1);
  std::int64_t t_crash = 0;
  if (traced) {
    t_crash = now_ns();
    c.crash(crashed);
    gen.run_until(t_crash + static_cast<std::int64_t>(P::crash_tail_s * 1e9),
                  true, true);
  }
  // Stop arrivals; let every outstanding op finish.
  const std::int64_t drain_end = now_ns() + 10'000'000'000;
  while (!gen.idle() && now_ns() < drain_end) {
    gen.run_until(now_ns() + 1'000'000, false, false);
  }
  out.check(gen.idle(), "ops still outstanding 10 s after the load stopped");
  check_converged(c, out);
  out.check(gen.errors() == 0, std::to_string(gen.errors()) +
                                   " responses were malformed or errors");
  for (const auto& s : net1) {
    out.check(s.checksum_drops == 0, "a frame failed its checksum");
  }
  std::uint64_t duplicates = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.live(i)) duplicates = std::max(duplicates, c.node(i).duplicates_suppressed());
  }
  c.stop_all();

  // ---- Ops of the window [t0, t1) ----
  constexpr double deadline_ns = P::deadline_ms * 1e6;
  std::vector<OpTrace> traces;
  std::vector<double> late;
  std::uint64_t completed = 0;
  for (std::size_t k = 0; k < gen.ops().size(); ++k) {
    const Op& op = gen.ops()[k];
    if (op.done >= 0) ph.ops.push_back({op.due, op.done, op.envelope.size()});
    if (op.done >= t0 && op.done < t1) ++completed;
    if (k < first_op || k >= end_op) continue;
    ++ph.attempted;
    late.push_back(gen.lateness_us()[k]);
    if (op.done < 0 || static_cast<double>(op.done - op.due) > deadline_ns) {
      ++ph.failed;
    }
    if (op.done >= 0 && op.round) {
      traces.push_back({op.contact, *op.round, op.due, op.done});
    }
  }
  // Generator honesty (checked over the lifetimes in report_windowed).
  const double late_p50 = quantile(late, 0.5);
  ph.late_p99_us = quantile(late, 0.99);
  char note[256];
  std::snprintf(note, sizeof(note),
                "generator at %.0f ops/s: lateness p50 %.1f us, p99 %.1f us; "
                "completion poll every %.1f us (nominal %g)",
                static_cast<double>(P::rate), late_p50, ph.late_p99_us,
                gen.mean_poll_us(), static_cast<double>(P::poll_us));
  out.notes.push_back(note);
  if (!traced) return ph;

  // ---- Per-layer figures ----
  net_counters(net0, net1, completed, gen.submit_call_ns(), out);
  // The rounds the window's pinned ops rode in, rebuilt from their
  // envelopes: the inputs the replays below run on.
  std::map<Round, std::vector<std::vector<core::Request>>> by_round;
  for (std::size_t k = first_op; k < end_op; ++k) {
    const Op& op = gen.ops()[k];
    if (!op.round) continue;
    auto& slot = by_round[*op.round];
    slot.resize(kNodes);
    slot[op.contact].push_back(core::Request::of_data(op.envelope));
  }
  Rounds rounds;
  for (auto& [r, per_node] : by_round) {
    core::RoundResult res;
    res.round = r;
    res.view_size = kNodes;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (per_node[i].empty()) continue;
      res.deliveries.push_back(
          {NodeId(i), core::pack_batch(per_node[i]), 0});
      res.deliveries.back().bytes = res.deliveries.back().payload->size();
    }
    rounds.push_back(std::move(res));
  }
  replay_codec(rounds, out);
  replay_replica(rounds, /*report_duplicates=*/false, out);
  out.layer("smr.duplicates_suppressed", static_cast<double>(duplicates),
            "count", gen.ops().size());
  replay_engines(rounds, kNodes, 1, out);
  std::vector<core::EngineStats> stats;
  std::vector<std::vector<allconcur::obs::Event>> events;
  for (std::size_t i = 0; i < c.size(); ++i) {
    stats.push_back(c.node(i).transport().stats());
    events.push_back(c.node(i).transport().recorder().events());
    out.check(c.node(i).transport().recorder().dropped() == 0,
              "flight recorder wrapped; raise recorder_capacity");
  }
  engine_counters(stats, gen.ops().size(), 1, out);
  out.notes.push_back("op budget: " + std::to_string(traces.size()) + " of " +
                      std::to_string(ph.attempted) +
                      " ops pinned to one round by the completion poll");
  op_budget(traces, events, kNodes, P::budget_tolerance_pct, out);
  // The first round without the crashed node: the decision round is the
  // first to complete with fewer than n messages, and with W=1 the view
  // switches right after it.
  std::optional<Round> decided;
  for (const auto& e : events[0]) {
    if (e.kind == allconcur::obs::EventKind::kComplete && e.t >= t_crash &&
        e.a < kNodes) {
      decided = e.round;
      break;
    }
  }
  if (decided) {
    crash_metrics(events, crashed, t_crash, *decided + 1, out);
  } else {
    out.fail("no round completed without the crashed node");
  }
  std::vector<std::int64_t> done_after;
  for (const Op& op : gen.ops()) {
    if (op.done >= t_crash) done_after.push_back(op.done);
  }
  failover_gap(done_after, t_crash, out);
  return ph;
}

}  // namespace

Result run_kv_tcp(const Args& args) {
  Result out = run_tcp_workload(
      args, P::setups, P::lifetimes, P::warmup_s + P::crash_tail_s + 2.0,
      P::late_limit_x,
      [](std::uint64_t seed, Result& r) {
        Cluster c(seed, net::TcpNodeOptions{}.recorder_capacity);
        r.check(c.connected(), "nodes did not connect within 10 s");
        return c.setup_s();
      },
      run_phase);
  out.notes.push_back(
      "threads: 3 node event loops + 1 open-loop generator, " +
      std::to_string(std::thread::hardware_concurrency()) +
      " hardware threads");
  return out;
}

}  // namespace perfbench
