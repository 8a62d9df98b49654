// Workload bcast_tcp: three net::TcpNode instances on localhost, window
// W=4, classic mode, flight recorder on. One generator thread (this one)
// runs a closed loop on backpressure: while a node has fewer than
// `max_outstanding` own requests undelivered and its pending_bytes() is
// under `pending_cap`, it submits 4 KiB Request::of_data (seq and submit
// stamp in the first 16 bytes) and then calls broadcast_now(). The node
// refreshes pending_bytes() once per event-loop wake, so within one pass
// the generator would see a stale value and could submit without bound;
// max_outstanding caps that burst, and the run reports how often each
// limit stopped a pass. Per-byte costs (payload checksums, copies, socket
// bytes) dominate here. Parameters: params::bcast_tcp (workloads.json).
//
// Checks: every node folds (round, origin, seq) over its deliveries and
// the folds agree on the common prefix of rounds; each origin's requests
// arrive at every node in seq order with no gap or repeat, and all of them
// arrive; no frame failed its checksum.
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

namespace core = allconcur::core;
namespace net = allconcur::net;

namespace P = params::bcast_tcp;
constexpr std::size_t kNodes = 3;
constexpr std::size_t kRequestBytes = 4096;
constexpr std::size_t kCaptureBytes = 8u << 20;
/// Generator pause when no node can take a request (closed loop full).
constexpr std::int64_t kIdleSleepNs = 10'000;
/// Delivery logs are sized up front so the deliver callback does not stall
/// the event loop copying them as they grow (well above one lifetime's
/// requests per origin and rounds).
constexpr std::size_t kLogReserve = 1u << 18;

struct OwnDone {
  std::int64_t submitted = 0;
  std::int64_t done = 0;
  Round round = 0;
};

/// One TcpNode plus the state its deliver callback keeps. The callback
/// runs on the node's event-loop thread; the generator reads only the
/// atomics until the thread is joined.
struct Node {
  std::unique_ptr<net::TcpNode> tcp;
  std::thread thread;
  bool running = false;

  std::uint64_t fold = 0;
  std::vector<std::uint64_t> fold_after;  ///< by round
  /// Next expected seq by origin (written by the loop thread only).
  std::array<std::atomic<std::uint64_t>, kNodes> next_seq{};
  std::string error;
  std::vector<OwnDone> own;  ///< own requests, in seq order
  std::vector<std::pair<std::int64_t, std::uint64_t>> delivered_bytes;
  Rounds captured;
  std::size_t captured_bytes = 0;
  bool capture = false;
  std::size_t members = 0;
  std::optional<Round> removal_round;  ///< first result reporting removals
  std::atomic<std::uint64_t> delivered_reqs{0};
  std::atomic<std::uint64_t> own_done{0};
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

void on_round(Node& me, NodeId self, const core::RoundResult& r) {
  const std::int64_t t = now_ns();
  if (r.round != me.fold_after.size() && me.error.empty()) {
    me.error = "node " + std::to_string(self) + " delivered round " +
               std::to_string(r.round) + " out of order";
  }
  std::uint64_t reqs = 0, own = 0, bytes = 0;
  for (const auto& d : r.deliveries) {
    if (!d.payload) continue;
    const auto& b = *d.payload;
    for (std::size_t at = 0; at + core::kRequestHeaderBytes <= b.size();) {
      std::uint32_t len = 0;
      std::memcpy(&len, b.data() + at + 5, 4);
      const std::uint8_t* data = b.data() + at + core::kRequestHeaderBytes;
      std::uint64_t seq = 0;
      std::int64_t stamp = 0;
      if (len >= 16) {
        std::memcpy(&seq, data, 8);
        std::memcpy(&stamp, data + 8, 8);
      }
      me.fold = mix(mix(mix(me.fold, r.round), d.origin), seq);
      if (d.origin < kNodes) {
        auto& next = me.next_seq[d.origin];
        const std::uint64_t want = next.load(std::memory_order_relaxed);
        if (seq != want && me.error.empty()) {
          me.error = "node " + std::to_string(self) + " got seq " +
                     std::to_string(seq) + " from " +
                     std::to_string(d.origin) + ", expected " +
                     std::to_string(want);
        }
        next.store(seq + 1, std::memory_order_release);
      }
      if (d.origin == self) {
        me.own.push_back({stamp, t, r.round});
        ++own;
      }
      bytes += len;
      ++reqs;
      at += core::kRequestHeaderBytes + len;
    }
  }
  me.fold_after.push_back(me.fold);
  me.delivered_bytes.emplace_back(t, bytes);
  if (!r.removed.empty() && !me.removal_round) me.removal_round = r.round;
  if (me.capture && me.captured_bytes < kCaptureBytes &&
      r.view_size == me.members) {
    me.captured.push_back(r);
    for (const auto& d : r.deliveries) {
      me.captured_bytes += d.payload ? d.payload->size() : 0;
    }
  }
  me.delivered_reqs.fetch_add(reqs, std::memory_order_release);
  me.own_done.fetch_add(own, std::memory_order_release);
}

class Cluster {
 public:
  Cluster(std::uint64_t seed, std::size_t recorder_capacity, bool capture) {
    const std::uint16_t port = pick_base_port(seed, kNodes);
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < kNodes; ++i) members.push_back(NodeId(i));
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto node = std::make_unique<Node>();
      node->members = kNodes;
      node->capture = capture && i == 0;
      node->own.reserve(kLogReserve);
      node->fold_after.reserve(kLogReserve);
      node->delivered_bytes.reserve(kLogReserve);
      net::TcpNodeOptions o;
      o.self = NodeId(i);
      o.members = members;
      o.base_port = port;
      o.window = P::window;
      o.recorder_capacity = recorder_capacity;
      Node* raw = node.get();
      node->tcp = std::make_unique<net::TcpNode>(
          o, [raw, i](const core::RoundResult& r) {
            on_round(*raw, NodeId(i), r);
          });
      nodes_.push_back(std::move(node));
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      pin_current_thread(i);
      Node& node = *nodes_[i];
      node.thread = std::thread([tcp = node.tcp.get()] { tcp->run(); });
      node.running = true;
    }
    pin_current_thread(nodes_.size());  // the generator
    connected_ = true;
    for (auto& node : nodes_) {
      connected_ = node->tcp->wait_connected(allconcur::sec(10)) && connected_;
    }
    setup_s_ = static_cast<double>(now_ns() - t0) / 1e9;
  }
  ~Cluster() {
    for (std::size_t i = 0; i < nodes_.size(); ++i) stop(NodeId(i));
    unpin_current_thread();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void stop(NodeId i) {
    Node& node = *nodes_[i];
    if (!node.running) return;
    node.tcp->stop();
    node.thread.join();
    node.running = false;
  }

  bool connected() const { return connected_; }
  double setup_s() const { return setup_s_; }
  Node& node(std::size_t i) { return *nodes_[i]; }
  std::size_t size() const { return nodes_.size(); }
  std::vector<const net::TcpNode*> tcps() const {
    std::vector<const net::TcpNode*> out;
    for (const auto& n : nodes_) out.push_back(n->tcp.get());
    return out;
  }

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
  bool connected_ = false;
  double setup_s_ = 0;
};

/// Closed-loop generator over the live nodes.
class Generator {
 public:
  Generator(Cluster& c, std::uint64_t seed)
      : c_(c), submitted_(c.size(), 0), live_(c.size(), true),
        last_nudge_(c.size(), 0), payload_(kRequestBytes) {
    allconcur::Rng rng(seed);
    for (auto& b : payload_) b = static_cast<std::uint8_t>(rng.next_u64());
  }

  void set_dead(NodeId i) { live_[i] = false; }
  bool live(NodeId i) const { return live_[i]; }
  std::uint64_t submitted(NodeId i) const { return submitted_[i]; }
  std::vector<double>& submit_call_ns() { return submit_ns_; }
  void set_marks(WindowMarks* marks) { marks_ = marks; }
  /// Passes over a node that stopped on each limit.
  std::uint64_t stops_outstanding() const { return stops_outstanding_; }
  std::uint64_t stops_pending() const { return stops_pending_; }

  void run_until(std::int64_t until, bool time_submit) {
    while (now_ns() < until) {
      if (marks_ != nullptr) marks_->poll(now_ns());
      bool progressed = false;
      for (std::size_t i = 0; i < c_.size(); ++i) {
        if (!live_[i]) continue;
        Node& node = c_.node(i);
        const std::uint64_t done =
            node.own_done.load(std::memory_order_acquire);
        std::size_t sent = 0;
        for (;;) {
          if (submitted_[i] - done >= P::max_outstanding) {
            ++stops_outstanding_;
            break;
          }
          if (node.tcp->pending_bytes() >= P::pending_cap) {
            ++stops_pending_;
            break;
          }
          std::vector<std::uint8_t> data(payload_);
          const std::uint64_t seq = submitted_[i]++;
          const std::int64_t stamp = now_ns();
          std::memcpy(data.data(), &seq, 8);
          std::memcpy(data.data() + 8, &stamp, 8);
          if (time_submit) {
            const std::int64_t t0 = now_ns();
            node.tcp->submit(core::Request::of_data(std::move(data)));
            submit_ns_.push_back(static_cast<double>(now_ns() - t0));
          } else {
            node.tcp->submit(core::Request::of_data(std::move(data)));
          }
          ++sent;
        }
        // Rounds need broadcasts: after a submit, and periodically while
        // own requests wait (the window may have been full).
        const std::int64_t now = now_ns();
        if (sent > 0 ||
            (submitted_[i] > done && now - last_nudge_[i] > 20'000)) {
          node.tcp->broadcast_now();
          last_nudge_[i] = now;
        }
        progressed = progressed || sent > 0;
      }
      if (!progressed) sleep_until_ns(now_ns() + kIdleSleepNs);
    }
  }

  /// Nudges rounds until every live node delivered every live origin's
  /// requests (and any it receives from dead ones), or the deadline passes.
  bool drain(std::int64_t deadline) {
    for (;;) {
      bool all = true;
      for (std::size_t i = 0; i < c_.size(); ++i) {
        if (!live_[i]) continue;
        Node& node = c_.node(i);
        for (std::size_t o = 0; o < c_.size(); ++o) {
          if (live_[o] && node.next_seq[o].load(std::memory_order_acquire) <
                              submitted_[o]) {
            all = false;
          }
        }
        if (!all) node.tcp->broadcast_now();
      }
      if (all) return true;
      if (now_ns() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

 private:
  Cluster& c_;
  std::vector<std::uint64_t> submitted_;
  std::vector<bool> live_;
  std::vector<std::int64_t> last_nudge_;
  std::vector<std::uint8_t> payload_;
  std::vector<double> submit_ns_;
  WindowMarks* marks_ = nullptr;
  std::uint64_t stops_outstanding_ = 0, stops_pending_ = 0;
};

/// One cluster lifetime: warmup, the measured window, then (traced) a
/// crash of the last node under load, a drain, and the checks.
TcpPhase run_phase(std::uint64_t seed, double seconds, std::size_t capacity,
                   Mode mode, Result& out) {
  const bool timed = mode != Mode::kPlain;
  const bool traced = mode == Mode::kTraced;
  TcpPhase ph;
  Cluster c(seed, capacity, traced);
  ph.setup_s = c.setup_s();
  if (!c.connected()) {
    out.fail("nodes did not connect within 10 s");
    return ph;
  }
  Generator gen(c, seed);
  const std::int64_t t_begin = now_ns();
  gen.run_until(t_begin + static_cast<std::int64_t>(P::warmup_s * 1e9),
                timed);
  const auto net0 = snapshot_net(c.tcps());
  const std::int64_t t0 = now_ns();
  const std::int64_t t1 = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::uint64_t stops0 = gen.stops_outstanding();
  const std::uint64_t pending0 = gen.stops_pending();
  ph.window.start(t0, static_cast<std::int64_t>(P::window_ms * 1e6));
  gen.set_marks(&ph.window);
  gen.run_until(t1, timed);
  ph.window.stop(now_ns());
  gen.set_marks(nullptr);
  const auto net1 = snapshot_net(c.tcps());
  char note[200];
  std::snprintf(note, sizeof(note),
                "closed loop: a pass over a node stopped %llu times on "
                "max_outstanding (%d), %llu times on pending_cap (%d B)",
                static_cast<unsigned long long>(gen.stops_outstanding() -
                                                stops0),
                static_cast<int>(P::max_outstanding),
                static_cast<unsigned long long>(gen.stops_pending() -
                                                pending0),
                static_cast<int>(P::pending_cap));
  out.notes.push_back(note);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ph.events_per_s = std::max(
        ph.events_per_s,
        static_cast<double>(c.node(i).tcp->recorder().total_recorded()) /
            (static_cast<double>(now_ns() - t_begin) / 1e9));
  }

  const auto crashed = static_cast<NodeId>(c.size() - 1);
  std::int64_t t_crash = 0;
  if (traced) {
    gen.set_dead(crashed);
    t_crash = now_ns();
    c.stop(crashed);
    gen.run_until(t_crash + static_cast<std::int64_t>(P::crash_tail_s * 1e9),
                  true);
  }
  out.check(gen.drain(now_ns() + 10'000'000'000),
            "requests still undelivered 10 s after the load stopped");
  for (std::size_t i = 0; i < c.size(); ++i) c.stop(NodeId(i));

  // ---- Checks ----
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Node& node = c.node(i);
    out.check(node.error.empty(), node.error);
    if (!gen.live(NodeId(i))) continue;
    for (std::size_t o = 0; o < c.size(); ++o) {
      const std::uint64_t got = node.next_seq[o].load();
      if (gen.live(NodeId(o))) {
        out.check(got == gen.submitted(NodeId(o)),
                  "node " + std::to_string(i) + " delivered " +
                      std::to_string(got) + " of " +
                      std::to_string(gen.submitted(NodeId(o))) +
                      " requests from node " + std::to_string(o));
      } else {
        out.check(got <= gen.submitted(NodeId(o)),
                  "delivered a request the crashed node never submitted");
      }
    }
  }
  std::size_t common = c.node(0).fold_after.size();
  for (std::size_t i = 1; i < c.size(); ++i) {
    common = std::min(common, c.node(i).fold_after.size());
  }
  for (std::size_t r = 0; r < common; ++r) {
    bool same = true;
    for (std::size_t i = 1; i < c.size(); ++i) {
      same = same && c.node(i).fold_after[r] == c.node(0).fold_after[r];
    }
    if (!same) {
      out.fail("nodes disagree on the delivered sequence at round " +
               std::to_string(r));
      break;
    }
  }
  for (const auto& s : net1) {
    out.check(s.checksum_drops == 0, "a frame failed its checksum");
  }

  // ---- Ops of the window [t0, t1) ----
  constexpr double deadline_ns = P::deadline_ms * 1e6;
  std::vector<OpTrace> ops;
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (const OwnDone& d : c.node(i).own) {
      ph.ops.push_back({d.submitted, d.done, kRequestBytes});
      if (d.done >= t0 && d.done < t1) ++completed;
      if (d.submitted < t0 || d.submitted >= t1) continue;
      ++ph.attempted;
      if (static_cast<double>(d.done - d.submitted) > deadline_ns) ++ph.failed;
      ops.push_back({NodeId(i), d.round, d.submitted, d.done});
    }
  }
  // Submitted but never delivered (a crashed origin's last requests).
  for (std::size_t i = 0; i < c.size(); ++i) {
    const std::uint64_t lost = gen.submitted(NodeId(i)) - c.node(i).own.size();
    ph.attempted += lost;
    ph.failed += lost;
  }
  if (!traced) return ph;

  // ---- Per-layer figures ----
  net_counters(net0, net1, completed, gen.submit_call_ns(), out);
  const Rounds& rounds = c.node(0).captured;
  replay_codec(rounds, out);
  replay_replica(rounds, /*report_duplicates=*/true, out);
  replay_engines(rounds, kNodes, P::window, out);
  std::vector<core::EngineStats> stats;
  std::vector<std::vector<allconcur::obs::Event>> events;
  for (std::size_t i = 0; i < c.size(); ++i) {
    stats.push_back(c.node(i).tcp->stats());
    events.push_back(c.node(i).tcp->recorder().events());
    out.check(c.node(i).tcp->recorder().dropped() == 0,
              "flight recorder wrapped; raise recorder_capacity");
  }
  engine_counters(stats, c.node(0).delivered_reqs.load(), 1, out);
  op_budget(ops, events, kNodes, P::budget_tolerance_pct, out);
  const auto& survivor = c.node(0);
  if (survivor.removal_round) {
    crash_metrics(events, crashed, t_crash, *survivor.removal_round + 1, out);
  } else {
    out.fail("the crash of node " + std::to_string(crashed) +
             " never removed it from the view");
  }
  std::vector<std::int64_t> done_after;
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (const OwnDone& d : c.node(i).own) {
      if (d.done >= t_crash) done_after.push_back(d.done);
    }
  }
  failover_gap(done_after, t_crash, out);
  return ph;
}

}  // namespace

Result run_bcast_tcp(const Args& args) {
  Result out = run_tcp_workload(
      args, P::setups, P::lifetimes, P::warmup_s + P::crash_tail_s + 2.0,
      /*late_limit_x=*/0,  // closed loop: no schedule to fall behind
      [](std::uint64_t seed, Result& r) {
        Cluster c(seed, net::TcpNodeOptions{}.recorder_capacity, false);
        r.check(c.connected(), "nodes did not connect within 10 s");
        return c.setup_s();
      },
      run_phase);
  out.notes.push_back(
      "threads: 3 node event loops + 1 closed-loop generator, " +
      std::to_string(std::thread::hardware_concurrency()) +
      " hardware threads");
  return out;
}

}  // namespace perfbench
