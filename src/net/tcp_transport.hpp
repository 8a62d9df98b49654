// Real TCP transport for AllConcur nodes (§5: the paper's implementation
// uses sockets-based TCP driven by libev; this is the epoll equivalent).
//
// Topology follows the overlay digraph: a node dials a connection to every
// successor and accepts connections from its predecessors; peers identify
// themselves with a 4-byte hello. Messages use the length-prefixed framing
// of core::encode/decode.
//
// Wire path (zero-copy): the engine hands the transport refcounted
// core::Frame objects — encoded once per message regardless of out-degree.
// Each connection queues the shared frames and flushes them with one
// vectored sendmsg per event-loop wake (iovec batching across queued
// frames), so the relay fan-out costs neither per-destination copies nor
// per-message syscalls.
//
// Receive path: a readable socket is read() straight into its
// connection's receive buffer (growable, never zero-filled), with no
// bounce buffer in between. The loop stops at the first read that returns
// fewer bytes than asked instead of probing until EAGAIN: epoll is
// level-triggered, so bytes that arrive later report the fd again. The
// buffer is consume-offset: it resets when fully parsed and compacts only
// when sparse, so steady-state parsing does no memmove.
//
// One TcpNode serves one node and is single-threaded: all socket and
// protocol work happens on the thread inside run(). Cross-thread control
// (submit, broadcast_now, stop) goes through a mutex-guarded command inbox
// plus an eventfd, keeping the engine free of locks. A push writes the
// eventfd only when it finds the inbox empty, so a burst of commands costs
// one write and one wake; the loop drains the inbox after consuming the
// eventfd and again at the top of every iteration, so no command is
// stranded. One read of the eventfd (or of the heartbeat timerfd) returns
// and resets its whole count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "chaos/scenario.hpp"
#include "core/engine.hpp"
#include "core/failure_detector.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "plus/fallback_timer.hpp"

namespace allconcur::net {

struct TcpNodeOptions {
  NodeId self = 0;
  std::vector<NodeId> members;        ///< initial membership
  std::uint16_t base_port = 39000;    ///< node i listens on base_port + i
  core::GraphBuilder builder;         ///< defaults to the paper overlay
  core::FdMode fd_mode = core::FdMode::kPerfect;
  /// Round-pipelining window W: up to W consecutive rounds in flight
  /// (1 = classic stop-and-wait iteration).
  std::size_t window = 1;
  /// Dual-digraph fast path (AllConcur+): builder for the unreliable
  /// overlay G_U. The node then dials/accepts both overlays' links
  /// (connections follow G_U ∪ G_R) and runs failure-free rounds
  /// untracked over G_U. Empty = classic mode.
  core::GraphBuilder fast_builder;
  /// Dual mode round watchdog: an armed round stuck longer than this on
  /// the monotonic clock triggers the fallback transition. 0 disables.
  DurationNs fallback_timeout = 0;
  /// Fault injection: a seeded chaos::ScenarioEngine consulted once per
  /// outbound frame (protocol and heartbeats alike). Drops discard the
  /// frame, duplicates queue it twice, corruption flips a wire byte (the
  /// receiver's checksum must catch it), and delays park the frame until
  /// its release time. A Scenario::gray phase on this node is netem-style
  /// induced skew: every frame it sends is held back by the slowdown.
  /// Share one engine across a cluster's nodes to replay a whole-cluster
  /// scenario.
  chaos::ScenarioEngineRef chaos;
  /// Dual mode: caps how long per-frame progress can re-arm the round
  /// watchdog (see plus::FallbackTimer). 0 = the default 8x
  /// fallback_timeout; < 0 disables the cap.
  DurationNs fallback_max_round_age = 0;
  bool enable_heartbeats = true;
  core::HeartbeatFd::Params fd_params{.period = ms(25), .timeout = ms(250),
                                      .adaptive = false,
                                      .max_timeout = sec(10)};
  /// SO_SNDBUF for outbound (successor) sockets; 0 keeps the OS default.
  /// Tests shrink this to force partial vectored writes (backpressure).
  int sndbuf_bytes = 0;
  /// Introspection listener: node i serves HTTP/1.0 GETs ("/metrics",
  /// "/metrics.json", "/recorder", "/trace", "/healthz") on
  /// admin_port + i. 0 disables the listener (metrics and the recorder
  /// stay readable in-process). Consumed by tools/allconcur_inspect and
  /// tools/allconcur_trace.
  std::uint16_t admin_port = 0;
  /// Flight-recorder ring size (events per node; rounded up to a power
  /// of two). The ring is fixed-allocation: old events overwrite.
  std::size_t recorder_capacity = 1024;
  /// Master switch for round tracing. Off, every engine-side tap reduces
  /// to one predictable branch (bench/wire_path gates the enabled-mode
  /// overhead at <= 5%).
  bool recorder_enabled = true;
  /// Cross-node causal tracing (obs/trace.hpp): sample one origin round
  /// in `trace_sample_period` (0 = off). Sampled broadcasts carry the
  /// wire trace context; this node records recv/enqueue/send spans
  /// stamped with the event-loop wake clock, dumped via the admin
  /// `/trace` route and merged by tools/allconcur_trace.
  std::uint32_t trace_sample_period = 0;
  /// Spans retained per node (rounded up to a power of two).
  std::size_t trace_capacity = 4096;
};

/// Wire-level transport counters (snapshot; safe to read from any thread).
struct TcpNetStats {
  std::uint64_t sendmsg_calls = 0;    ///< flush syscalls issued
  std::uint64_t frames_sent = 0;      ///< frames fully transmitted
  std::uint64_t bytes_sent = 0;       ///< payload+header bytes on the wire
  /// Connection-hello bytes within bytes_sent. With heartbeats off and no
  /// chaos drops, bytes_sent == EngineStats::bytes_sent + preamble_bytes
  /// once all queues flush (asserted in net_tcp_test; see obs/schema.hpp).
  std::uint64_t preamble_bytes = 0;
  std::uint64_t partial_writes = 0;   ///< short sendmsg (kernel backpressure)
  std::uint64_t eagain_waits = 0;     ///< flushes parked on EPOLLOUT
  std::uint64_t frames_received = 0;
  std::uint64_t rbuf_compactions = 0; ///< receive-buffer memmoves
  /// Torn frames the stream parser dropped (magic/type/length/checksum
  /// failures) instead of delivering — the detection side of injected
  /// corruption.
  std::uint64_t checksum_drops = 0;
  std::uint64_t resyncs = 0;          ///< forward scans to a plausible header
};

class TcpNode {
 public:
  using DeliverFn = std::function<void(const core::RoundResult&)>;

  /// Binds and listens on base_port + self: peers can connect as soon as
  /// the node exists, before run() starts accepting.
  TcpNode(TcpNodeOptions options, DeliverFn on_deliver);
  ~TcpNode();

  TcpNode(const TcpNode&) = delete;
  TcpNode& operator=(const TcpNode&) = delete;

  /// Runs the event loop until stop() (call from a dedicated thread).
  void run();

  /// Thread-safe controls.
  void submit(core::Request request);
  void broadcast_now();
  void stop();

  /// Blocks until connections to all successors are established or
  /// `timeout` passes; false on timeout.
  bool wait_connected(DurationNs timeout);

  NodeId self() const { return options_.self; }
  const core::EngineStats& stats() const { return engine_->stats(); }
  TcpNetStats net_stats() const;
  Round rounds_completed() const {
    return completed_rounds_.load(std::memory_order_acquire);
  }
  /// Bytes submitted but not yet A-broadcast — the backpressure signal a
  /// client should throttle on while the engine's window is full (or
  /// draining for a membership change). Snapshotted once per event-loop
  /// wake, so it may lag a just-queued submit by one wake.
  std::uint64_t pending_bytes() const {
    return pending_bytes_.load(std::memory_order_acquire);
  }

  /// Round flight recorder (per node). Reading it while run() is live is
  /// inherently racy — snapshot-quality only, same caveat as stats().
  const obs::FlightRecorder& recorder() const { return recorder_; }
  obs::FlightRecorder& recorder() { return recorder_; }

  /// Causal-trace span buffer (per node); same racy-snapshot caveat.
  const obs::TraceBuffer& tracer() const { return tracer_; }
  obs::TraceBuffer& tracer() { return tracer_; }

  /// Refreshes the unified metrics registry from the engine / wire /
  /// chaos counters and renders it. Safe from any thread (counter reads
  /// are relaxed snapshots, like stats()).
  std::string metrics_json();
  std::string metrics_prometheus();
  obs::Registry& metrics() { return metrics_; }

 private:
  struct Conn {
    int fd = -1;
    NodeId peer = kInvalidNode;
    bool outbound = false;
    // Receive side: consume-offset buffer over uninitialized storage.
    // read() appends at `rend`, parse_frames advances `rstart`; the dead
    // prefix is dropped wholesale once everything is consumed (free) and
    // compacted (memmove) only when it dominates the buffer.
    std::unique_ptr<std::uint8_t[]> rbuf;
    std::size_t rcap = 0;    ///< allocated bytes
    std::size_t rstart = 0;  ///< first unparsed byte
    std::size_t rend = 0;    ///< end of received bytes
    // Transmit side: shared frames queued per connection, coalesced into
    // one vectored sendmsg per event-loop wake.
    std::vector<std::uint8_t> preamble;  ///< connection hello, sent first
    std::size_t preamble_sent = 0;
    std::deque<core::FrameRef> wqueue;
    std::size_t wqueue_offset = 0;  ///< bytes of wqueue.front() already sent
    bool want_writable = false;     ///< EPOLLOUT currently registered
    bool flush_pending = false;     ///< queued for the end-of-wake flush

    bool has_tx_backlog() const {
      return preamble_sent < preamble.size() || !wqueue.empty();
    }
  };

  void setup_listener();
  void setup_admin_listener();
  void on_admin_accept();
  /// Drives one admin connection through request-parse -> respond ->
  /// close; returns false when the connection is done (caller erases).
  bool on_admin_io(int fd, std::uint32_t events);
  /// Builds the response body for an admin GET path ("/metrics", ...).
  std::string admin_body(const std::string& path, bool& ok);
  void dial_successors();
  void dial(NodeId peer);
  void on_accept();
  void on_readable(int fd);
  void on_writable(int fd);
  void parse_frames(Conn& conn);
  /// Engine/FD send hook: applies the chaos interposition, then queues.
  void queue_frame(NodeId dst, const core::FrameRef& frame);
  /// Queues a frame on its connection for the end-of-wake flush.
  void queue_frame_now(NodeId dst, const core::FrameRef& frame);
  /// Parks a frame until `when` (sorted insert: chaos jitter makes release
  /// times non-monotone).
  void park_delayed(TimeNs when, NodeId dst, core::FrameRef frame);
  /// Moves delay-parked frames whose release time passed to their
  /// connections; returns the epoll timeout (ms) until the next release.
  int release_delayed(TimeNs now);
  /// Vectored flush of everything queued; returns false on a hard socket
  /// error (caller must close_conn).
  bool flush(Conn& conn);
  void flush_dirty();
  void advance_tx(Conn& conn, std::size_t sent);
  void close_conn(int fd);
  /// A cross-thread control request, executed on the loop thread in
  /// arrival order.
  struct Command {
    enum class Kind : std::uint8_t { kSubmit, kBroadcastNow };
    Kind kind = Kind::kSubmit;
    core::Request request;  ///< kSubmit only
  };
  /// Appends to the inbox; wakes the loop only on empty -> non-empty.
  void push_command(Command cmd);
  void wake();
  void drain_commands();
  void update_epoll(Conn& conn);
  void fd_tick();

  TcpNodeOptions options_;
  DeliverFn on_deliver_;
  std::unique_ptr<core::Engine> engine_;
  std::unique_ptr<core::HeartbeatFd> fd_;
  /// Dual mode: round watchdog polled once per event-loop wake.
  std::unique_ptr<plus::FallbackTimer> watchdog_;
  /// Chaos delays: frames parked until their release time
  /// (monotonic ns), kept sorted by release time (chaos jitter varies
  /// per frame, so enqueue order is not release order).
  std::deque<std::tuple<TimeNs, NodeId, core::FrameRef>> delayed_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int event_fd_ = -1;
  int timer_fd_ = -1;
  int admin_fd_ = -1;                  // introspection listener (optional)
  std::map<int, Conn> conns_;          // by socket fd
  std::map<NodeId, int> out_by_peer_;  // successor -> socket fd
  std::vector<int> dirty_fds_;         // conns with frames queued this wake

  /// One short-lived introspection connection: read the GET line, write
  /// the whole response, close. Never touches the protocol wire path.
  struct AdminConn {
    std::string request;
    std::string response;
    std::size_t sent = 0;
    bool responding = false;
  };
  std::map<int, AdminConn> admin_conns_;

  // Observability plane. loop_now_ is the event-loop timestamp the
  // recorder stamps events with: read when epoll_wait returns (and at the
  // top of each iteration for the work done before sleeping), never per
  // event (the wire path stays syscall-free).
  obs::FlightRecorder recorder_;
  obs::TraceBuffer tracer_;
  obs::Registry metrics_;
  /// Per-hop relay latency (frame parsed -> engine relay done, measured
  /// per broadcast frame on the monotonic clock). Registered at
  /// construction so the Prometheus exposition always carries it, even
  /// with trace sampling off; its running mean is the per-hop estimate
  /// sampled frames accumulate. Owned by metrics_; never null.
  obs::Histogram* relay_hop_ = nullptr;
  TimeNs loop_now_ = 0;
  std::uint64_t chaos_phase_mask_ = 0;  ///< last recorded phase set

  // Wire counters; relaxed atomics so tests can snapshot while running.
  struct {
    std::atomic<std::uint64_t> sendmsg_calls{0};
    std::atomic<std::uint64_t> frames_sent{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> preamble_bytes{0};
    std::atomic<std::uint64_t> partial_writes{0};
    std::atomic<std::uint64_t> eagain_waits{0};
    std::atomic<std::uint64_t> frames_received{0};
    std::atomic<std::uint64_t> rbuf_compactions{0};
    std::atomic<std::uint64_t> checksum_drops{0};
    std::atomic<std::uint64_t> resyncs{0};
  } net_;

  std::mutex cmd_mutex_;
  std::vector<Command> inbox_;    ///< guarded by cmd_mutex_
  std::vector<Command> drained_;  ///< loop-side swap partner, reused
  std::atomic<bool> stop_{false};
  std::mutex connected_mutex_;
  std::condition_variable connected_cv_;
  bool connected_ = false;  ///< guarded by connected_mutex_
  std::atomic<std::uint64_t> completed_rounds_{0};
  std::atomic<std::uint64_t> pending_bytes_{0};
};

}  // namespace allconcur::net
