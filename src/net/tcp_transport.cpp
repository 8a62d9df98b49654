#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/assert.hpp"
#include "obs/schema.hpp"

namespace allconcur::net {
namespace {

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  ALLCONCUR_ASSERT(flags >= 0, "fcntl(F_GETFL) failed");
  ALLCONCUR_ASSERT(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                   "fcntl(F_SETFL) failed");
}

void set_nodelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TimeNs monotonic_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Max iovec segments gathered per sendmsg. Each frame contributes up to
/// two (header, payload); 64 keeps the stack array small while still
/// coalescing 32 frames per syscall — far above the steady-state queue
/// depth, and the flush loops if a burst exceeds it.
constexpr std::size_t kMaxIov = 64;

/// Receive-buffer compaction threshold: the dead prefix is memmoved away
/// only once it exceeds this *and* outweighs the live tail. In steady
/// state every wake consumes the buffer completely, which resets it for
/// free instead.
constexpr std::size_t kCompactAt = 64 * 1024;

/// Minimum free tail a read() is offered; the receive buffer grows (by
/// doubling) when less is left.
constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

TcpNode::TcpNode(TcpNodeOptions options, DeliverFn on_deliver)
    : options_(std::move(options)),
      on_deliver_(std::move(on_deliver)),
      recorder_(options_.recorder_capacity, options_.recorder_enabled),
      tracer_(options_.trace_capacity, options_.trace_sample_period != 0) {
  if (!options_.builder) options_.builder = core::make_default_graph_builder();
  // Created here, not in run(): commands pushed before the loop starts
  // still find a valid fd to wake.
  event_fd_ = eventfd(0, EFD_NONBLOCK);
  ALLCONCUR_ASSERT(event_fd_ >= 0, "eventfd failed");
  // Events are stamped with the event-loop wake time: one clock read per
  // wake covers every event it triggers (the wire path stays clean).
  // Events recorded before run() (round 0 opens here) get this one.
  loop_now_ = monotonic_now();
  recorder_.set_time_source(&loop_now_);
  tracer_.set_time_source(&loop_now_);
  tracer_.set_self(options_.self);
  relay_hop_ = &metrics_.histogram(
      "relay_hop_latency_ns",
      "Per-hop relay latency: one broadcast frame's parse-to-relayed time "
      "on this node (monotonic clock around the engine's relay decision). "
      "Live regardless of trace sampling; its mean is the per-hop estimate "
      "sampled frames accumulate",
      obs::Unit::kNanoseconds);
  tracer_.set_hop_histogram(relay_hop_);

  core::Engine::Hooks hooks;
  hooks.send = [this](NodeId dst, const core::FrameRef& frame) {
    queue_frame(dst, frame);
  };
  hooks.deliver = [this](const core::RoundResult& r) {
    completed_rounds_.fetch_add(1, std::memory_order_release);
    if (on_deliver_) on_deliver_(r);
  };
  core::Engine::Options eopts;
  eopts.fd_mode = options_.fd_mode;
  eopts.window = options_.window;
  eopts.fast_builder = options_.fast_builder;
  eopts.recorder = &recorder_;
  eopts.tracer = &tracer_;
  eopts.trace_sample_period = options_.trace_sample_period;
  engine_ = std::make_unique<core::Engine>(
      options_.self,
      core::View(options_.members, options_.builder, options_.fast_builder),
      options_.builder, hooks, eopts);

  if (options_.enable_heartbeats) {
    core::HeartbeatFd::Hooks fd_hooks;
    fd_hooks.send = [this](NodeId dst, const core::FrameRef& frame) {
      queue_frame(dst, frame);
    };
    fd_hooks.suspect = [this](NodeId suspect) { engine_->on_suspect(suspect); };
    fd_ = std::make_unique<core::HeartbeatFd>(options_.self,
                                              options_.fd_params, fd_hooks);
    // Dual mode monitors (and connects, see dial_successors) the union
    // overlay G_U ∪ G_R; classic mode this is exactly G.
    fd_->set_peers(engine_->view().monitor_successors_of(options_.self),
                   engine_->view().monitor_predecessors_of(options_.self),
                   monotonic_now());
  }
  if (options_.fast_builder && options_.fallback_timeout > 0) {
    watchdog_ = std::make_unique<plus::FallbackTimer>(
        options_.fallback_timeout, options_.fallback_max_round_age);
    watchdog_->set_recorder(&recorder_);
  }
  // Listening from construction on: a peer started first connects at its
  // first attempt instead of sleeping out refused connects until this
  // node's loop runs (the kernel queues the connection; run() accepts it).
  setup_listener();
}

TcpNode::~TcpNode() {
  for (auto& [fd, conn] : conns_) ::close(fd);
  for (auto& [fd, conn] : admin_conns_) ::close(fd);
  if (admin_fd_ >= 0) ::close(admin_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

TcpNetStats TcpNode::net_stats() const {
  TcpNetStats s;
  s.sendmsg_calls = net_.sendmsg_calls.load(std::memory_order_relaxed);
  s.frames_sent = net_.frames_sent.load(std::memory_order_relaxed);
  s.bytes_sent = net_.bytes_sent.load(std::memory_order_relaxed);
  s.preamble_bytes = net_.preamble_bytes.load(std::memory_order_relaxed);
  s.partial_writes = net_.partial_writes.load(std::memory_order_relaxed);
  s.eagain_waits = net_.eagain_waits.load(std::memory_order_relaxed);
  s.frames_received = net_.frames_received.load(std::memory_order_relaxed);
  s.rbuf_compactions = net_.rbuf_compactions.load(std::memory_order_relaxed);
  s.checksum_drops = net_.checksum_drops.load(std::memory_order_relaxed);
  s.resyncs = net_.resyncs.load(std::memory_order_relaxed);
  return s;
}

void TcpNode::setup_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  ALLCONCUR_ASSERT(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port =
      htons(static_cast<std::uint16_t>(options_.base_port + options_.self));
  ALLCONCUR_ASSERT(
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "bind() failed (port in use?)");
  ALLCONCUR_ASSERT(::listen(listen_fd_, 64) == 0, "listen() failed");
  set_nonblocking(listen_fd_);
}

void TcpNode::dial(NodeId peer) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ALLCONCUR_ASSERT(fd >= 0, "socket() failed");
  set_nodelay(fd);
  if (options_.sndbuf_bytes > 0) {
    setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
               sizeof(options_.sndbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.base_port + peer));
  // Blocking connect with retries: peers may not be listening yet.
  for (int attempt = 0; attempt < 400; ++attempt) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      set_nonblocking(fd);
      Conn conn;
      conn.fd = fd;
      conn.peer = peer;
      conn.outbound = true;
      // Hello: announce who we are so the acceptor can map the link.
      const std::uint32_t hello = options_.self;
      conn.preamble.resize(4);
      std::memcpy(conn.preamble.data(), &hello, 4);
      conns_[fd] = std::move(conn);
      out_by_peer_[peer] = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
      Conn& c = conns_[fd];
      if (!flush(c)) {
        close_conn(fd);
      } else {
        update_epoll(c);
      }
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ALLCONCUR_ASSERT(false, "could not connect to successor");
}

void TcpNode::dial_successors() {
  // Dual mode dials two overlays' worth of links: fast rounds relay over
  // G_U, fallback/tracking traffic over G_R (monitor_* is their union;
  // classic mode it is exactly G's successor set).
  for (NodeId s : engine_->view().monitor_successors_of(options_.self)) {
    dial(s);
  }
  {
    const std::lock_guard<std::mutex> lock(connected_mutex_);
    connected_ = true;
  }
  connected_cv_.notify_all();
}

bool TcpNode::wait_connected(DurationNs timeout) {
  std::unique_lock<std::mutex> lock(connected_mutex_);
  return connected_cv_.wait_for(lock, std::chrono::nanoseconds(timeout),
                                [this] { return connected_; });
}

void TcpNode::run() {
  epoll_fd_ = epoll_create1(0);
  ALLCONCUR_ASSERT(epoll_fd_ >= 0, "epoll_create1 failed");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = event_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);

  if (fd_) {
    timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
    itimerspec spec{};
    const auto period_ns = options_.fd_params.period;
    spec.it_interval.tv_sec = period_ns / 1'000'000'000;
    spec.it_interval.tv_nsec = period_ns % 1'000'000'000;
    spec.it_value = spec.it_interval;
    timerfd_settime(timer_fd_, 0, &spec, nullptr);
    epoll_event tev{};
    tev.events = EPOLLIN;
    tev.data.fd = timer_fd_;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &tev);
  }

  epoll_event lev{};
  lev.events = EPOLLIN;
  lev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &lev);
  setup_admin_listener();
  dial_successors();

  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    // Stamps what this iteration does before it sleeps; the clock is read
    // again when epoll_wait returns.
    loop_now_ = monotonic_now();
    // A push that found the inbox non-empty wrote no eventfd: drain here so
    // nothing queued behind the last wake's swap waits for a timeout.
    drain_commands();
    int wait_ms = 50;
    if (options_.chaos) {
      wait_ms = std::min(wait_ms, release_delayed(loop_now_));
    }
    if (options_.chaos && recorder_.enabled()) {
      // Phase-set transitions bracket the fault windows in a dump.
      const std::uint64_t mask = options_.chaos->active_phase_mask(loop_now_);
      if (mask != chaos_phase_mask_) {
        chaos_phase_mask_ = mask;
        recorder_.record(obs::EventKind::kChaosPhase,
                         engine_->current_round(), mask);
      }
    }
    if (watchdog_) {
      // Poll the round watchdog once per wake; cap the sleep so a stall
      // with no socket activity still fires the fallback promptly.
      if (const auto stuck =
              watchdog_->poll(engine_->current_round(),
                              engine_->front_round_progress(),
                              monotonic_now())) {
        engine_->on_round_timeout(*stuck);
      }
      const int tick_ms =
          static_cast<int>(std::max<DurationNs>(options_.fallback_timeout / 2,
                                                ms(1)) / 1'000'000);
      wait_ms = std::min(wait_ms, tick_ms);
    }
    flush_dirty();
    const int ready = epoll_wait(epoll_fd_, events, 64, wait_ms);
    // Everything this wake delivers is stamped with the wake time, not the
    // time the loop went to sleep.
    loop_now_ = monotonic_now();
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        on_accept();
      } else if (fd == admin_fd_) {
        on_admin_accept();
      } else if (admin_conns_.count(fd) != 0) {
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 ||
            !on_admin_io(fd, events[i].events)) {
          epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
          ::close(fd);
          admin_conns_.erase(fd);
        }
      } else if (fd == event_fd_) {
        // One read returns and resets the whole count (non-semaphore).
        std::uint64_t count;
        [[maybe_unused]] const ssize_t n = ::read(event_fd_, &count, 8);
        drain_commands();
      } else if (fd == timer_fd_) {
        std::uint64_t expirations;  // one read resets the count
        [[maybe_unused]] const ssize_t n = ::read(timer_fd_, &expirations, 8);
        fd_tick();
      } else {
        // Hangups and errors go through the read path first, so frames
        // that arrived ahead of them are parsed before the close.
        const std::uint32_t what = events[i].events;
        if (what & (EPOLLIN | EPOLLHUP | EPOLLERR)) on_readable(fd);
        if (conns_.count(fd) == 0) continue;
        if (what & (EPOLLHUP | EPOLLERR)) {
          close_conn(fd);
        } else if (what & EPOLLOUT) {
          on_writable(fd);
        }
      }
    }
    // One coalesced flush per wake: everything the handlers above queued
    // (relays, broadcasts, heartbeats) leaves in a single vectored write
    // per peer instead of one syscall per message.
    flush_dirty();
  }
}

void TcpNode::fd_tick() {
  if (!fd_) return;
  fd_->tick(monotonic_now());
}

void TcpNode::on_accept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    set_nonblocking(fd);
    set_nodelay(fd);
    Conn conn;
    conn.fd = fd;
    conns_[fd] = std::move(conn);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void TcpNode::on_readable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  for (;;) {
    if (conn.rcap - conn.rend < kReadChunk) {
      // Grow by doubling; the copy carries only the live tail.
      const std::size_t live = conn.rend - conn.rstart;
      std::size_t cap = std::max(conn.rcap, kReadChunk);
      while (cap - live < kReadChunk) cap *= 2;
      auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
      if (live > 0) {
        std::memcpy(grown.get(), conn.rbuf.get() + conn.rstart, live);
      }
      conn.rbuf = std::move(grown);
      conn.rcap = cap;
      conn.rstart = 0;
      conn.rend = live;
    }
    const std::size_t want = conn.rcap - conn.rend;
    const ssize_t got = ::read(fd, conn.rbuf.get() + conn.rend, want);
    if (got > 0) {
      conn.rend += static_cast<std::size_t>(got);
      // A short read drained the socket; epoll reports it again if more
      // arrives, so no probe read for EAGAIN.
      if (static_cast<std::size_t>(got) < want) break;
      // A full one may have left more: parse first, so the buffer holds at
      // most one partial frame plus a chunk however fast the peer sends.
      parse_frames(conn);
    } else if (got < 0 && errno == EINTR) {
      continue;
    } else if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      // Peer closed (its FD heartbeats stop with it) or hard error
      // (ECONNRESET & co). Frames that arrived ahead of the FIN are valid:
      // deliver them before tearing the connection down.
      parse_frames(conn);
      close_conn(fd);
      return;
    }
  }
  parse_frames(conn);
}

void TcpNode::parse_frames(Conn& conn) {
  std::size_t at = conn.rstart;
  // Inbound links start with the peer's 4-byte hello.
  if (conn.peer == kInvalidNode) {
    if (conn.rend - at < 4) return;
    std::uint32_t hello;
    std::memcpy(&hello, conn.rbuf.get() + at, 4);
    conn.peer = hello;
    at += 4;
  }
  // Checksum-verified stream parse with torn-frame resync: a corrupted or
  // hostile frame (bad magic, absurd length, checksum mismatch) is dropped
  // and the parser hunts for the next plausible header instead of
  // desyncing the connection or stalling on a 4 GiB length field.
  core::StreamStats ss;
  at = core::parse_stream({conn.rbuf.get(), conn.rend}, at, ss,
                          [this, &conn](const core::Message& msg) {
                            net_.frames_received.fetch_add(
                                1, std::memory_order_relaxed);
                            if (fd_) {
                              // Any verified traffic counts as liveness.
                              fd_->on_heartbeat(conn.peer, monotonic_now());
                            }
                            if (msg.type == core::MsgType::kHeartbeat) return;
                            const bool bc =
                                msg.type == core::MsgType::kBroadcast ||
                                msg.type == core::MsgType::kUBcast;
                            if (bc) {
                              if (msg.trace_sampled()) {
                                tracer_.record(obs::SpanKind::kRecv, msg.round,
                                               msg.origin, conn.peer,
                                               msg.trace_hop(), msg.detector);
                              }
                              // Parse-to-relayed time feeds the per-hop
                              // histogram for every broadcast frame — the
                              // metric (and the tracer's hop estimate)
                              // stays live with sampling off.
                              const TimeNs t0 = monotonic_now();
                              engine_->on_message(conn.peer, msg);
                              relay_hop_->record(
                                  static_cast<std::uint64_t>(
                                      std::max<TimeNs>(0, monotonic_now() - t0)));
                            } else {
                              engine_->on_message(conn.peer, msg);
                            }
                          });
  if (ss.corrupt_drops > 0) {
    net_.checksum_drops.fetch_add(ss.corrupt_drops,
                                  std::memory_order_relaxed);
  }
  if (ss.resyncs > 0) {
    net_.resyncs.fetch_add(ss.resyncs, std::memory_order_relaxed);
  }
  conn.rstart = at;
  if (conn.rstart == conn.rend) {
    // Everything consumed — the common case: resetting is free, no memmove.
    conn.rstart = 0;
    conn.rend = 0;
  } else if (conn.rstart >= kCompactAt &&
             conn.rstart > conn.rend - conn.rstart) {
    // A large dead prefix outweighs the live tail: compact once.
    conn.rend -= conn.rstart;
    std::memmove(conn.rbuf.get(), conn.rbuf.get() + conn.rstart, conn.rend);
    conn.rstart = 0;
    net_.rbuf_compactions.fetch_add(1, std::memory_order_relaxed);
  }
}

void TcpNode::queue_frame(NodeId dst, const core::FrameRef& frame) {
  if (!options_.chaos) {
    queue_frame_now(dst, frame);
    return;
  }
  // Chaos interposition: same verdict point as SimCluster::handle_send —
  // one Action per outbound frame, drawn before any queueing.
  const chaos::Action act =
      options_.chaos->on_frame(options_.self, dst, monotonic_now());
  if (act.drop || act.duplicate || act.corrupt || act.delay > 0) {
    const std::uint64_t bits = (act.drop ? 1u : 0u) |
                               (act.duplicate ? 2u : 0u) |
                               (act.corrupt ? 4u : 0u) |
                               (act.delay > 0 ? 8u : 0u);
    recorder_.record(obs::EventKind::kChaosInject, engine_->current_round(),
                     dst, bits);
  }
  if (act.drop) return;
  const core::FrameRef out =
      act.corrupt ? core::Frame::corrupt_copy(*frame, act.corrupt_at) : frame;
  if (act.delay > 0) {
    // netem-style skew: park until now + delay; the event loop releases
    // due frames each wake.
    const TimeNs when = monotonic_now() + act.delay;
    park_delayed(when, dst, out);
    if (act.duplicate) park_delayed(when, dst, out);
    return;
  }
  queue_frame_now(dst, out);
  if (act.duplicate) queue_frame_now(dst, out);
}

void TcpNode::park_delayed(TimeNs when, NodeId dst, core::FrameRef frame) {
  // Sorted insert from the back: a constant gray slowdown keeps this O(1);
  // only reorder jitter pays a short walk.
  auto it = delayed_.end();
  while (it != delayed_.begin() && std::get<0>(*std::prev(it)) > when) --it;
  delayed_.insert(it, std::make_tuple(when, dst, std::move(frame)));
}

int TcpNode::release_delayed(TimeNs now) {
  while (!delayed_.empty() && std::get<0>(delayed_.front()) <= now) {
    const auto& [when, dst, frame] = delayed_.front();
    queue_frame_now(dst, frame);
    delayed_.pop_front();
  }
  if (delayed_.empty()) return 50;
  const TimeNs next = std::get<0>(delayed_.front()) - now;
  // Round up so we do not spin on a sub-millisecond residue.
  return static_cast<int>(std::min<TimeNs>(50, (next + 999'999) / 1'000'000 + 1));
}

void TcpNode::queue_frame_now(NodeId dst, const core::FrameRef& frame) {
  const auto it = out_by_peer_.find(dst);
  if (it == out_by_peer_.end()) return;  // peer gone (crashed / removed)
  const auto conn_it = conns_.find(it->second);
  if (conn_it == conns_.end()) return;
  Conn& conn = conn_it->second;
  if (tracer_.enabled()) {
    const core::Message& m = frame->msg();
    if (m.trace_sampled() && (m.type == core::MsgType::kBroadcast ||
                              m.type == core::MsgType::kUBcast)) {
      tracer_.record(obs::SpanKind::kEnqueue, m.round, m.origin, dst,
                     m.trace_hop(), m.detector);
    }
  }
  conn.wqueue.push_back(frame);  // shared reference, no copy
  if (!conn.flush_pending) {
    conn.flush_pending = true;
    dirty_fds_.push_back(conn.fd);
  }
}

void TcpNode::flush_dirty() {
  // Walks fds, not Conn references: close_conn during the walk erases from
  // conns_, and a closed fd's stale entry is skipped by the lookup.
  if (dirty_fds_.empty()) return;
  for (std::size_t i = 0; i < dirty_fds_.size(); ++i) {
    const int fd = dirty_fds_[i];
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;  // closed since queued
    it->second.flush_pending = false;
    if (!flush(it->second)) {
      close_conn(fd);
    } else {
      update_epoll(it->second);
    }
  }
  dirty_fds_.clear();
}

void TcpNode::advance_tx(Conn& conn, std::size_t sent) {
  net_.bytes_sent.fetch_add(sent, std::memory_order_relaxed);
  if (conn.preamble_sent < conn.preamble.size()) {
    const std::size_t take =
        std::min(sent, conn.preamble.size() - conn.preamble_sent);
    conn.preamble_sent += take;
    net_.preamble_bytes.fetch_add(take, std::memory_order_relaxed);
    sent -= take;
  }
  while (sent > 0) {
    const core::Frame& front = *conn.wqueue.front();
    const std::size_t remaining = front.wire_size() - conn.wqueue_offset;
    if (sent >= remaining) {
      sent -= remaining;
      if (tracer_.enabled()) {
        const core::Message& m = front.msg();
        if (m.trace_sampled() && (m.type == core::MsgType::kBroadcast ||
                                  m.type == core::MsgType::kUBcast)) {
          // The frame's last byte entered the kernel: the wire edge starts.
          tracer_.record(obs::SpanKind::kSend, m.round, m.origin, conn.peer,
                         m.trace_hop(), m.detector);
        }
      }
      conn.wqueue.pop_front();
      conn.wqueue_offset = 0;
      net_.frames_sent.fetch_add(1, std::memory_order_relaxed);
    } else {
      conn.wqueue_offset += sent;
      sent = 0;
    }
  }
}

bool TcpNode::flush(Conn& conn) {
  while (conn.has_tx_backlog()) {
    // Gather the backlog into one iovec batch: the hello preamble, then
    // [header, payload] per queued frame, the front frame offset by what
    // already left in a previous partial write.
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    std::size_t gathered = 0;
    if (conn.preamble_sent < conn.preamble.size()) {
      iov[niov].iov_base = conn.preamble.data() + conn.preamble_sent;
      iov[niov].iov_len = conn.preamble.size() - conn.preamble_sent;
      gathered += iov[niov].iov_len;
      ++niov;
    }
    std::size_t skip = conn.wqueue_offset;
    for (const core::FrameRef& f : conn.wqueue) {
      if (niov + 2 > kMaxIov) break;
      const auto header = f->header();
      if (skip < header.size()) {
        iov[niov].iov_base =
            const_cast<std::uint8_t*>(header.data() + skip);
        iov[niov].iov_len = header.size() - skip;
        gathered += iov[niov].iov_len;
        ++niov;
        skip = 0;
      } else {
        skip -= header.size();
      }
      const core::Payload& payload = f->wire_payload();
      if (payload && skip < payload->size()) {
        iov[niov].iov_base =
            const_cast<std::uint8_t*>(payload->data() + skip);
        iov[niov].iov_len = payload->size() - skip;
        gathered += iov[niov].iov_len;
        ++niov;
      }
      skip = 0;  // only the front frame is partially sent
    }

    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    const ssize_t sent = ::sendmsg(conn.fd, &mh, MSG_NOSIGNAL);
    net_.sendmsg_calls.fetch_add(1, std::memory_order_relaxed);
    if (sent < 0) {
      if (errno == EINTR) continue;  // interrupted: retry
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer full: park the backlog and wait for EPOLLOUT.
        net_.eagain_waits.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // Hard error (EPIPE, ECONNRESET, ...): the peer is dead — report it
      // so the connection is torn down promptly instead of queueing into
      // the void until the FD times out.
      return false;
    }
    advance_tx(conn, static_cast<std::size_t>(sent));
    if (static_cast<std::size_t>(sent) < gathered) {
      // Short write: the kernel took what it could; a retry now would
      // only earn an EAGAIN. Wait for EPOLLOUT.
      net_.partial_writes.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    // Full batch accepted; loop only if the iovec cap left frames queued.
  }
  return true;
}

void TcpNode::update_epoll(Conn& conn) {
  const bool want = conn.has_tx_backlog();
  if (want == conn.want_writable) return;  // registration already right
  conn.want_writable = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void TcpNode::on_writable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (!flush(it->second)) {
    close_conn(fd);
  } else {
    update_epoll(it->second);
  }
}

void TcpNode::close_conn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second.outbound) out_by_peer_.erase(it->second.peer);
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
}

void TcpNode::drain_commands() {
  {
    // drained_ is empty here: the swap hands the loop the whole inbox and
    // leaves the producers an empty vector that keeps its capacity.
    const std::lock_guard<std::mutex> lock(cmd_mutex_);
    inbox_.swap(drained_);
  }
  for (Command& cmd : drained_) {
    if (cmd.kind == Command::Kind::kSubmit) {
      engine_->submit(std::move(cmd.request));
    } else {
      engine_->broadcast_now();
    }
  }
  drained_.clear();
  // Publish the backpressure signal after the commands (submits,
  // broadcasts) took effect on the engine.
  pending_bytes_.store(engine_->pending_bytes(), std::memory_order_release);
}

void TcpNode::push_command(Command cmd) {
  bool was_empty;
  {
    const std::lock_guard<std::mutex> lock(cmd_mutex_);
    was_empty = inbox_.empty();
    inbox_.push_back(std::move(cmd));
  }
  // A non-empty inbox already has a wake pending, or the loop has not yet
  // swapped it out and will drain it before it sleeps again.
  if (was_empty) wake();
}

void TcpNode::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(event_fd_, &one, 8);
}

void TcpNode::submit(core::Request request) {
  push_command({Command::Kind::kSubmit, std::move(request)});
}

void TcpNode::broadcast_now() {
  push_command({Command::Kind::kBroadcastNow, {}});
}

void TcpNode::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

// ---------------------------------------------------------------------------
// Introspection plane. Entirely off the wire path: its own listener, its
// own connection map, request/response handled in at most a few wakes.
// ---------------------------------------------------------------------------

std::string TcpNode::metrics_json() {
  obs::fill_engine_stats(metrics_, engine_->stats());
  obs::fill_net_stats(metrics_, net_stats());
  if (options_.chaos) obs::fill_chaos_stats(metrics_, options_.chaos->stats());
  metrics_
      .gauge("node_rounds_completed", "Rounds A-delivered by this node",
             obs::Unit::kRounds)
      .set(static_cast<std::int64_t>(rounds_completed()));
  metrics_
      .gauge("node_pending_bytes",
             "Submitted but not yet A-broadcast bytes (backpressure signal)",
             obs::Unit::kBytes)
      .set(static_cast<std::int64_t>(pending_bytes()));
  return metrics_.to_json(2);
}

std::string TcpNode::metrics_prometheus() {
  metrics_json();  // refresh the registry; discard the JSON rendering
  return metrics_.to_prometheus();
}

void TcpNode::setup_admin_listener() {
  if (options_.admin_port == 0) return;
  admin_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  ALLCONCUR_ASSERT(admin_fd_ >= 0, "socket() failed (admin)");
  const int one = 1;
  setsockopt(admin_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port =
      htons(static_cast<std::uint16_t>(options_.admin_port + options_.self));
  ALLCONCUR_ASSERT(::bind(admin_fd_, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                   "bind() failed (admin port in use?)");
  ALLCONCUR_ASSERT(::listen(admin_fd_, 16) == 0, "listen() failed (admin)");
  set_nonblocking(admin_fd_);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = admin_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, admin_fd_, &ev);
}

void TcpNode::on_admin_accept() {
  for (;;) {
    const int fd = ::accept(admin_fd_, nullptr, nullptr);
    if (fd < 0) return;
    set_nonblocking(fd);
    admin_conns_[fd] = AdminConn{};
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

std::string TcpNode::admin_body(const std::string& path, bool& ok) {
  ok = true;
  const std::string label = "node" + std::to_string(options_.self);
  if (path == "/metrics") return metrics_prometheus();
  if (path == "/metrics.json") return metrics_json();
  if (path == "/recorder") return recorder_.dump_json(label);
  if (path == "/recorder.txt") return recorder_.dump_text(label);
  if (path == "/trace") return tracer_.dump_json(label);
  if (path == "/healthz") return "ok\n";
  ok = false;
  return "unknown path: " + path +
         " (try /metrics /metrics.json /recorder /recorder.txt /trace "
         "/healthz)\n";
}

bool TcpNode::on_admin_io(int fd, std::uint32_t events) {
  const auto it = admin_conns_.find(fd);
  if (it == admin_conns_.end()) return false;
  AdminConn& ac = it->second;

  if (!ac.responding && (events & EPOLLIN) != 0) {
    char buf[4096];
    for (;;) {
      const ssize_t got = ::read(fd, buf, sizeof(buf));
      if (got > 0) {
        ac.request.append(buf, static_cast<std::size_t>(got));
        if (ac.request.size() > 64 * 1024) return false;  // abusive client
      } else if (got == 0) {
        // EOF before a full request: nothing sensible to answer.
        if (ac.request.find("\r\n") == std::string::npos) return false;
        break;
      } else if (errno == EINTR) {
        continue;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else {
        return false;
      }
    }
    // One-shot request: the GET line is everything we need, so respond as
    // soon as it is complete (headers, if any, are ignored).
    const std::size_t eol = ac.request.find("\r\n");
    if (eol == std::string::npos) return true;  // keep reading
    const std::string line = ac.request.substr(0, eol);
    std::string pth = "/";
    if (line.rfind("GET ", 0) == 0) {
      const std::size_t sp = line.find(' ', 4);
      pth = line.substr(4, sp == std::string::npos ? std::string::npos
                                                   : sp - 4);
    }
    bool found = false;
    const std::string body = admin_body(pth, found);
    const char* status = found ? "200 OK" : "404 Not Found";
    const char* ctype =
        (pth == "/metrics.json" || pth == "/recorder" || pth == "/trace")
            ? "application/json"
            : "text/plain; charset=utf-8";
    ac.response = "HTTP/1.0 " + std::string(status) +
                  "\r\nContent-Type: " + ctype +
                  "\r\nContent-Length: " + std::to_string(body.size()) +
                  "\r\nConnection: close\r\n\r\n" + body;
    ac.responding = true;
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }

  if (ac.responding && (events & EPOLLOUT) != 0) {
    while (ac.sent < ac.response.size()) {
      const ssize_t put = ::send(fd, ac.response.data() + ac.sent,
                                 ac.response.size() - ac.sent, MSG_NOSIGNAL);
      if (put > 0) {
        ac.sent += static_cast<std::size_t>(put);
      } else if (put < 0 && errno == EINTR) {
        continue;
      } else if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;  // kernel buffer full; wait for the next EPOLLOUT
      } else {
        return false;
      }
    }
    return false;  // fully sent: close (HTTP/1.0, Connection: close)
  }
  return true;
}

}  // namespace allconcur::net
