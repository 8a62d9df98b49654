// Test harness: n TcpNodes on localhost, one thread each — the
// multi-process-on-one-server deployment shape, in-process for testing.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/ports.hpp"
#include "net/tcp_transport.hpp"
#include "test_env.hpp"

namespace allconcur::testing {

class TcpCluster {
 public:
  /// `tweak` (optional) edits each node's options before construction —
  /// e.g. shrinking sndbuf_bytes to force write backpressure.
  explicit TcpCluster(std::size_t n, core::FdMode fd_mode = core::FdMode::kPerfect,
                      DurationNs fd_timeout = ms(250),
                      std::function<void(net::TcpNodeOptions&)> tweak = nullptr) {
    // 2n free ports: [base, base + n) for the nodes, and the n above
    // them for tests that also open admin endpoints (base + n + self).
    const std::uint16_t base = net::pick_free_port_base(2 * n, test_seed());
    fd_timeout = scaled(fd_timeout);
    std::vector<NodeId> members(n);
    for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
    for (std::size_t i = 0; i < n; ++i) {
      net::TcpNodeOptions opt;
      opt.self = static_cast<NodeId>(i);
      opt.members = members;
      opt.base_port = base;
      opt.fd_mode = fd_mode;
      opt.fd_params.period = ms(25);
      opt.fd_params.timeout = fd_timeout;
      if (tweak) tweak(opt);
      const NodeId id = static_cast<NodeId>(i);
      nodes_.push_back(std::make_unique<net::TcpNode>(
          opt, [this, id](const core::RoundResult& r) {
            const std::lock_guard<std::mutex> lock(mutex_);
            delivered_[id].push_back(r);
          }));
    }
    for (auto& node : nodes_) {
      threads_.emplace_back([&node] { node->run(); });
    }
    for (auto& node : nodes_) node->wait_connected(scaled(sec(10)));
  }

  ~TcpCluster() { shutdown(); }

  /// Stops every node and joins its thread; afterwards per-node state
  /// (recorder, tracer, stats) is safe to read without racing the loop.
  void shutdown() {
    for (auto& node : nodes_) node->stop();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  net::TcpNode& node(NodeId id) { return *nodes_[id]; }
  std::size_t size() const { return nodes_.size(); }

  std::vector<core::RoundResult> delivered(NodeId id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return delivered_[id];
  }

  /// Waits until every node in `ids` handed at least `rounds` rounds to
  /// its deliver callback, so delivered() already holds them (a node's
  /// rounds_completed() counts a round before its callback runs, and on a
  /// membership change the node dials new successors in between).
  /// The budget is scaled by ALLCONCUR_TEST_TIME_SCALE for slow runners.
  bool wait_rounds(const std::vector<NodeId>& ids, std::uint64_t rounds,
                   DurationNs timeout) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(scaled(timeout));
    for (;;) {
      bool done = true;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (NodeId id : ids) {
          if (delivered_[id].size() < rounds) {
            done = false;
            break;
          }
        }
      }
      if (done) return true;
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Hard-stops a node (fail-stop: its sockets close, heartbeats cease).
  void crash(NodeId id) {
    nodes_[id]->stop();
  }

 private:
  std::vector<std::unique_ptr<net::TcpNode>> nodes_;
  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::map<NodeId, std::vector<core::RoundResult>> delivered_;
};

}  // namespace allconcur::testing
