// Integration tests over real localhost TCP sockets: the replicated KV
// store mounted on epoll-driven TcpNodes — convergence, exactly-once
// retries, snapshot equality, and a crash-failure scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/ports.hpp"
#include "smr/tcp_kv.hpp"
#include "test_env.hpp"

namespace allconcur::smr {
namespace {

using allconcur::testing::scaled;
using allconcur::testing::test_seed;

Bytes b(std::string_view s) { return to_bytes(s); }

// n KvNodes on localhost, one event-loop thread each (the
// multi-process-on-one-server deployment shape, in-process for testing).
class KvTcpCluster {
 public:
  explicit KvTcpCluster(std::size_t n, DurationNs fd_timeout = ms(250),
                        std::size_t window = 1) {
    const std::uint16_t base = net::pick_free_port_base(n, test_seed());
    std::vector<NodeId> members(n);
    for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
    for (std::size_t i = 0; i < n; ++i) {
      net::TcpNodeOptions opt;
      opt.self = static_cast<NodeId>(i);
      opt.members = members;
      opt.base_port = base;
      opt.window = window;
      opt.fd_params.period = ms(25);
      opt.fd_params.timeout = scaled(fd_timeout);
      nodes_.push_back(std::make_unique<KvNode>(std::move(opt)));
    }
    for (auto& node : nodes_) node->start();
    for (auto& node : nodes_) node->wait_connected(scaled(sec(10)));
  }

  KvNode& node(NodeId id) { return *nodes_[id]; }
  std::size_t size() const { return nodes_.size(); }

  /// Barriers every node in `ids` to node `from`'s applied tip, then
  /// expects identical state hashes (the cross-replica divergence check).
  void expect_converged(const std::vector<NodeId>& ids, NodeId from) {
    ASSERT_GT(nodes_[from]->next_round(), 0u);
    const Round tip = nodes_[from]->next_round() - 1;
    for (NodeId id : ids) {
      ASSERT_TRUE(nodes_[id]->read_barrier(tip, scaled(sec(30))))
          << "node " << id << " never applied round " << tip;
    }
    // Barriered replicas may have run ahead; compare at a common round.
    Round common = nodes_[ids.front()]->next_round();
    for (NodeId id : ids) common = std::min(common, nodes_[id]->next_round());
    for (NodeId id : ids) {
      ASSERT_TRUE(nodes_[id]->read_barrier(common - 1, scaled(sec(30))));
    }
    // Quiesce: wait until everyone sits at the same round, then compare.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(scaled(sec(30)));
    for (;;) {
      Round lo = nodes_[ids.front()]->next_round(), hi = lo;
      for (NodeId id : ids) {
        lo = std::min(lo, nodes_[id]->next_round());
        hi = std::max(hi, nodes_[id]->next_round());
      }
      if (lo == hi) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "replicas never quiesced at a common round";
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (NodeId id : ids) {
      EXPECT_EQ(nodes_[id]->state_hash(), nodes_[from]->state_hash())
          << "node " << id << " diverged";
    }
  }

 private:
  std::vector<std::unique_ptr<KvNode>> nodes_;
};

TEST(TcpKv, PutGetConvergesAcrossRealSockets) {
  KvTcpCluster c(5);
  KvSession session(1);
  const auto put =
      c.node(0).execute(session, Command::put(b("wire"), b("survives")));
  ASSERT_TRUE(put.has_value());
  EXPECT_TRUE(put->ok());

  // Linearizable read path: barrier another node to the observed round,
  // then read locally.
  const Round observed = c.node(0).next_round() - 1;
  ASSERT_TRUE(c.node(3).read_barrier(observed, scaled(sec(30))));
  EXPECT_EQ(c.node(3).get_local(b("wire")), b("survives"));

  // Linearizable read through the stream from yet another node.
  KvSession reader(2);
  const auto got = c.node(4).execute(reader, Command::get(b("wire")));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, b("survives"));

  c.expect_converged({0, 1, 2, 3, 4}, 0);
}

TEST(TcpKv, DuplicateSubmissionAppliesExactlyOnce) {
  KvTcpCluster c(4);
  KvSession session(7);
  const auto first =
      c.node(1).execute(session, Command::put(b("count"), b("one")));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->ok());

  // The client (pretending its response was lost) retries the identical
  // envelope through two other nodes.
  const auto retry2 = c.node(2).retry(session, scaled(sec(30)));
  ASSERT_TRUE(retry2.has_value());
  EXPECT_TRUE(retry2->ok());
  const auto retry3 = c.node(3).retry(session, scaled(sec(30)));
  ASSERT_TRUE(retry3.has_value());
  EXPECT_TRUE(retry3->ok());

  // Both retries answered instantly from the session cache; now drive a
  // round on each retry node so the duplicate envelopes actually land in
  // the agreed stream (the barrier's broadcast nudge packs them).
  for (const NodeId id : {NodeId{2}, NodeId{3}}) {
    const Round r = c.node(id).next_round();
    ASSERT_TRUE(c.node(id).read_barrier(r, scaled(sec(30))));
  }

  c.expect_converged({0, 1, 2, 3}, 0);
  // Each replica applied the command once; the extra copies that reached
  // the stream were suppressed identically everywhere.
  for (NodeId id = 0; id < 4; ++id) {
    EXPECT_EQ(c.node(id).commands_applied(), 1u) << "node " << id;
    EXPECT_EQ(c.node(id).duplicates_suppressed(),
              c.node(0).duplicates_suppressed())
        << "node " << id;
  }
  EXPECT_GE(c.node(0).duplicates_suppressed(), 1u);
  EXPECT_EQ(c.node(0).get_local(b("count")), b("one"));
}

TEST(TcpKv, SnapshotMatchesBitForBitAcrossNodes) {
  KvTcpCluster c(4);
  KvSession session(9);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(c.node(0).execute(
        session, Command::put(b("k" + std::to_string(i)),
                              b("v" + std::to_string(i)))));
  }
  c.expect_converged({0, 1, 2, 3}, 0);
  // Deterministic snapshots: once two replicas sit at the same round,
  // their serialized state is byte-identical — and a fresh replica
  // restored from it reports the same divergence hash.
  const auto snap = c.node(0).snapshot();
  EXPECT_EQ(c.node(2).snapshot(), snap);
  Replica restored(std::make_unique<KvStore>());
  ASSERT_TRUE(restored.restore(snap));
  EXPECT_EQ(restored.state_hash(), c.node(0).state_hash());
  const auto& kv = dynamic_cast<const KvStore&>(restored.machine());
  EXPECT_EQ(kv.get_local(b("k4")), b("v4"));
}

TEST(TcpKv, PipelinedWindowConvergesAndStaysExactlyOnce) {
  // W = 4 over real sockets: several sessions push writes concurrently
  // (each session keeps one contact node — the session ordering
  // contract), rounds overlap in flight, and the replicas must converge
  // on identical hashes with exactly-once semantics intact.
  KvTcpCluster c(5, ms(250), /*window=*/4);
  std::vector<KvSession> sessions;
  for (std::uint64_t s = 1; s <= 3; ++s) sessions.emplace_back(100 + s);

  for (int batch = 0; batch < 4; ++batch) {
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const std::string key = "s" + std::to_string(s);
      const std::string val =
          "b" + std::to_string(batch) + "_" + std::to_string(s);
      const auto resp = c.node(static_cast<NodeId>(s)).execute(
          sessions[s], Command::put(b(key), b(val)), scaled(sec(30)));
      ASSERT_TRUE(resp.has_value()) << "batch " << batch << " session " << s;
      EXPECT_TRUE(resp->ok());
    }
  }
  // A duplicate retry through another node must still be suppressed.
  const auto retry = c.node(4).retry(sessions[0], scaled(sec(30)));
  ASSERT_TRUE(retry.has_value());
  EXPECT_TRUE(retry->ok());

  c.expect_converged({0, 1, 2, 3, 4}, 0);
  for (NodeId id = 0; id < 5; ++id) {
    EXPECT_EQ(c.node(id).commands_applied(), 12u) << "node " << id;
    EXPECT_EQ(c.node(id).get_local(b("s1")), b("b3_1"));
  }
}

TEST(TcpKv, PendingBytesSurfacesBackpressure) {
  // submit() without a broadcast parks the payload in the engine; the
  // transport publishes the backlog through KvNode::pending_bytes() so a
  // client can throttle. Driving a round flushes it back to zero.
  KvTcpCluster c(3);
  KvSession session(55);
  c.node(0).transport().submit(
      core::Request::of_data(session.issue(Command::put(b("bp"), b("v")))));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(scaled(sec(10)));
  while (c.node(0).pending_bytes() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "pending bytes never surfaced";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(c.node(0).pending_bytes(), 0u);

  // Drive the round: the parked submission goes out and the signal clears.
  const Round r = c.node(0).next_round();
  ASSERT_TRUE(c.node(0).read_barrier(r, scaled(sec(30))));
  const auto clear_deadline = std::chrono::steady_clock::now() +
                              std::chrono::nanoseconds(scaled(sec(10)));
  while (c.node(0).pending_bytes() != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), clear_deadline)
        << "pending bytes never drained";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(c.node(0).get_local(b("bp")), b("v"));
}

TEST(TcpKv, SurvivesCrashFailure) {
  KvTcpCluster c(5);
  KvSession session(11);
  ASSERT_TRUE(c.node(0).execute(session, Command::put(b("pre"), b("crash"))));

  // Node 4 fail-stops: sockets close, heartbeats cease. The survivors'
  // heartbeat FDs evict it and the store keeps serving writes.
  c.node(4).stop();
  for (int i = 0; i < 3; ++i) {
    const auto resp = c.node(0).execute(
        session, Command::put(b("post" + std::to_string(i)), b("ok")),
        scaled(sec(60)));
    ASSERT_TRUE(resp.has_value()) << "write " << i << " after the crash";
    EXPECT_TRUE(resp->ok());
  }

  c.expect_converged({0, 1, 2, 3}, 0);
  EXPECT_EQ(c.node(2).get_local(b("pre")), b("crash"));
  EXPECT_EQ(c.node(2).get_local(b("post2")), b("ok"));
}

}  // namespace
}  // namespace allconcur::smr
