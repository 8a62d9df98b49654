// allconcur_kv: drive a replicated KV store over a real TCP AllConcur
// cluster (the multi-process-on-one-server shape: every node runs its
// own epoll event loop on its own thread, exactly as separate processes
// would).
//
//   $ allconcur_kv put --key=motd --value=hello [--n=5]
//   $ allconcur_kv get --key=motd [--n=5] [--put-first=hello]
//   $ allconcur_kv bench [--n=5] [--ops=500] [--value-bytes=64] [--smoke]
//
// put: writes through the agreed stream, barriers every replica to the
//      write's round and verifies the value landed everywhere.
// get: linearizable read through the stream (optionally seeding the key
//      first with --put-first so the read has something to find).
// bench: streams puts from one client and reports applied ops/s plus
//      the cross-replica convergence check.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hpp"
#include "net/ports.hpp"
#include "smr/tcp_kv.hpp"

using namespace allconcur;

namespace {

struct Cluster {
  std::vector<std::unique_ptr<smr::KvNode>> nodes;

  explicit Cluster(std::size_t n, std::uint16_t admin_port = 0,
                   std::uint32_t trace_period = 0) {
    const auto base = net::pick_free_port_base(n);
    std::vector<NodeId> members(n);
    for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
    for (std::size_t i = 0; i < n; ++i) {
      net::TcpNodeOptions opt;
      opt.self = static_cast<NodeId>(i);
      opt.members = members;
      opt.base_port = base;
      opt.admin_port = admin_port;
      opt.trace_sample_period = trace_period;
      nodes.push_back(std::make_unique<smr::KvNode>(std::move(opt)));
    }
    for (auto& node : nodes) node->start();
    for (auto& node : nodes) node->wait_connected(sec(10));
    std::printf("# %zu nodes connected over localhost TCP (ports %u..%u)\n",
                n, base, base + static_cast<unsigned>(n) - 1);
    if (admin_port != 0) {
      std::printf("# admin endpoints live on ports %u..%u "
                  "(allconcur_inspect --port=%u)\n",
                  admin_port, admin_port + static_cast<unsigned>(n) - 1,
                  admin_port);
    }
  }

  /// Barriers every replica to node 0's tip, waits for all of them to
  /// quiesce at one common round (barrier nudges can start extra empty
  /// rounds), then compares every state hash — never vacuously true.
  bool converged() {
    const Round tip = nodes[0]->next_round();
    if (tip == 0) return true;
    for (auto& node : nodes) {
      if (!node->read_barrier(tip - 1, sec(30))) return false;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      Round lo = nodes[0]->next_round(), hi = lo;
      for (auto& node : nodes) {
        lo = std::min(lo, node->next_round());
        hi = std::max(hi, node->next_round());
      }
      if (lo == hi) break;
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (auto& node : nodes) {
      if (node->state_hash() != nodes[0]->state_hash()) return false;
    }
    return true;
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: allconcur_kv <put|get|bench> [--n=5] [--key=...] "
               "[--value=...] [--put-first=...] [--ops=500] "
               "[--value-bytes=64] [--smoke] [--admin-port=0] "
               "[--trace-period=0]\n");
  return 2;
}

int cmd_put(Cluster& cluster, const std::string& key,
            const std::string& value) {
  smr::KvSession session(1);
  const auto resp = cluster.nodes[0]->execute(
      session, smr::Command::put(smr::to_bytes(key), smr::to_bytes(value)));
  if (!resp || !resp->ok()) {
    std::fprintf(stderr, "put failed\n");
    return 1;
  }
  std::printf("put %s=%s agreed in round %llu\n", key.c_str(), value.c_str(),
              static_cast<unsigned long long>(
                  cluster.nodes[0]->next_round() - 1));
  // Verify the write is on every replica.
  const Round observed = cluster.nodes[0]->next_round() - 1;
  for (auto& node : cluster.nodes) {
    if (!node->read_barrier(observed, sec(30)) ||
        node->get_local(smr::to_bytes(key)) != smr::to_bytes(value)) {
      std::fprintf(stderr, "replica %u did not converge on the write\n",
                   node->self());
      return 1;
    }
  }
  std::printf("all %zu replicas hold the value\n", cluster.nodes.size());
  return 0;
}

int cmd_get(Cluster& cluster, const std::string& key,
            const Flags& flags) {
  smr::KvSession session(1);
  if (flags.has("put-first")) {
    const auto seeded = flags.get("put-first", "");
    if (!cluster.nodes[0]->execute(
            session,
            smr::Command::put(smr::to_bytes(key), smr::to_bytes(seeded)))) {
      std::fprintf(stderr, "seeding put failed\n");
      return 1;
    }
  }
  // Linearizable read: through the stream, from a different node.
  const auto resp = cluster.nodes[cluster.nodes.size() - 1]->execute(
      session, smr::Command::get(smr::to_bytes(key)));
  if (!resp) {
    std::fprintf(stderr, "get timed out\n");
    return 1;
  }
  if (resp->status == smr::KvResponse::Status::kNotFound) {
    std::printf("%s: (not found)\n", key.c_str());
  } else {
    std::printf("%s=%s\n", key.c_str(),
                std::string(smr::to_view(resp->value)).c_str());
  }
  return 0;
}

int cmd_bench(Cluster& cluster, const Flags& flags) {
  const bool smoke = flags.get_bool("smoke", false);
  const std::size_t ops =
      static_cast<std::size_t>(flags.get_int("ops", smoke ? 40 : 500));
  const std::size_t value_bytes =
      static_cast<std::size_t>(flags.get_int("value-bytes", 64));
  smr::KvSession session(1);
  const smr::Bytes value(value_bytes, 0x61);

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const auto key = smr::to_bytes("key-" + std::to_string(i % 64));
    const auto resp = cluster.nodes[0]->execute(
        session, smr::Command::put(key, value), sec(30));
    if (!resp || !resp->ok()) {
      std::fprintf(stderr, "op %zu failed\n", i);
      return 1;
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!cluster.converged()) {
    std::fprintf(stderr, "replicas diverged\n");
    return 1;
  }
  std::printf(
      "%zu ops x %zu B over %zu nodes: %.0f ops/s agreed+applied "
      "(%.2f ms/op), replicas converged\n",
      ops, value_bytes, cluster.nodes.size(),
      static_cast<double>(ops) / secs,
      1e3 * secs / static_cast<double>(ops));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') return usage();
  const std::string sub = argv[1];
  const Flags flags(argc - 1, argv + 1);
  const std::size_t n = static_cast<std::size_t>(flags.get_int("n", 5));
  if (sub != "put" && sub != "get" && sub != "bench") return usage();

  // --admin-port: serve the obs admin endpoint on admin-port + node id
  // while the command runs (0 = off) — allconcur_inspect can fetch live
  // metrics/recorder snapshots from another terminal. --trace-period
  // additionally arms the causal tracer (sample 1 round in N, 0 = off);
  // `allconcur_trace --port=<admin-port> --nodes=<n>` then merges the
  // live span dumps into the propagation DAG.
  Cluster cluster(n,
                  static_cast<std::uint16_t>(flags.get_int("admin-port", 0)),
                  static_cast<std::uint32_t>(
                      std::max<std::int64_t>(0, flags.get_int("trace-period",
                                                              0))));
  int rc = 2;
  if (sub == "put") {
    rc = cmd_put(cluster, flags.get("key", "motd"),
                 flags.get("value", "hello"));
  } else if (sub == "get") {
    rc = cmd_get(cluster, flags.get("key", "motd"), flags);
  } else {
    rc = cmd_bench(cluster, flags);
  }
  for (auto& node : cluster.nodes) node->stop();
  return rc;
}
