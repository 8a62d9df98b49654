// Real-transport deployment: n AllConcur nodes over localhost TCP sockets
// (the multi-process-on-one-server shape; each node runs its own epoll
// event loop on its own thread, exactly as separate processes would).
//
//   $ ./tcp_cluster            # 5 nodes, 10 rounds, one crash
//   $ ./tcp_cluster --n=8 --rounds=20
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/flags.hpp"
#include "net/ports.hpp"
#include "net/tcp_transport.hpp"

using namespace allconcur;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t n = static_cast<std::size_t>(flags.get_int("n", 5));
  const std::uint64_t rounds =
      static_cast<std::uint64_t>(flags.get_int("rounds", 10));
  const auto base_port = net::pick_free_port_base(n);

  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);

  std::vector<std::unique_ptr<net::TcpNode>> nodes;
  std::atomic<std::uint64_t> deliveries{0};
  for (std::size_t i = 0; i < n; ++i) {
    net::TcpNodeOptions opt;
    opt.self = static_cast<NodeId>(i);
    opt.members = members;
    opt.base_port = base_port;
    const NodeId id = static_cast<NodeId>(i);
    nodes.push_back(std::make_unique<net::TcpNode>(
        opt, [id, &deliveries](const core::RoundResult& r) {
          deliveries.fetch_add(1);
          if (id == 0) {
            std::printf("node 0: round %llu delivered, %zu messages, "
                        "view %zu\n",
                        static_cast<unsigned long long>(r.round),
                        r.deliveries.size(), r.view_size);
          }
        }));
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (auto& node : nodes) {
    threads.emplace_back([&node] { node->run(); });
  }
  for (auto& node : nodes) node->wait_connected(sec(10));
  std::printf("%zu nodes connected over localhost TCP (ports %u..%u)\n", n,
              base_port, base_port + static_cast<unsigned>(n) - 1);

  const NodeId victim = static_cast<NodeId>(n - 1);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    if (r == rounds / 2) {
      std::printf("-- crashing node %u --\n", victim);
      nodes[victim]->stop();
    }
    for (auto& node : nodes) {
      if (r >= rounds / 2 && node->self() == victim) continue;
      node->submit(core::Request::of_data(
          {static_cast<std::uint8_t>(r), node->self() == 0 ? uint8_t{1}
                                                            : uint8_t{0}}));
      node->broadcast_now();
    }
    // Wait for node 0 to finish the round (bounded so a protocol stall
    // fails the smoke test instead of hanging it).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (nodes[0]->rounds_completed() <= r) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "stalled waiting for round %llu\n",
                     static_cast<unsigned long long>(r));
        for (auto& node : nodes) node->stop();
        for (auto& t : threads) t.join();
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  const bool completed = nodes[0]->rounds_completed() >= rounds;
  for (auto& node : nodes) node->stop();
  for (auto& t : threads) t.join();
  std::printf("done: %llu total deliveries across %zu nodes\n",
              static_cast<unsigned long long>(deliveries.load()), n);
  return completed && deliveries.load() > 0 ? 0 : 1;
}
