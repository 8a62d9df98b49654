// Micro-benchmarks (google-benchmark): hot paths of the implementation —
// tracking-digraph updates, message serialization, GS construction,
// graph analyses, and whole in-process protocol rounds.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/message.hpp"
#include "core/tracking.hpp"
#include "graph/binomial_graph.hpp"
#include "graph/connectivity.hpp"
#include "graph/fault_diameter.hpp"
#include "graph/gs_digraph.hpp"
#include "graph/properties.hpp"
#include "graph/reliability.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace allconcur;

void BM_GsConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = graph::paper_gs_degree(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::make_gs_digraph(n, d));
  }
}
BENCHMARK(BM_GsConstruction)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_Diameter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_gs_digraph(n, graph::paper_gs_degree(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::diameter(g));
  }
}
BENCHMARK(BM_Diameter)->Arg(64)->Arg(256);

void BM_VertexConnectivity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_gs_digraph(n, graph::paper_gs_degree(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::vertex_connectivity(g));
  }
}
BENCHMARK(BM_VertexConnectivity)->Arg(16)->Arg(45);

void BM_MinSumDisjointPaths(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = graph::paper_gs_degree(n);
  const auto g = graph::make_gs_digraph(n, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::min_sum_disjoint_paths(g, 0, 1, d));
  }
}
BENCHMARK(BM_MinSumDisjointPaths)->Arg(64)->Arg(256);

void BM_MessageEncode(benchmark::State& state) {
  const auto m = core::Message::bcast(
      7, 3,
      core::make_payload(
          std::vector<std::uint8_t>(static_cast<std::size_t>(state.range(0)))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode(m));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MessageEncode)->Arg(64)->Arg(4096)->Arg(262144);

void BM_MessageDecode(benchmark::State& state) {
  const auto bytes = core::encode(core::Message::bcast(
      7, 3,
      core::make_payload(
          std::vector<std::uint8_t>(static_cast<std::size_t>(state.range(0))))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decode(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MessageDecode)->Arg(64)->Arg(4096)->Arg(262144);

class Knowledge final : public core::FailureKnowledge {
 public:
  bool is_failed(NodeId rank) const override { return rank < failed_below; }
  bool has_pair(NodeId, NodeId) const override { return false; }
  NodeId failed_below = 0;
};

void BM_TrackingExpansion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto overlay = graph::make_gs_digraph(n, graph::paper_gs_degree(n));
  Knowledge fk;
  fk.failed_below = 2;  // failure chaining through one extra server
  for (auto _ : state) {
    core::TrackingDigraph g;
    g.reset(5);
    g.on_failure(5, overlay.successors(5)[0], overlay, fk);
    benchmark::DoNotOptimize(g.vertex_count());
  }
}
BENCHMARK(BM_TrackingExpansion)->Arg(64)->Arg(256)->Arg(1024);

// One full failure-free agreement round across n in-process engines wired
// back-to-back (no simulated network): the pure protocol-processing cost.
void BM_ProtocolRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  using core::Engine;
  using core::Message;
  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
  const auto builder = core::make_default_graph_builder();

  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<Engine>> engines(n);
    std::vector<std::tuple<NodeId, NodeId, Message>> queue;
    std::size_t delivered = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = static_cast<NodeId>(i);
      Engine::Hooks hooks;
      hooks.send = [&queue, id](NodeId dst, const core::FrameRef& f) {
        queue.emplace_back(id, dst, f->msg());
      };
      hooks.deliver = [&delivered](const core::RoundResult&) { ++delivered; };
      engines[i] = std::make_unique<Engine>(id, core::View(members, builder),
                                            builder, hooks);
    }
    state.ResumeTiming();

    for (auto& e : engines) e->broadcast_now();
    std::size_t head = 0;
    while (head < queue.size()) {
      auto [src, dst, msg] = queue[head++];
      engines[dst]->on_message(src, msg);
    }
    if (delivered != n) state.SkipWithError("round did not complete");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ProtocolRound)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMicrosecond);

// The simulator's event queue under a kv_sim-like load: `pending` frame
// hops in flight, each moving itself on 1-32 us ahead on a 100 ns grid (so
// many share a time), as the fabric's hops do. One event is one pop plus
// one schedule; time_per_event is the cost of both.
void BM_SimulatorQueue(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  std::vector<DurationNs> delays(4096);
  Rng rng(1);
  for (auto& d : delays) {
    d = 100 * static_cast<DurationNs>(10 + rng.next_below(311));
  }
  std::size_t next = 0;
  sim::Simulator s;
  s.set_hop_handler([&](sim::Hop& hop) {
    s.schedule_hop(s.now() + delays[next++ % delays.size()], std::move(hop));
  });
  for (std::size_t i = 0; i < pending; ++i) {
    s.schedule_hop(delays[next++ % delays.size()], sim::Hop{});
  }
  const std::size_t before = s.events_processed();
  for (auto _ : state) s.run_until(s.now() + us(1));
  const auto events = static_cast<double>(s.events_processed() - before);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["time_per_event"] = benchmark::Counter(
      events, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SimulatorQueue)->Arg(1024)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
