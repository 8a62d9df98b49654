// Property suite for round pipelining: a windowed engine (W = 4) must
// agree with the classic stop-and-wait engine (W = 1) — identical
// per-round delivery sets, payloads and order — under clean crashes,
// randomized per-node delivery skew (adversarial partial interleavings)
// and in ⋄P mode. The view-switch *timing* is the one sanctioned
// difference: a change decided at round t takes effect at t+W.
//
// A second part mounts the replicated KV store on a pipelined simulated
// cluster with an induced slow node and a crash: SimKvCluster's built-in
// per-round cross-replica state-hash guard asserts on every apply, so a
// silent ordering divergence dies loudly, and the end state must
// converge.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "api/sim_cluster.hpp"
#include "chaos_scenarios.hpp"
#include "graph/binomial_graph.hpp"
#include "graph/gs_digraph.hpp"
#include "loopback_cluster.hpp"
#include "smr/kv_cluster.hpp"
#include "test_env.hpp"

namespace allconcur::core {
namespace {

using testing::LoopbackCluster;

struct PipelineCase {
  std::uint64_t seed;
  std::size_t n;
  std::size_t crashes;  // < k(G), crash rounds drawn from the seed
  bool binomial;
  bool dp_mode;
};

std::string case_name(const ::testing::TestParamInfo<PipelineCase>& info) {
  const auto& p = info.param;
  return "seed" + std::to_string(p.seed) + "_n" + std::to_string(p.n) +
         "_f" + std::to_string(p.crashes) +
         (p.binomial ? "_binomial" : "_gs") + (p.dp_mode ? "_dp" : "_p");
}

GraphBuilder overlay_for(const PipelineCase& p) {
  if (p.binomial) {
    return [](std::size_t n) {
      return n < 3 ? graph::make_complete(n) : graph::make_binomial_graph(n);
    };
  }
  return [](std::size_t n) {
    if (n < 6) return graph::make_complete(n);
    return graph::make_gs_digraph(n, 3);
  };
}

constexpr Round kRounds = 7;

/// Crash schedule derived from the case seed only — identical for every
/// window size. Crashes are "clean" (at a drained round boundary, zero
/// escaping sends), which makes the agreed history a pure function of the
/// workload: schedule-independent, hence comparable across window sizes
/// and interleavings.
std::map<Round, std::vector<NodeId>> crash_schedule(const PipelineCase& p,
                                                    std::uint64_t seed) {
  Rng rng(seed * 977 + 13);
  std::map<Round, std::vector<NodeId>> out;
  std::set<NodeId> victims;
  while (victims.size() < p.crashes) {
    const NodeId v = static_cast<NodeId>(rng.next_below(p.n));
    if (!victims.insert(v).second) continue;
    out[1 + rng.next_below(kRounds - 2)].push_back(v);
  }
  return out;
}

std::vector<std::uint8_t> payload_for(NodeId i, Round r) {
  return {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(r), 0x5a};
}

/// True iff the engine's own round-`r` message is out.
bool broadcast_done(const Engine& e, Round r) {
  if (e.current_round() > r) return true;  // delivered ⇒ broadcast
  const auto nb = e.next_broadcast_round();
  return nb.has_value() && *nb > r;
}

/// One full run: per-round payloads submitted *before* any broadcast (so
/// a line-15 auto-broadcast carries the intended batch), broadcasts kept
/// in lock with the driver's round counter, and a randomized bounded pump
/// between rounds — the delivery skew. Returns the delivered history of
/// every survivor.
std::map<NodeId, std::vector<RoundResult>> run_history(
    std::size_t window, const PipelineCase& p, std::uint64_t pump_seed) {
  EngineOptions options;
  options.fd_mode =
      p.dp_mode ? FdMode::kEventuallyPerfect : FdMode::kPerfect;
  options.window = window;
  LoopbackCluster c(p.n, overlay_for(p), options);
  Rng pump(pump_seed);
  const auto schedule = crash_schedule(p, p.seed);

  for (Round r = 0; r < kRounds; ++r) {
    const auto it = schedule.find(r);
    if (it != schedule.end()) {
      // Clean crash at a drained boundary: every earlier round's traffic
      // is down, the victim never broadcasts round r, and suspicion is
      // immediate — the decided sets become schedule-independent.
      c.pump();
      for (NodeId v : it->second) c.crash(v, 0);
      for (NodeId v : it->second) c.suspect_everywhere(v);
    }
    for (NodeId i = 0; i < p.n; ++i) {
      if (!c.is_crashed(i)) {
        c.engine(i).submit(Request::of_data(payload_for(i, r)));
      }
    }
    // Keep every live node's broadcasts in lock with the driver: pump
    // just enough for stragglers whose window is still full.
    for (std::size_t guard = 0;; ++guard) {
      bool all = true;
      for (NodeId i = 0; i < p.n; ++i) {
        if (c.is_crashed(i)) continue;
        if (!broadcast_done(c.engine(i), r)) {
          c.engine(i).broadcast_now();
          if (!broadcast_done(c.engine(i), r)) all = false;
        }
      }
      if (all) break;
      c.pump_random(pump, 1 + pump.next_below(64));
      if (guard > 100000) {
        ADD_FAILURE() << "round " << r << " never became broadcastable";
        return {};
      }
    }
    // Induced skew: only a random slice of the queue moves before the
    // next round's broadcasts pile on top.
    c.pump_random(pump, pump.next_below(400));
  }
  c.pump();

  std::map<NodeId, std::vector<RoundResult>> out;
  for (NodeId i = 0; i < p.n; ++i) {
    if (!c.is_crashed(i)) out[i] = c.delivered(i);
  }
  return out;
}

class PipelineEquivalence : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineEquivalence, WindowedAgreesWithClassic) {
  const PipelineCase& p = GetParam();
  const std::uint64_t seed = testing::test_seed_offset() + p.seed;
  SCOPED_TRACE("effective seed " + std::to_string(seed));

  // Different pump seeds on purpose: the agreed history must not depend
  // on the interleaving, only the window timing of the view switch may.
  const auto classic = run_history(1, p, seed * 3 + 1);
  const auto windowed = run_history(4, p, seed * 7 + 5);
  ASSERT_FALSE(classic.empty());
  ASSERT_EQ(classic.size(), windowed.size());

  for (const auto& [node, reference] : classic) {
    ASSERT_TRUE(windowed.count(node)) << "survivor sets differ";
    const auto& piped = windowed.at(node);
    ASSERT_GE(reference.size(), kRounds) << "server " << node;
    ASSERT_GE(piped.size(), kRounds) << "server " << node;
    for (Round r = 0; r < kRounds; ++r) {
      const auto& a = reference[r];
      const auto& b = piped[r];
      ASSERT_EQ(a.round, r);
      ASSERT_EQ(b.round, r);
      // Identical delivery sets, in identical (canonical) order, with
      // identical payloads — W only changes when the *view* switches,
      // never what round r agreed on.
      ASSERT_EQ(a.deliveries.size(), b.deliveries.size())
          << "server " << node << " round " << r;
      for (std::size_t k = 0; k < a.deliveries.size(); ++k) {
        EXPECT_EQ(a.deliveries[k].origin, b.deliveries[k].origin)
            << "server " << node << " round " << r << " slot " << k;
        const bool a_null = a.deliveries[k].payload == nullptr;
        const bool b_null = b.deliveries[k].payload == nullptr;
        ASSERT_EQ(a_null, b_null);
        if (!a_null) {
          EXPECT_EQ(*a.deliveries[k].payload, *b.deliveries[k].payload)
              << "server " << node << " round " << r << " slot " << k;
        }
      }
    }
    // Within-run agreement for the windowed cluster (all survivors saw
    // the very same history — the classic run is checked by the existing
    // agreement suite).
    const auto& first = windowed.begin()->second;
    for (Round r = 0; r < kRounds; ++r) {
      ASSERT_EQ(piped[r].deliveries.size(), first[r].deliveries.size());
      for (std::size_t k = 0; k < piped[r].deliveries.size(); ++k) {
        EXPECT_EQ(piped[r].deliveries[k].origin,
                  first[r].deliveries[k].origin);
      }
      EXPECT_EQ(piped[r].removed, first[r].removed)
          << "server " << node << " round " << r;
    }
  }
}

std::vector<PipelineCase> make_cases() {
  std::vector<PipelineCase> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    cases.push_back({seed, 11, seed % 3, /*binomial=*/false, /*dp=*/false});
  }
  for (std::uint64_t seed = 7; seed <= 10; ++seed) {
    cases.push_back({seed, 9, seed % 4, /*binomial=*/true, /*dp=*/false});
  }
  // ⋄P: accurate suspicions, majority survives — the gate must not
  // change the agreed history either.
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    cases.push_back({seed, 11, seed % 3, /*binomial=*/false, /*dp=*/true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineEquivalence,
                         ::testing::ValuesIn(make_cases()), case_name);

}  // namespace
}  // namespace allconcur::core

// ---------------------------------------------------------------------
// Replicated KV store over a pipelined cluster: the per-round
// cross-replica state-hash guard (asserted inside SimKvCluster on every
// apply) plus end-state convergence, under an induced slow node and a
// crash mid-run.
// ---------------------------------------------------------------------
namespace allconcur::smr {
namespace {

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

class PipelinedSmrProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PipelinedSmrProperty, HashGuardHoldsUnderWindowSkewAndCrash) {
  const std::uint64_t seed = testing::test_seed_offset() + GetParam();
  SCOPED_TRACE("effective seed " + std::to_string(seed));
  Rng rng(seed);

  SimKvOptions opt;
  opt.cluster.n = 8;
  opt.cluster.window = 4;
  opt.cluster.detection_delay = ms(1);
  // Induced per-node skew: one slow server, the convoy the window hides.
  // A drop-free gray phase adds exactly the slowdown and draws no
  // randomness, so the scenario seed is immaterial.
  const NodeId slow = static_cast<NodeId>(1 + rng.next_below(7));
  opt.cluster.chaos = std::make_shared<chaos::ScenarioEngine>(
      chaos::Scenario(seed).gray(0, kTimeNever, slow, us(300)));
  SimKvCluster c(opt);

  std::vector<KvSession> sessions;
  for (std::size_t i = 0; i < opt.cluster.n; ++i) {
    sessions.push_back(c.make_session());
  }

  const NodeId victim = static_cast<NodeId>(2 + rng.next_below(6));
  const std::size_t kPhases = 8;
  const std::size_t crash_phase = 2 + rng.next_below(kPhases - 4);

  Round round = 0;
  for (std::size_t phase = 0; phase < kPhases; ++phase) {
    if (phase == crash_phase) {
      c.cluster().crash_after_sends(victim, c.sim().now(),
                                    rng.next_below(4));
    }
    const std::size_t fresh = 2 + rng.next_below(4);
    for (std::size_t i = 0; i < fresh; ++i) {
      auto& session = sessions[rng.next_below(sessions.size())];
      const Bytes key = to_bytes("k" + std::to_string(rng.next_below(8)));
      const Bytes value =
          to_bytes("v" + std::to_string(rng.next_u64() & 0xffff));
      const auto live = c.cluster().live_nodes();
      c.cluster().submit(live[rng.next_below(live.size())],
                         core::Request::of_data(
                             session.issue(Command::put(key, value))));
    }
    c.cluster().broadcast_all_now();
    ASSERT_TRUE(c.cluster().run_until_round_done(
        round, c.sim().now() + allconcur::testing::scaled(sec(20))))
        << "phase " << phase << " stalled";
    for (NodeId id : c.cluster().live_nodes()) {
      round = std::max(round, c.replica(id).next_round());
    }
  }

  // The per-round guard already asserted every apply along the way; the
  // end state must agree too.
  EXPECT_TRUE(c.converged());
  std::set<std::uint64_t> hashes;
  Round max_round = 0;
  for (NodeId id : c.cluster().live_nodes()) {
    max_round = std::max(max_round, c.replica(id).next_round());
  }
  for (NodeId id : c.cluster().live_nodes()) {
    if (c.replica(id).next_round() == max_round) {
      hashes.insert(c.replica(id).state_hash());
    }
  }
  EXPECT_EQ(hashes.size(), 1u) << "replicas at the same round diverged";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinedSmrProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace allconcur::smr

// ---------------------------------------------------------------------
// Chaos sweeps: the windowed engine against committed fault schedules on
// the timed simulator. Reorder + duplication stress the out-of-order
// window bookkeeping (and the park-once dedup of ahead-of-window
// duplicates); the gray slowdown creates exactly the convoy skew the
// window exists to hide.
// ---------------------------------------------------------------------
namespace allconcur::api {
namespace {

using core::RoundResult;

void run_windowed_chaos(chaos::ScenarioEngineRef inject, Round until_round,
                        std::uint64_t min_delayed) {
  ClusterOptions opt;
  opt.n = 8;
  opt.window = 4;
  opt.chaos = inject;
  SimCluster c(opt);
  std::map<NodeId, std::vector<RoundResult>> results;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    results[who].push_back(r);
    c.broadcast_now(who);
  };
  c.broadcast_all_now();
  ASSERT_TRUE(c.run_until_round_done(until_round, sec(20)));

  EXPECT_GE(inject->stats().delayed, min_delayed);
  EXPECT_EQ(c.corrupt_dropped(), 0u);   // these scenarios corrupt nothing
  EXPECT_EQ(c.corrupt_delivered(), 0u);

  // In-order, identical delivery per round at every node.
  std::size_t prefix = SIZE_MAX;
  for (NodeId id : c.live_nodes()) {
    prefix = std::min(prefix, results[id].size());
  }
  ASSERT_GE(prefix, static_cast<std::size_t>(until_round) + 1);
  const auto& ref = results[0];
  for (NodeId id : c.live_nodes()) {
    const auto& rounds = results[id];
    for (std::size_t r = 0; r < prefix; ++r) {
      EXPECT_EQ(rounds[r].round, ref[r].round) << "node " << id;
      ASSERT_EQ(rounds[r].deliveries.size(), ref[r].deliveries.size())
          << "node " << id << " round " << r;
      for (std::size_t k = 0; k < rounds[r].deliveries.size(); ++k) {
        EXPECT_EQ(rounds[r].deliveries[k].origin, ref[r].deliveries[k].origin)
            << "node " << id << " round " << r << " slot " << k;
      }
    }
  }
}

class ChaosWindowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosWindowProperty, WindowedAgreementUnderReorderAndDuplication) {
  run_windowed_chaos(std::make_shared<chaos::ScenarioEngine>(
                         testing::reorder_dup_scenario(GetParam())),
                     /*until_round=*/6, /*min_delayed=*/1);
}

INSTANTIATE_TEST_SUITE_P(ChaosSeeds, ChaosWindowProperty,
                         ::testing::Values(0xA11C41u, 0xA11C42u));

TEST(ChaosWindowProperty, GraySlowdownConvoyStillAgrees) {
  // Node 5 is gray in the slow-only sense: every frame it sends is late
  // by 300 us (no loss, so classic-mode liveness holds). The window must
  // ride the convoy without reordering deliveries anywhere.
  run_windowed_chaos(std::make_shared<chaos::ScenarioEngine>(
                         testing::gray_scenario(0xA11C43u, 5, us(300), 0.0)),
                     /*until_round=*/6, /*min_delayed=*/10);
}

}  // namespace
}  // namespace allconcur::api
