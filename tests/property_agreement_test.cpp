// Property suite: the four atomic-broadcast properties (§2.1/§2.2) under
// randomized crashes, partial dissemination, suspicion timing and
// adversarial message interleavings, swept across seeds, sizes and
// overlays.
//
//   Validity   — a non-faulty broadcaster delivers its own message.
//   Agreement  — all non-faulty servers deliver the same message set.
//   Integrity  — every message delivered at most once, only if broadcast.
//   Total order— deliveries appear in the same order everywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "api/sim_cluster.hpp"
#include "chaos_scenarios.hpp"
#include "graph/binomial_graph.hpp"
#include "graph/gs_digraph.hpp"
#include "graph/reliability.hpp"
#include "loopback_cluster.hpp"
#include "test_env.hpp"

namespace allconcur::core {
namespace {

using testing::LoopbackCluster;

struct PropertyCase {
  std::uint64_t seed;
  std::size_t n;
  std::size_t crashes;  // < k(G)
  bool binomial;        // else GS with the paper degree
  bool dp_mode;
};

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  const auto& p = info.param;
  return "seed" + std::to_string(p.seed) + "_n" + std::to_string(p.n) +
         "_f" + std::to_string(p.crashes) + (p.binomial ? "_binomial" : "_gs") +
         (p.dp_mode ? "_dp" : "_p");
}

GraphBuilder overlay_for(const PropertyCase& p) {
  if (p.binomial) {
    return [](std::size_t n) {
      return n < 3 ? graph::make_complete(n) : graph::make_binomial_graph(n);
    };
  }
  return [](std::size_t n) {
    if (n < 6) return graph::make_complete(n);
    return graph::make_gs_digraph(n, std::min(graph::paper_gs_degree(n), n / 2));
  };
}

class AgreementProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(AgreementProperty, HoldsUnderRandomFailures) {
  const PropertyCase& p = GetParam();
  // Fixed per-case schedule by default; ALLCONCUR_TEST_SEED shifts the
  // whole sweep for soak runs.
  const std::uint64_t seed = testing::test_seed_offset() + p.seed;
  SCOPED_TRACE("effective seed " + std::to_string(seed));
  Rng rng(seed);
  EngineOptions options;
  options.fd_mode = p.dp_mode ? FdMode::kEventuallyPerfect : FdMode::kPerfect;
  LoopbackCluster c(p.n, overlay_for(p), options);

  // Pick distinct victims and how much of their final broadcast escapes.
  std::set<NodeId> victims;
  while (victims.size() < p.crashes) {
    victims.insert(static_cast<NodeId>(rng.next_below(p.n)));
  }
  for (NodeId v : victims) {
    c.crash(v, rng.next_below(6));  // 0..5 sends escape
  }

  // Everyone (including the doomed) tries to broadcast a payload.
  for (NodeId i = 0; i < p.n; ++i) {
    c.engine(i).submit(Request::of_data({static_cast<std::uint8_t>(i), 0x5a}));
    c.engine(i).broadcast_now();
  }

  // Adversarial interleaving in phases, with suspicions injected at a
  // random point between phases.
  c.pump_random(rng, rng.next_below(200));
  for (NodeId v : victims) c.suspect_everywhere(v);
  c.pump_random(rng);

  // --- collect ---
  std::vector<NodeId> live;
  for (NodeId i = 0; i < p.n; ++i) {
    if (!c.is_crashed(i)) live.push_back(i);
  }
  ASSERT_FALSE(live.empty());

  // Termination of every live server.
  for (NodeId i : live) {
    ASSERT_TRUE(c.has_delivered(i)) << "server " << i << " did not terminate";
    ASSERT_EQ(c.delivered(i).size(), 1u);
  }

  const auto& reference = c.delivered(live[0])[0];
  for (NodeId i : live) {
    const auto& r = c.delivered(i)[0];

    // Total order + agreement: identical delivery vector everywhere.
    ASSERT_EQ(r.deliveries.size(), reference.deliveries.size())
        << "server " << i;
    for (std::size_t k = 0; k < r.deliveries.size(); ++k) {
      EXPECT_EQ(r.deliveries[k].origin, reference.deliveries[k].origin)
          << "server " << i << " slot " << k;
    }
    EXPECT_EQ(r.removed, reference.removed) << "server " << i;

    // Integrity: no duplicate origins, origins were actual members.
    std::set<NodeId> seen;
    for (const auto& d : r.deliveries) {
      EXPECT_TRUE(seen.insert(d.origin).second) << "duplicate " << d.origin;
      EXPECT_LT(d.origin, p.n);
    }

    // Validity: every live server's own message is in the set.
    for (NodeId j : live) {
      EXPECT_TRUE(seen.count(j))
          << "server " << i << " missed live server " << j << "'s message";
    }

    // In P mode no message may be dropped by the ⋄P safeguards.
    EXPECT_EQ(c.engine(i).stats().dropped_lost, 0u);
  }
}

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  // GS overlays, P mode: the main sweep.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    cases.push_back({seed, 8, seed % 3, /*binomial=*/false, /*dp=*/false});
  }
  for (std::uint64_t seed = 13; seed <= 20; ++seed) {
    cases.push_back({seed, 16, seed % 4, false, false});
  }
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    cases.push_back({seed, 32, seed % 4, false, false});
  }
  // Binomial overlays (higher connectivity: more crashes tolerated).
  for (std::uint64_t seed = 27; seed <= 32; ++seed) {
    cases.push_back({seed, 9, seed % 5, true, false});
  }
  for (std::uint64_t seed = 33; seed <= 36; ++seed) {
    cases.push_back({seed, 12, seed % 6, true, false});
  }
  // ⋄P mode (crash-free and light-crash: the gate must not break the
  // properties when suspicions are accurate).
  for (std::uint64_t seed = 37; seed <= 42; ++seed) {
    cases.push_back({seed, 8, seed % 2, false, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AgreementProperty,
                         ::testing::ValuesIn(make_cases()), case_name);

// ---------------------------------------------------------------------
// Multi-round property: agreement must hold round after round while
// membership shrinks under randomized crashes.
// ---------------------------------------------------------------------
class MultiRoundProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiRoundProperty, AgreementAcrossShrinkingViews) {
  // Shifted like every other sweep so ALLCONCUR_TEST_SEED soaks explore
  // fresh schedules here too.
  const std::uint64_t seed = testing::test_seed_offset() + GetParam();
  SCOPED_TRACE("effective seed " + std::to_string(seed));
  Rng rng(seed);
  const std::size_t n = 11;
  // make_gs_digraph's documented fallback covers m < 6 with K_m.
  LoopbackCluster c(n, [](std::size_t m) {
    return graph::make_gs_digraph(m, 3);
  });

  std::set<NodeId> crashed;
  for (int round = 0; round < 5; ++round) {
    // Maybe crash one more server (respecting f < k = 3 per round).
    if (round > 0 && rng.next_below(2) == 0 && crashed.size() < 4) {
      NodeId v;
      do {
        v = static_cast<NodeId>(rng.next_below(n));
      } while (crashed.count(v));
      crashed.insert(v);
      c.crash(v, rng.next_below(4));
    }
    for (NodeId i = 0; i < n; ++i) {
      if (!c.is_crashed(i)) c.engine(i).broadcast_now();
    }
    c.pump_random(rng, rng.next_below(500));
    for (NodeId v : crashed) c.suspect_everywhere(v);
    c.pump_random(rng);

    // All live servers completed this round identically.
    std::vector<NodeId> live;
    for (NodeId i = 0; i < n; ++i) {
      if (!c.is_crashed(i)) live.push_back(i);
    }
    const auto& ref_rounds = c.delivered(live[0]);
    ASSERT_EQ(ref_rounds.size(), static_cast<std::size_t>(round + 1));
    for (NodeId i : live) {
      const auto& rounds = c.delivered(i);
      ASSERT_EQ(rounds.size(), ref_rounds.size()) << "server " << i;
      const auto& r = rounds.back();
      ASSERT_EQ(r.deliveries.size(), ref_rounds.back().deliveries.size());
      for (std::size_t k = 0; k < r.deliveries.size(); ++k) {
        EXPECT_EQ(r.deliveries[k].origin,
                  ref_rounds.back().deliveries[k].origin);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiRoundProperty,
                         ::testing::Range<std::uint64_t>(100, 120));

// ---------------------------------------------------------------------
// Chaos sweeps on the timed simulator: committed scenario seeds (see
// chaos_scenarios.hpp) replay deterministic fault schedules on the
// cluster's send path. Agreement must survive them, and the corruption
// counters must stay silent (these scenarios inject none).
// ---------------------------------------------------------------------

/// Cross-node agreement on the common prefix of delivered rounds:
/// identical origin vectors everywhere, no duplicate origins.
void expect_prefix_agreement(
    std::map<NodeId, std::vector<RoundResult>>& results,
    const std::vector<NodeId>& nodes, std::size_t min_rounds) {
  std::size_t prefix = SIZE_MAX;
  for (NodeId id : nodes) prefix = std::min(prefix, results[id].size());
  ASSERT_GE(prefix, min_rounds);
  const auto& ref = results[nodes[0]];
  for (NodeId id : nodes) {
    const auto& rounds = results[id];
    for (std::size_t r = 0; r < prefix; ++r) {
      ASSERT_EQ(rounds[r].deliveries.size(), ref[r].deliveries.size())
          << "node " << id << " round " << r;
      std::set<NodeId> seen;
      for (std::size_t k = 0; k < rounds[r].deliveries.size(); ++k) {
        EXPECT_EQ(rounds[r].deliveries[k].origin, ref[r].deliveries[k].origin)
            << "node " << id << " round " << r << " slot " << k;
        EXPECT_TRUE(seen.insert(rounds[r].deliveries[k].origin).second);
      }
    }
  }
}

class ChaosReorderDupProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosReorderDupProperty, AgreementUnderReorderAndDuplication) {
  // Classic mode is safe here: the scenario delays and duplicates but
  // never loses, so no retransmission is needed. Duplicates exercise the
  // receivers' in-window dedup and the park-once path.
  auto inject = std::make_shared<chaos::ScenarioEngine>(
      testing::reorder_dup_scenario(GetParam()));
  api::ClusterOptions opt;
  opt.n = 8;
  opt.chaos = inject;
  api::SimCluster c(opt);
  std::map<NodeId, std::vector<RoundResult>> results;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    results[who].push_back(r);
    c.broadcast_now(who);
  };
  c.broadcast_all_now();
  ASSERT_TRUE(c.run_until_round_done(4, sec(10)));

  EXPECT_GT(inject->stats().duplicated, 0u);
  EXPECT_GT(inject->stats().delayed, 0u);
  EXPECT_EQ(inject->stats().corrupted, 0u);
  EXPECT_EQ(c.corrupt_dropped(), 0u);
  EXPECT_EQ(c.corrupt_delivered(), 0u);
  expect_prefix_agreement(results, c.live_nodes(), 5);
  for (NodeId id : c.live_nodes()) {
    EXPECT_TRUE(results[id][0].removed.empty()) << "node " << id;
    EXPECT_EQ(c.engine(id).stats().dropped_lost, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ChaosSeeds, ChaosReorderDupProperty,
                         ::testing::Values(0xA11C21u, 0xA11C22u));

class ChaosPartitionHealProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosPartitionHealProperty, MajorityAgreesAcrossPartitionAndHeal) {
  // A chaos-driven partition: {6, 7} are cut off from [20 ms, 500 ms).
  // The heartbeat ⋄P detector suspects them from the silence, the
  // majority evicts them and keeps delivering; the heal arrives after
  // eviction, so the view stays at 6.
  auto inject = std::make_shared<chaos::ScenarioEngine>(
      testing::partition_heal_scenario(GetParam(), {6, 7}, ms(20), ms(500)));
  api::ClusterOptions opt;
  opt.n = 8;
  opt.fd_mode = FdMode::kEventuallyPerfect;
  opt.heartbeat_fd = true;
  opt.fd_params.period = ms(10);
  opt.fd_params.timeout = ms(60);
  opt.chaos = inject;
  api::SimCluster c(opt);
  std::map<NodeId, std::vector<RoundResult>> results;
  c.on_deliver = [&](NodeId who, const RoundResult& r, TimeNs) {
    results[who].push_back(r);
    c.broadcast_now(who);
  };
  c.broadcast_all_now();
  c.run_for(sec(2));

  EXPECT_GT(inject->stats().dropped, 0u) << "the partition dropped nothing";
  const std::vector<NodeId> majority{0, 1, 2, 3, 4, 5};
  expect_prefix_agreement(results, majority, 3);
  for (NodeId id : majority) {
    ASSERT_FALSE(results[id].empty());
    EXPECT_EQ(results[id].back().view_size, 6u) << "node " << id;
  }
  EXPECT_EQ(c.corrupt_dropped(), 0u);
  EXPECT_EQ(c.corrupt_delivered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ChaosSeeds, ChaosPartitionHealProperty,
                         ::testing::Values(0xA11C31u, 0xA11C32u));

}  // namespace
}  // namespace allconcur::core
