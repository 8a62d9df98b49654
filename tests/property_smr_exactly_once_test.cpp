// Property suite: exactly-once command application under randomized
// duplication, retries, crash-failures and a snapshot/restore boundary.
//
// Clients submit every command 1–3 times, at random nodes (including
// crashed ones), in random later rounds — at-least-once submission. The
// property: every replica applies each distinct (session, seq) command
// exactly once, in the same order, and a replica restored from a
// mid-stream snapshot still suppresses duplicates that arrive after the
// boundary. Verified three ways: per-replica apply/duplicate counters
// reconciled against the agreed history, state hashes across replicas,
// and an independent model replay of the recorded stream.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/batch.hpp"
#include "smr/kv_cluster.hpp"
#include "test_env.hpp"

namespace allconcur::smr {
namespace {

using allconcur::testing::scaled;

struct ExactlyOnceCase {
  std::uint64_t seed;
  std::size_t n;
  bool crash;  // one node fail-stops mid-run (partial final broadcast)
};

std::string case_name(const ::testing::TestParamInfo<ExactlyOnceCase>& info) {
  const auto& p = info.param;
  return "seed" + std::to_string(p.seed) + "_n" + std::to_string(p.n) +
         (p.crash ? "_crash" : "_clean");
}

class ExactlyOnceProperty : public ::testing::TestWithParam<ExactlyOnceCase> {
};

TEST_P(ExactlyOnceProperty, EveryCommandAppliesOnceEverywhere) {
  const ExactlyOnceCase& p = GetParam();
  const std::uint64_t seed = testing::test_seed_offset() + p.seed;
  SCOPED_TRACE("effective seed " + std::to_string(seed));
  Rng rng(seed);

  SimKvOptions opt;
  opt.cluster.n = p.n;
  opt.cluster.detection_delay = ms(1);
  SimKvCluster c(opt);
  // The agreed history for the model replay: each round's first delivery
  // anywhere (agreement makes every delivery of a round identical).
  std::map<Round, core::RoundResult> agreed;
  c.on_deliver = [&agreed](NodeId, const core::RoundResult& r, TimeNs) {
    agreed.try_emplace(r.round, r);
  };

  // One session per initial node's client.
  std::vector<KvSession> sessions;
  for (std::size_t i = 0; i < p.n; ++i) sessions.push_back(c.make_session());

  const NodeId victim =
      p.crash ? static_cast<NodeId>(1 + rng.next_below(p.n - 1)) : kInvalidNode;
  const std::size_t kPhases = 6;
  const std::size_t crash_phase = 1 + rng.next_below(kPhases - 2);

  // Envelopes still owed a duplicate submission in a later phase.
  std::vector<std::vector<std::uint8_t>> pending_duplicates;
  std::vector<std::uint8_t> snapshot_bytes;
  Round snapshot_round = 0;

  Round round = 0;
  for (std::size_t phase = 0; phase < kPhases; ++phase) {
    if (p.crash && phase == crash_phase) {
      // Die with a random fraction of the current broadcast escaping.
      c.cluster().crash_after_sends(victim, c.sim().now(),
                                    rng.next_below(6));
    }
    // Fresh commands: random op over a small colliding key space. A
    // session keeps one contact node per phase (the session contract:
    // in-flight commands of one session go through one node, otherwise
    // delivery reorders them and high-water dedup drops the earlier).
    std::map<std::uint64_t, NodeId> contact;
    const std::size_t fresh = 2 + rng.next_below(4);
    for (std::size_t i = 0; i < fresh; ++i) {
      const std::size_t si = rng.next_below(sessions.size());
      auto& session = sessions[si];
      const Bytes key = to_bytes("k" + std::to_string(rng.next_below(8)));
      const Bytes value =
          to_bytes("v" + std::to_string(rng.next_u64() & 0xffff));
      Command cmd = Command::put(key, value);
      switch (rng.next_below(4)) {
        case 0: cmd = Command::del(key); break;
        case 1: cmd = Command::cas_absent(key, value); break;
        case 2: cmd = Command::get(key); break;
        default: break;
      }
      const auto envelope = session.issue(cmd);
      // At-least-once: one submission at the session's contact node
      // (which may crash mid-phase, losing the command entirely), plus
      // 0–2 duplicate submissions now or in later phases, anywhere.
      const auto live = c.cluster().live_nodes();
      if (contact.find(session.id()) == contact.end()) {
        contact[session.id()] = live[rng.next_below(live.size())];
      }
      c.cluster().submit(contact[session.id()],
                         core::Request::of_data(envelope));
      const std::size_t copies = rng.next_below(3);
      for (std::size_t d = 0; d < copies; ++d) {
        if (rng.next_below(2) == 0) {
          c.cluster().submit(static_cast<NodeId>(rng.next_below(p.n)),
                             core::Request::of_data(envelope));
        } else {
          pending_duplicates.push_back(envelope);
        }
      }
    }
    // Flush some deferred duplicates into this phase's round.
    const std::size_t flush =
        pending_duplicates.empty() ? 0
                                   : rng.next_below(pending_duplicates.size());
    for (std::size_t i = 0; i < flush; ++i) {
      const auto live = c.cluster().live_nodes();
      c.cluster().submit(live[rng.next_below(live.size())],
                         core::Request::of_data(pending_duplicates.back()));
      pending_duplicates.pop_back();
    }

    c.cluster().broadcast_all_now();
    ASSERT_TRUE(c.cluster().run_until_round_done(
        round, c.sim().now() + scaled(sec(20))))
        << "phase " << phase << " stalled";
    round = c.replica(0).next_round();

    if (phase == kPhases / 2) {
      // Snapshot boundary: duplicates of everything above may still
      // arrive below, and the restored replica must suppress them.
      snapshot_bytes = c.replica(0).snapshot();
      snapshot_round = c.replica(0).next_round();
    }
  }
  // Final flush: every deferred duplicate lands in one last round.
  for (const auto& envelope : pending_duplicates) {
    const auto live = c.cluster().live_nodes();
    c.cluster().submit(live[rng.next_below(live.size())],
                       core::Request::of_data(envelope));
  }
  c.cluster().broadcast_all_now();
  ASSERT_TRUE(c.cluster().run_until_round_done(
      round, c.sim().now() + scaled(sec(20))));

  // Let every live node apply the full agreed history.
  const Round last = c.replica(0).next_round() - 1;
  for (NodeId id : c.cluster().live_nodes()) {
    ASSERT_TRUE(c.read_barrier(id, last, scaled(sec(20)))) << "node " << id;
  }

  // Independent model replay of the agreed history: the session rule is
  // the Raft-style high-water mark — a (session, seq) applies iff seq is
  // above the session's last applied seq, so each command applies at
  // most once and retried duplicates are suppressed. Count landed
  // envelopes, applied commands, and build the expected map by hand.
  std::uint64_t landed = 0, model_applied = 0;
  std::set<std::pair<std::uint64_t, std::uint64_t>> applied_pairs;
  std::map<std::uint64_t, std::uint64_t> high_water;
  std::map<Bytes, Bytes> model;
  for (Round r = 0; r <= last; ++r) {
    const auto logged = agreed.find(r);
    ASSERT_NE(logged, agreed.end()) << "round " << r;
    for (const auto& d : logged->second.deliveries) {
      const auto batch = core::unpack_batch(d.payload);
      if (!batch) continue;
      for (const auto& req : *batch) {
        if (req.kind != core::Request::Kind::kData) continue;
        const auto env = decode_envelope(req.data);
        if (!env) continue;
        ++landed;
        auto& water = high_water[env->session];
        if (env->seq <= water) continue;  // duplicate (or reordered-late)
        water = env->seq;
        ++model_applied;
        // Exactly-once core property: no pair ever applies twice.
        ASSERT_TRUE(applied_pairs.emplace(env->session, env->seq).second)
            << "session " << env->session << " seq " << env->seq
            << " applied twice";
        const auto cmd = decode_command(env->command);
        ASSERT_TRUE(cmd.has_value());
        switch (cmd->op) {
          case Command::Op::kPut:
            model[cmd->key] = cmd->value;
            break;
          case Command::Op::kDelete:
            model.erase(cmd->key);
            break;
          case Command::Op::kCas: {
            const auto it = model.find(cmd->key);
            const bool match =
                cmd->expect_absent
                    ? it == model.end()
                    : it != model.end() && it->second == cmd->expected;
            if (match) model[cmd->key] = cmd->value;
            break;
          }
          case Command::Op::kGet:
            break;
        }
      }
    }
  }
  ASSERT_GT(model_applied, 0u);

  // Every replica matches the model: applied exactly the high-water
  // firsts, suppressed every other landed copy, identical state.
  for (NodeId id : c.cluster().live_nodes()) {
    EXPECT_EQ(c.replica(id).commands_applied(), model_applied)
        << "node " << id;
    EXPECT_EQ(c.replica(id).duplicates_suppressed(), landed - model_applied)
        << "node " << id;
    EXPECT_EQ(c.replica(id).state_hash(), c.replica(0).state_hash())
        << "node " << id;
  }
  EXPECT_TRUE(c.converged());
  EXPECT_EQ(c.kv(0).contents(), model);

  // The snapshot/restore boundary: resume mid-stream, replay the rest of
  // the log (duplicates included), land bit-identical to the live tip.
  ASSERT_FALSE(snapshot_bytes.empty());
  Replica restored(std::make_unique<KvStore>());
  ASSERT_TRUE(restored.restore(snapshot_bytes));
  ASSERT_EQ(restored.next_round(), snapshot_round);
  for (Round r = snapshot_round; r <= last; ++r) {
    restored.on_round(agreed.at(r));
  }
  EXPECT_EQ(restored.state_hash(), c.replica(0).state_hash());
  EXPECT_EQ(restored.commands_applied(), c.replica(0).commands_applied());
  EXPECT_EQ(restored.snapshot(), c.replica(0).snapshot());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactlyOnceProperty,
    ::testing::Values(ExactlyOnceCase{1, 5, false},
                      ExactlyOnceCase{2, 5, true},
                      ExactlyOnceCase{3, 8, false},
                      ExactlyOnceCase{4, 8, true},
                      ExactlyOnceCase{5, 8, true},
                      ExactlyOnceCase{6, 11, false},
                      ExactlyOnceCase{7, 11, true},
                      ExactlyOnceCase{8, 13, true}),
    case_name);

}  // namespace
}  // namespace allconcur::smr
