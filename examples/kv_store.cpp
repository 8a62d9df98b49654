// Replicated KV store over AllConcur: the SMR layer end to end.
//
//   $ ./kv_store
//
// Demonstrates: puts/gets/CAS through the totally-ordered stream, a
// linearizable read barrier, exactly-once retry across a server crash,
// and a joining server mounting from a snapshot — with the
// cross-replica state-hash divergence guard asserted throughout.
#include <cstdio>
#include <string>

#include "api/allconcur.hpp"

using namespace allconcur;

namespace {

smr::Bytes b(const std::string& s) { return smr::to_bytes(s); }

std::string show(const std::optional<smr::KvResponse>& r) {
  if (!r) return "(timeout)";
  switch (r->status) {
    case smr::KvResponse::Status::kOk:
      return r->has_value ? std::string(smr::to_view(r->value)) : "ok";
    case smr::KvResponse::Status::kNotFound: return "(not found)";
    case smr::KvResponse::Status::kCasFailed: return "(cas failed)";
    case smr::KvResponse::Status::kBadCommand: return "(bad command)";
  }
  return "?";
}

}  // namespace

int main() {
  bool ok = true;
  const auto check = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what);
      ok = false;
    }
  };

  smr::SimKvOptions options;
  options.cluster.n = 5;
  options.cluster.detection_delay = ms(1);
  smr::SimKvCluster cluster(options);

  // Two clients, each with a session (the exactly-once identity).
  auto alice = cluster.make_session();
  auto bob = cluster.make_session();

  std::printf("== writes through the agreed stream ==\n");
  auto r = cluster.execute(0, alice, smr::Command::put(b("motd"), b("hello")));
  std::printf("alice: put motd=hello      -> %s\n", show(r).c_str());
  check(r && r->ok(), "alice's put applies");

  // Two clients race a create-if-absent CAS on the same key; atomic
  // broadcast arbitrates identically on every replica.
  cluster.submit(1, alice, smr::Command::cas_absent(b("owner"), b("alice")));
  cluster.submit(4, bob, smr::Command::cas_absent(b("owner"), b("bob")));
  cluster.cluster().broadcast_all_now();
  cluster.cluster().run_until_round_done(1, cluster.sim().now() + sec(2));
  const auto alice_cas = cluster.replica(1).response(alice.id(), 2);
  const auto bob_cas = cluster.replica(1).response(bob.id(), 1);
  check(alice_cas && bob_cas, "both CAS outcomes are known");
  if (alice_cas && bob_cas) {
    const bool alice_won = smr::decode_response(*alice_cas)->ok();
    const bool bob_won = smr::decode_response(*bob_cas)->ok();
    std::printf("cas race: alice %s, bob %s\n",
                alice_won ? "won" : "lost", bob_won ? "won" : "lost");
    check(alice_won != bob_won, "exactly one CAS winner");
  }

  std::printf("\n== linearizable read barrier ==\n");
  // Alice observed her write at node 0 in some round; a barrier on that
  // round makes a local read at any other node linearizable.
  const Round observed = cluster.replica(0).next_round() - 1;
  check(cluster.read_barrier(3, observed, sec(2)), "node 3 reaches barrier");
  const auto motd = cluster.kv(3).get_local(b("motd"));
  std::printf("node 3 reads motd locally  -> %s\n",
              motd ? std::string(smr::to_view(*motd)).c_str() : "(miss)");
  check(motd == b("hello"), "barriered local read sees the write");

  std::printf("\n== exactly-once retry across a crash ==\n");
  // Bob submits through node 2, which dies right after the broadcast
  // escapes: the command is agreed, but bob never hears back.
  cluster.submit(2, bob, smr::Command::put(b("balance"), b("100")));
  cluster.cluster().broadcast_all_now();
  cluster.cluster().crash_at(2, cluster.sim().now());
  cluster.cluster().run_until_round_done(2, cluster.sim().now() + sec(2));
  // Bob retries the identical envelope at node 4 — applied exactly once.
  const auto retried = cluster.retry(4, bob, sec(5));
  std::printf("bob retries at node 4      -> %s\n", show(retried).c_str());
  check(retried && retried->ok(), "retry succeeds");
  // The answer came from the session cache; drive the round carrying the
  // duplicate envelope so the replicas demonstrably suppress it.
  cluster.cluster().run_until_round_done(3, cluster.sim().now() + sec(2));
  const Round tip = cluster.replica(4).next_round() - 1;
  std::uint64_t duplicates = 0;
  for (NodeId id : cluster.cluster().live_nodes()) {
    cluster.read_barrier(id, tip, sec(5));
    duplicates += cluster.replica(id).duplicates_suppressed();
  }
  std::printf("duplicate applications suppressed across replicas: %llu\n",
              static_cast<unsigned long long>(duplicates));
  check(duplicates > 0, "the duplicate envelope was suppressed");
  check(cluster.kv(0).get_local(b("balance")) == b("100"),
        "the balance was written once");

  std::printf("\n== a joiner mounts from a snapshot ==\n");
  // A fresh server joins through node 0. When the round admitting it is
  // applied, the cluster snapshots the agreed state, and the joiner's
  // replica mounts from it at its first round — no round-0 history needed.
  const NodeId joiner = cluster.cluster().schedule_join(cluster.sim().now(), 0);
  for (int i = 0; i < 100 && !cluster.cluster().alive(joiner); ++i) {
    cluster.cluster().broadcast_all_now();
    cluster.cluster().run_for(ms(1));
  }
  check(cluster.cluster().alive(joiner), "the join commits");
  if (cluster.cluster().alive(joiner)) {
    // A read through the stream at the joiner sees bob's write.
    const auto balance =
        cluster.execute(joiner, alice, smr::Command::get(b("balance")));
    std::printf("joiner node %u reads balance -> %s\n", joiner,
                show(balance).c_str());
    check(balance && balance->value == b("100"), "the joiner has the state");
    cluster.cluster().run_for(ms(20));  // quiesce: all stop at one round
    const bool same =
        cluster.replica(joiner).next_round() ==
            cluster.replica(0).next_round() &&
        cluster.replica(joiner).snapshot() == cluster.replica(0).snapshot();
    std::printf("joiner at round %llu, state %s node 0's\n",
                static_cast<unsigned long long>(
                    cluster.replica(joiner).next_round()),
                same ? "matches" : "DIVERGES FROM");
    check(same, "the joiner's replica matches node 0 byte for byte");
  }

  // Divergence guard: every live replica agrees with the reference hash
  // (the cluster also asserts this after every single round).
  check(cluster.converged(), "all replicas converged");

  std::printf("\nreplicated KV store over atomic broadcast: %s\n",
              ok ? "all checks passed" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
