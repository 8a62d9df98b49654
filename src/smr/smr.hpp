// Umbrella header for the SMR layer: state-machine replication over
// AllConcur's totally-ordered delivery stream.
//
//   api::ClusterOptions opt;
//   opt.n = 5;
//   smr::SimKvCluster cluster(opt);
//   auto session = cluster.make_session();
//   cluster.execute(0, session, smr::Command::put(smr::to_bytes("k"),
//                                                 smr::to_bytes("v")));
//   cluster.kv(2).get_local(smr::to_bytes("k"));  // after a read barrier
//
// Pieces (each usable on its own):
//   state_machine — the deterministic apply/snapshot/restore interface
//   command       — session envelopes + the KV command/response formats
//   kv_store      — the replicated KV StateMachine (divergence-hashed)
//   session       — client sessions and the replicated dedup table
//   replica       — applies delivered rounds exactly once, snapshots
//   kv_cluster    — mount on the simulated deployment (SimCluster)
//   tcp_kv        — mount on the real TCP deployment (TcpNode)
#pragma once

#include "smr/command.hpp"
#include "smr/kv_cluster.hpp"
#include "smr/kv_store.hpp"
#include "smr/replica.hpp"
#include "smr/session.hpp"
#include "smr/state_machine.hpp"
#include "smr/tcp_kv.hpp"
