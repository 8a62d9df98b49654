// Umbrella header: the public API of the AllConcur library.
//
//   #include "api/allconcur.hpp"
//
//   allconcur::api::ClusterOptions opt;
//   opt.n = 8;
//   allconcur::api::SimCluster cluster(opt);
//   cluster.submit(0, allconcur::core::Request::of_data({...}));
//   cluster.on_deliver = [](NodeId who, const core::RoundResult& r,
//                           TimeNs when) { ... };
//   cluster.broadcast_all_now();
//   cluster.run_until_round_done(0, sec(1));
//
// Layers (each usable on its own):
//   graph/  — fault-tolerant overlay digraphs: GS(n,d), binomial, de
//             Bruijn; connectivity, fault diameter, reliability (§2, §4.4)
//   core/   — the AllConcur algorithm: engine, tracking digraphs, failure
//             detectors, LogP models (§3, §4)
//   sim/    — deterministic discrete-event fabric simulation (§5 testbed
//             substitute; see DESIGN.md)
//   api/    — SimCluster deployments
//   net/    — real TCP transport (epoll) for multi-process runs
//   plus/   — the AllConcur+ dual-digraph fast path: paired ⟨G_U, G_R⟩
//             overlays, the fallback watchdog (untracked failure-free
//             rounds with automatic fallback to tracked rounds)
//   smr/    — state-machine replication on the delivered stream: the
//             replicated KV store, client sessions (exactly-once),
//             snapshots, and the Sim/TCP mounts
#pragma once

#include "api/sim_cluster.hpp"
#include "core/batch.hpp"
#include "core/engine.hpp"
#include "core/failure_detector.hpp"
#include "core/logp_model.hpp"
#include "core/message.hpp"
#include "core/view.hpp"
#include "graph/binomial_graph.hpp"
#include "graph/connectivity.hpp"
#include "graph/digraph.hpp"
#include "graph/fault_diameter.hpp"
#include "graph/gs_digraph.hpp"
#include "graph/properties.hpp"
#include "graph/reliability.hpp"
#include "net/ports.hpp"
#include "net/tcp_transport.hpp"
#include "plus/plus.hpp"
#include "sim/network_model.hpp"
#include "sim/simulator.hpp"
#include "smr/smr.hpp"
