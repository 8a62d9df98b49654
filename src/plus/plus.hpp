// AllConcur+ — the dual-digraph fast path subsystem.
//
// AllConcur pays the full message-tracking cost (per-round tracking
// digraphs, ⟨FAIL⟩ propagation machinery) in every round even though
// failures are rare. The follow-up paper "A Dual Digraph Approach for
// Leaderless Atomic Broadcast" races an *unreliable* digraph G_U (no
// tracking, minimal vertex-connectivity, small diameter) against the
// *reliable* digraph G_R, falling back to tracked rounds only on
// suspicion — large failure-free speedups while preserving set agreement.
//
// This repo implements it as a mode of the round engine:
//   * plus/dual_overlay — paired ⟨G_U, G_R⟩ construction and analysis
//   * plus/fallback_timer — the round watchdog both deployments share
//   * core/engine — per-round fast/fallback mode, fast bitmap completion,
//     the ⟨UBCAST⟩/⟨FALLBACK⟩ wire protocol, the fallback transition and
//     its FIFO relay discipline, delivered-round retention for late
//     assists (EngineOptions::fast_builder enables it)
//   * node/NodeRuntime (NodeOptions::fast_builder / fallback_timeout,
//     shared by api/SimCluster and net/TcpNode) runs the watchdog; both
//     deployments route both overlays' links and monitor their union
//
// Enable on a simulated deployment:
//
//   api::ClusterOptions opt;
//   opt.n = 32;
//   opt.fast_builder = plus::make_unreliable_builder();
//   opt.fallback_timeout = ms(50);
//   api::SimCluster cluster(opt);   // failure-free rounds now run G_U
//
// and equivalently on TcpNode via TcpNodeOptions. bench/dual_digraph
// measures the fast-vs-reliable gap and the fallback cost;
// tests/property_dual_test proves delivered-set equivalence across fast,
// fallback, and mixed histories.
#pragma once

#include "plus/dual_overlay.hpp"   // IWYU pragma: export
#include "plus/fallback_timer.hpp" // IWYU pragma: export
