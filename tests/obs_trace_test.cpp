// Causal tracer: spans in the flight recorder, the hop estimate, the wire
// trace context, the cross-node merge, and the acceptance assertion — on
// the sim fabric at f=0 the measured depth D-hat equals the analytic
// diameter of G_R (and stays within 2·log2(n) hops on the de Bruijn fast
// path).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "api/sim_cluster.hpp"
#include "core/message.hpp"
#include "graph/properties.hpp"
#include "plus/dual_overlay.hpp"

namespace allconcur::obs {
namespace {

// ---------------------------------------------------------------------------
// Spans in the flight recorder (ring discipline: obs_recorder_test)
// ---------------------------------------------------------------------------

TEST(FlightRecorderSpans, RecordsFieldsFaithfully) {
  FlightRecorder rec(8);
  TimeNs clock = 42;
  rec.set_time_source(&clock);
  rec.record_span(SpanKind::kRecv, 7, 2, 5, 4, 12345);
  const auto spans = rec.spans(/*self=*/3);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].t, 42);
  EXPECT_EQ(spans[0].round, 7u);
  EXPECT_EQ(spans[0].kind, SpanKind::kRecv);
  EXPECT_EQ(spans[0].node, 3u);
  EXPECT_EQ(spans[0].origin, 2u);
  EXPECT_EQ(spans[0].peer, 5u);
  EXPECT_EQ(spans[0].hop, 4u);
  EXPECT_EQ(spans[0].est_ns, 12345u);
}

TEST(HopEstimate, TracksHistogramMean) {
  EXPECT_EQ(hop_estimate_ns(nullptr), 0u);  // no histogram donated
  Histogram h;
  EXPECT_EQ(hop_estimate_ns(&h), 0u);  // empty histogram
  h.record(1000);
  h.record(3000);
  EXPECT_EQ(hop_estimate_ns(&h), 2000u);
}

// ---------------------------------------------------------------------------
// Wire trace context (core/message.hpp header byte 1 + detector reuse)
// ---------------------------------------------------------------------------

TEST(TraceContext, OriginAndRelayHopArithmetic) {
  const std::uint8_t origin = core::Message::trace_origin_context();
  EXPECT_TRUE((origin & core::Message::kTraceSampled) != 0);
  EXPECT_EQ(origin & core::Message::kTraceHopMask, 0);
  std::uint8_t t = origin;
  for (int i = 1; i <= 130; ++i) {
    t = core::Message::trace_relay_context(t);
    EXPECT_TRUE((t & core::Message::kTraceSampled) != 0);
    EXPECT_EQ(t & core::Message::kTraceHopMask,
              std::min(i, 127));  // hop saturates, never wraps into bit 7
  }
  // An unsampled context stays unsampled through a relay.
  EXPECT_EQ(core::Message::trace_relay_context(0) &
                core::Message::kTraceSampled, 0);
}

TEST(TraceContext, SurvivesWireRoundTrip) {
  core::Message m = core::Message::bcast(5, 2, nullptr);
  m.trace = core::Message::trace_relay_context(
      core::Message::trace_origin_context());
  m.detector = 987654;  // cumulative estimate rides the detector word
  const auto bytes = core::encode(m);
  const auto back = core::decode(std::span<const std::uint8_t>(bytes));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->trace_sampled());
  EXPECT_EQ(back->trace_hop(), 1u);
  EXPECT_EQ(back->detector, 987654u);
}

TEST(TraceContext, UnsampledFrameWireImageUnchanged) {
  // trace = 0 must encode exactly as before the trace byte existed: byte 1
  // zero, so old and new binaries interoperate on unsampled traffic.
  const core::Message m = core::Message::bcast(5, 2, nullptr);
  const auto bytes = core::encode(m);
  EXPECT_EQ(bytes[1], 0u);
}

// ---------------------------------------------------------------------------
// Dump / parse round-trip and the merge
// ---------------------------------------------------------------------------

TEST(TraceMergeTest, DumpParseRoundTrip) {
  FlightRecorder rec(16);
  TimeNs clock = 1000;
  rec.set_time_source(&clock);
  rec.record_span(SpanKind::kOrigin, 2, 4, 4, 0, 0);
  rec.record(EventKind::kBcastSent, 2);  // events stay out of the span dump
  clock = 2000;
  rec.record_span(SpanKind::kSend, 2, 4, 1, 0, 777);
  TraceMerge merge;
  EXPECT_EQ(merge.add_dump(rec.dump_spans_json("node4", 4)), 2u);
  ASSERT_EQ(merge.spans().size(), 2u);
  const auto& s = merge.spans()[1];
  EXPECT_EQ(s.node, 4u);
  EXPECT_EQ(s.t, 2000);
  EXPECT_EQ(s.kind, SpanKind::kSend);
  EXPECT_EQ(s.peer, 1u);
  EXPECT_EQ(s.est_ns, 777u);
}

TEST(TraceMergeTest, GarbageLinesAreSkipped) {
  TraceMerge merge;
  EXPECT_EQ(merge.add_dump("not json\n{\"truncated\": 1\n\n"), 0u);
  EXPECT_TRUE(merge.spans().empty());
}

// ---------------------------------------------------------------------------
// Acceptance: D-hat on the sim fabric equals the analytic depth (f=0)
// ---------------------------------------------------------------------------

api::SimCluster traced_cluster(std::size_t n, bool dual) {
  api::ClusterOptions opt;
  opt.n = n;
  opt.trace_sample_period = 1;
  opt.recorder_capacity = 1 << 14;
  if (dual) opt.fast_builder = plus::make_unreliable_builder();
  return api::SimCluster(std::move(opt));
}

TEST(TraceDepth, MatchesGraphDiameterOnGr) {
  for (const std::size_t n : {8u, 16u, 32u}) {
    api::SimCluster c = traced_cluster(n, false);
    c.broadcast_all_now();
    ASSERT_TRUE(c.run_until_round_done(0, sec(5))) << "n=" << n;
    const graph::Digraph g = c.options().builder(n);
    const auto diam = graph::diameter(g);
    ASSERT_TRUE(diam.has_value());
    const TraceMerge merged = c.merged_trace();
    const auto broadcasts = merged.broadcasts();
    // Every origin's broadcast is traced and reaches all n-1 others.
    std::size_t round0 = 0;
    for (const auto& b : broadcasts) {
      if (b.round != 0) continue;
      ++round0;
      EXPECT_EQ(b.reached, n - 1) << "n=" << n << " origin=" << b.origin;
      EXPECT_FALSE(b.fell_back);
      EXPECT_GE(b.depth, 1u);
      EXPECT_LE(b.depth, *diam);
      // The critical path walks back to the origin, one hop per step.
      ASSERT_FALSE(b.critical_path.empty());
      EXPECT_EQ(b.critical_path.front().node, b.origin);
      EXPECT_EQ(b.critical_path.back().dist, b.depth);
      EXPECT_EQ(b.critical_path.size(), b.depth + 1);
    }
    EXPECT_EQ(round0, n);
    // Uniform per-hop costs: first receipts follow BFS shortest paths, so
    // the max depth over all n origins is exactly the diameter.
    EXPECT_EQ(merged.empirical_depth(), *diam) << "n=" << n;
  }
}

TEST(TraceDepth, DeBruijnFastPathStaysWithinTwoLogN) {
  for (const std::size_t n : {8u, 16u, 32u}) {
    api::SimCluster c = traced_cluster(n, true);
    c.broadcast_all_now();
    ASSERT_TRUE(c.run_until_round_done(0, sec(5))) << "n=" << n;
    const TraceMerge merged = c.merged_trace();
    const auto bound = static_cast<std::size_t>(
        2.0 * std::log2(static_cast<double>(n)));
    EXPECT_GE(merged.empirical_depth(), 1u);
    EXPECT_LE(merged.empirical_depth(), bound) << "n=" << n;
    for (const auto& b : merged.broadcasts()) {
      if (b.round != 0) continue;
      EXPECT_EQ(b.reached, n - 1) << "origin=" << b.origin;
      EXPECT_FALSE(b.fell_back);
    }
  }
}

TEST(TraceDepth, BreakdownAttributesSimLatencies) {
  api::SimCluster c = traced_cluster(8, false);
  c.broadcast_all_now();
  ASSERT_TRUE(c.run_until_round_done(0, sec(5)));
  const TraceMerge merged = c.merged_trace();
  const TraceBreakdown bd = merged.breakdown();
  ASSERT_GT(bd.hops, 0u);
  // The fabric's wire latency is 12us (tcp_ib): the mean matched wire
  // edge must cost at least L.
  EXPECT_GE(bd.wire_ns / static_cast<double>(bd.hops), 12'000.0);
  EXPECT_GE(bd.process_ns, 0.0);
  EXPECT_GE(bd.queue_ns, 0.0);
  EXPECT_GE(bd.serialize_ns, 0.0);
}

TEST(TraceDepth, CumulativeEstimateGrowsAlongThePath) {
  api::SimCluster c = traced_cluster(16, false);
  // Seed the relay-hop histogram with one warm round, then trace another:
  // the estimate stamped into round-1 frames uses round-0's measured mean.
  c.broadcast_all_now();
  ASSERT_TRUE(c.run_until_round_done(0, sec(5)));
  c.broadcast_all_now();
  ASSERT_TRUE(c.run_until_round_done(1, sec(5)));
  const TraceMerge merged = c.merged_trace();
  bool saw_estimate = false;
  for (const auto& b : merged.broadcasts()) {
    if (b.round == 1 && b.depth >= 2 && b.max_est_ns > 0) saw_estimate = true;
  }
  EXPECT_TRUE(saw_estimate);
}

TEST(TraceDepth, FallbackAnnotatesTheRoundDag) {
  api::SimCluster c = traced_cluster(8, true);
  c.broadcast_all_now();
  c.run_for(us(5));
  c.force_fallback(0);
  ASSERT_TRUE(c.run_until_round_done(0, sec(5)));
  const TraceMerge merged = c.merged_trace();
  bool fell_back = false;
  for (const auto& b : merged.broadcasts()) {
    if (b.round == 0 && b.fell_back) fell_back = true;
  }
  EXPECT_TRUE(fell_back);
  // The handoff is an explicit DAG edge: at least the initiator recorded a
  // kFallback span for the round.
  bool has_span = false;
  for (const auto& s : merged.spans()) {
    if (s.kind == SpanKind::kFallback && s.round == 0) has_span = true;
  }
  EXPECT_TRUE(has_span);
}

TEST(TraceDepth, SamplingPeriodSkipsRounds) {
  api::ClusterOptions opt;
  opt.n = 8;
  opt.trace_sample_period = 2;  // rounds 0, 2, 4, ... sampled
  api::SimCluster c(std::move(opt));
  for (Round r = 0; r < 4; ++r) {
    c.broadcast_all_now();
    ASSERT_TRUE(c.run_until_round_done(r, sec(5)));
  }
  std::set<Round> traced;
  for (const auto& b : c.merged_trace().broadcasts()) traced.insert(b.round);
  EXPECT_TRUE(traced.count(0));
  EXPECT_TRUE(traced.count(2));
  EXPECT_FALSE(traced.count(1));
  EXPECT_FALSE(traced.count(3));
}

TEST(TraceDepth, ChromeTraceJsonIsWellFormedEnough) {
  api::SimCluster c = traced_cluster(8, false);
  c.broadcast_all_now();
  ASSERT_TRUE(c.run_until_round_done(0, sec(5)));
  const std::string json = c.merged_trace().chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace allconcur::obs
