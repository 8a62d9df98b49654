// obs_recorder_test: the round flight recorder — ring semantics
// (power-of-two rounding, wraparound, monotone seq), events and causal-
// trace spans sharing the one ring, per-round timelines on a live
// simulated cluster, and the auto-dump-on-trip path exercised end to end
// by forcing an SMR hash-guard divergence.
#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/sim_cluster.hpp"
#include "obs/trace.hpp"
#include "smr/command.hpp"
#include "smr/kv_cluster.hpp"

namespace allconcur::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Ring semantics
// ---------------------------------------------------------------------------

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(100).capacity(), 128u);
  EXPECT_EQ(FlightRecorder(128).capacity(), 128u);
  EXPECT_EQ(FlightRecorder(129).capacity(), 256u);
  EXPECT_EQ(FlightRecorder(1).capacity(), 2u);
}

TEST(FlightRecorder, WraparoundKeepsTheMostRecentEvents) {
  FlightRecorder rec(100);  // rounds to 128
  for (std::uint64_t i = 0; i < 300; ++i) {
    rec.record(EventKind::kMsgRecv, i % 7, /*a=*/i, /*b=*/2 * i);
  }
  EXPECT_EQ(rec.total_recorded(), 300u);
  EXPECT_EQ(rec.size(), 128u);
  EXPECT_EQ(rec.dropped(), 300u - 128u);

  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 128u);
  // Oldest first, seq strictly increasing, and the retained window is
  // exactly the last 128 records (a mirrors the record index).
  EXPECT_EQ(evs.front().seq, 300u - 128u);
  EXPECT_EQ(evs.back().seq, 299u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].seq, evs.front().seq + i);
    EXPECT_EQ(evs[i].a, evs[i].seq);
    EXPECT_EQ(evs[i].b, 2 * evs[i].seq);
  }
}

TEST(FlightRecorder, ExactCapacityBoundaryDropsNothing) {
  FlightRecorder rec(64);
  for (std::uint64_t i = 0; i < 64; ++i) {
    rec.record(EventKind::kMsgRecv, 0, i);
  }
  EXPECT_EQ(rec.size(), 64u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.events().front().seq, 0u);
  // One past capacity evicts exactly the oldest record.
  rec.record(EventKind::kMsgRecv, 0, 64);
  EXPECT_EQ(rec.size(), 64u);
  EXPECT_EQ(rec.dropped(), 1u);
  EXPECT_EQ(rec.events().front().seq, 1u);
  EXPECT_EQ(rec.events().back().a, 64u);
}

TEST(FlightRecorder, ClearAfterWrapRestartsSequencing) {
  FlightRecorder rec(4);
  for (std::uint64_t i = 0; i < 11; ++i) {
    rec.record(EventKind::kMsgRecv, i, i);
  }
  ASSERT_GT(rec.dropped(), 0u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
  rec.record(EventKind::kRoundOpen, 99);
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].seq, 0u);  // seq restarts, no ghost of the wrapped ring
  EXPECT_EQ(evs[0].round, 99u);
}

TEST(FlightRecorder, EventsForRoundSurvivesWraparound) {
  FlightRecorder rec(8);
  // 24 records across rounds 0..2; only the last 8 (seq 16..23) survive.
  for (std::uint64_t i = 0; i < 24; ++i) {
    rec.record(EventKind::kMsgRecv, i % 3, i);
  }
  const auto r0 = rec.events_for_round(0);
  ASSERT_FALSE(r0.empty());
  for (const Event& e : r0) {
    EXPECT_EQ(e.round, 0u);
    EXPECT_GE(e.seq, 16u);  // nothing from the evicted prefix leaks back
    EXPECT_EQ(e.a % 3, 0u);
  }
  // 8 retained records spread evenly over 3 rounds: |round 0| is 3 or 2.
  EXPECT_GE(r0.size(), 2u);
  EXPECT_LE(r0.size(), 3u);
}

TEST(FlightRecorder, EventsForRoundFiltersAndPreservesOrder) {
  FlightRecorder rec(64);
  for (std::uint64_t i = 0; i < 30; ++i) {
    rec.record(i % 2 == 0 ? EventKind::kMsgRecv : EventKind::kParked, i % 3,
               i);
  }
  const auto r1 = rec.events_for_round(1);
  ASSERT_FALSE(r1.empty());
  std::uint64_t prev_seq = 0;
  bool first = true;
  for (const Event& e : r1) {
    EXPECT_EQ(e.round, 1u);
    if (!first) EXPECT_GT(e.seq, prev_seq);
    prev_seq = e.seq;
    first = false;
  }
  EXPECT_EQ(r1.size(), 10u);
  EXPECT_TRUE(rec.events_for_round(99).empty());
}

TEST(FlightRecorder, TimeSourceIsReadPerRecord) {
  FlightRecorder rec(16);
  TimeNs clock = 42;
  rec.set_time_source(&clock);
  rec.record(EventKind::kRoundOpen, 0);
  clock = 99;
  rec.record(EventKind::kDelivered, 0);
  rec.set_time_source(nullptr);
  rec.record(EventKind::kComplete, 0);

  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].t, 42);
  EXPECT_EQ(evs[1].t, 99);
  EXPECT_EQ(evs[2].t, 0);
}

TEST(FlightRecorder, DisabledRecordsNothingAndClearResets) {
  FlightRecorder rec(16, /*enabled=*/false);
  EXPECT_FALSE(rec.enabled());
  rec.record(EventKind::kRoundOpen, 0);
  rec.record_span(SpanKind::kOrigin, 0, 0, 0, 0, 0);
  EXPECT_EQ(rec.total_recorded(), 0u);

  rec.set_enabled(true);
  rec.record(EventKind::kRoundOpen, 0);
  rec.record(EventKind::kDelivered, 0);
  EXPECT_EQ(rec.size(), 2u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.events().empty());
}

TEST(FlightRecorder, DumpsCarryLabelAndEventNames) {
  FlightRecorder rec(16);
  rec.record(EventKind::kBcastSent, 7, 128, 1);
  rec.record(EventKind::kDroppedMsg, 7,
             static_cast<std::uint64_t>(DropReason::kStale), 3);

  const std::string text = rec.dump_text("node3");
  EXPECT_NE(text.find("[node3] seq=0"), std::string::npos) << text;
  EXPECT_NE(text.find("r=7 bcast_sent a=128 b=1"), std::string::npos) << text;
  EXPECT_NE(text.find("dropped_msg"), std::string::npos);

  const std::string json = rec.dump_json("node3");
  EXPECT_NE(json.find("{\"node\": \"node3\", \"seq\": 0"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"event\": \"bcast_sent\""), std::string::npos);
  // One object per line (JSONL).
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 2);
}

TEST(FlightRecorder, EventsAndSpansShareOneRing) {
  // E = event, S = span, interleaved in one 8-slot ring; record i carries
  // i in its a-field (event) or est_ns (span).
  const std::string order = "SEESESSESE";
  FlightRecorder rec(8);
  const auto put = [&rec](char kind, std::uint64_t i) {
    if (kind == 'E') {
      rec.record(EventKind::kMsgRecv, i, i);
    } else {
      rec.record_span(SpanKind::kSend, i, 0, 1, 0,
                      static_cast<std::uint32_t>(i));
    }
  };
  for (std::uint64_t i = 0; i < order.size(); ++i) put(order[i], i);
  // The two oldest slots — one span, one event — were overwritten.
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.dropped(), 2u);

  const auto check = [&rec, &order](std::uint64_t first_seq) {
    std::vector<std::uint64_t> seqs;
    std::optional<std::uint64_t> prev;
    for (const Event& e : rec.events()) {
      EXPECT_EQ(order[e.seq], 'E') << "seq " << e.seq;
      EXPECT_EQ(e.kind, EventKind::kMsgRecv);
      EXPECT_EQ(e.a, e.seq);
      if (prev) EXPECT_GT(e.seq, *prev);
      prev = e.seq;
      seqs.push_back(e.seq);
    }
    prev.reset();
    for (const Span& sp : rec.spans(/*self=*/5)) {
      EXPECT_EQ(order[sp.seq], 'S') << "seq " << sp.seq;
      EXPECT_EQ(sp.kind, SpanKind::kSend);
      EXPECT_EQ(sp.node, 5u);
      EXPECT_EQ(sp.est_ns, sp.seq);
      if (prev) EXPECT_GT(sp.seq, *prev);
      prev = sp.seq;
      seqs.push_back(sp.seq);
    }
    // Together the two kinds are exactly the retained window: one seq per
    // slot, none shared, none missing.
    std::sort(seqs.begin(), seqs.end());
    ASSERT_EQ(seqs.size(), rec.size());
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      EXPECT_EQ(seqs[i], first_seq + i);
    }
  };
  check(/*first_seq=*/2);

  // One more span evicts the oldest retained slot, an event this time.
  rec.record_span(SpanKind::kSend, 10, 0, 1, 0, 10);
  EXPECT_EQ(rec.dropped(), 3u);
  EXPECT_EQ(rec.events().front().seq, 4u);
  EXPECT_EQ(rec.spans(5).back().seq, 10u);
}

// ---------------------------------------------------------------------------
// Live cluster timelines
// ---------------------------------------------------------------------------

TEST(FlightRecorderSim, RoundLifecycleEventsAppearInCausalOrder) {
  api::ClusterOptions opt;
  opt.n = 4;
  api::SimCluster c(opt);
  c.submit_opaque(0, 64);
  c.broadcast_now(0);
  ASSERT_TRUE(c.run_until_round_done(0, sec(5)));

  const FlightRecorder* rec = c.recorder(0);
  ASSERT_NE(rec, nullptr);
  const auto timeline = rec->events_for_round(0);
  ASSERT_FALSE(timeline.empty());

  // The broadcaster's round-0 timeline must open the round, send its own
  // BCAST, gather the peers, and deliver — in that order (seq carries
  // causality; the virtual-clock stamps are nondecreasing with it).
  std::optional<std::uint64_t> open, sent, recv, delivered;
  TimeNs prev_t = 0;
  std::uint64_t prev_seq = 0;
  bool first = true;
  for (const Event& e : timeline) {
    if (!first) {
      EXPECT_GT(e.seq, prev_seq);
      EXPECT_GE(e.t, prev_t);
    }
    prev_seq = e.seq;
    prev_t = e.t;
    first = false;
    switch (e.kind) {
      case EventKind::kRoundOpen:
        if (!open) open = e.seq;
        break;
      case EventKind::kBcastSent:
        if (!sent) sent = e.seq;
        break;
      case EventKind::kMsgRecv:
        recv = e.seq;  // keep the last receive
        break;
      case EventKind::kDelivered:
        if (!delivered) delivered = e.seq;
        break;
      default:
        break;
    }
  }
  ASSERT_TRUE(open.has_value());
  ASSERT_TRUE(sent.has_value());
  ASSERT_TRUE(recv.has_value());
  ASSERT_TRUE(delivered.has_value());
  EXPECT_LT(*open, *sent);
  EXPECT_LT(*sent, *delivered);
  EXPECT_LT(*recv, *delivered);

  // Every node kept its own timeline; a non-broadcaster still received
  // node 0's message and delivered the round.
  for (NodeId id = 1; id < 4; ++id) {
    const FlightRecorder* peer = c.recorder(id);
    ASSERT_NE(peer, nullptr) << "node " << id;
    bool saw_recv = false, saw_deliver = false;
    for (const Event& e : peer->events_for_round(0)) {
      saw_recv |= e.kind == EventKind::kMsgRecv;
      saw_deliver |= e.kind == EventKind::kDelivered;
    }
    EXPECT_TRUE(saw_recv) << "node " << id;
    EXPECT_TRUE(saw_deliver) << "node " << id;
  }

  // The cluster-level metrics plane saw the round too.
  EXPECT_GE(c.round_latency().count(), 1u);
  const std::string json = c.metrics_json();
  EXPECT_NE(json.find("engine_rounds_completed"), std::string::npos);
  EXPECT_NE(json.find("sim_round_latency_ns"), std::string::npos);
}

TEST(FlightRecorderSim, RecorderCanBeDisabledPerCluster) {
  api::ClusterOptions opt;
  opt.n = 4;
  opt.flight_recorder = false;
  api::SimCluster c(opt);
  c.submit_opaque(0, 64);
  c.broadcast_now(0);
  ASSERT_TRUE(c.run_until_round_done(0, sec(5)));
  EXPECT_EQ(c.recorder(0), nullptr);
  EXPECT_TRUE(c.recorders().empty() ||
              c.recorders().front().second == nullptr);
}

// ---------------------------------------------------------------------------
// Dump on trip
// ---------------------------------------------------------------------------

class FlightDirGuard {
 public:
  FlightDirGuard() {
    char tmpl[] = "/tmp/allconcur_flight_XXXXXX";
    if (char* d = ::mkdtemp(tmpl)) dir_ = d;
    EXPECT_NE(dir_, "") << "mkdtemp failed";
    ::setenv("ALLCONCUR_FLIGHT_DIR", dir_.c_str(), 1);
  }
  ~FlightDirGuard() { ::unsetenv("ALLCONCUR_FLIGHT_DIR"); }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

TEST(FlightDump, DumpOnTripWritesOneFilePerRecorder) {
  FlightDirGuard guard;
  FlightRecorder a(16), b(16);
  a.record(EventKind::kDelivered, 5, 1, 1);
  b.record(EventKind::kInvariantTrip, 5,
           static_cast<std::uint64_t>(TripCode::kPropertyViolation));

  const auto written = dump_on_trip("unit_trip", {{0, &a}, {1, &b}});
  ASSERT_EQ(written.size(), 2u);
  EXPECT_EQ(written[0], guard.dir() + "/flight_unit_trip_node0.jsonl");
  EXPECT_NE(slurp(written[0]).find("\"event\": \"delivered\""),
            std::string::npos);
  EXPECT_NE(slurp(written[1]).find("\"event\": \"invariant_trip\""),
            std::string::npos);
}

TEST(FlightDump, RingWithSpansAlsoYieldsATraceFile) {
  FlightDirGuard guard;
  FlightRecorder traced(16), plain(16);
  traced.record(EventKind::kRoundOpen, 3);
  traced.record_span(SpanKind::kOrigin, 3, 0, 0, 0, 0);
  traced.record_span(SpanKind::kSend, 3, 0, 1, 0, 500);
  plain.record(EventKind::kDelivered, 3);

  const auto written = dump_on_trip("unit_trip", {{0, &traced}, {1, &plain}});
  // The traced ring yields both files; the span-free ring only its
  // flight file.
  ASSERT_EQ(written.size(), 3u);
  EXPECT_EQ(written[0], guard.dir() + "/flight_unit_trip_node0.jsonl");
  EXPECT_EQ(written[1], guard.dir() + "/trace_unit_trip_node0.jsonl");
  EXPECT_EQ(written[2], guard.dir() + "/flight_unit_trip_node1.jsonl");

  // The flight file holds the events only; the trace file round-trips
  // through the parser allconcur_trace uses, stamped with the node id.
  const std::string flight = slurp(written[0]);
  EXPECT_NE(flight.find("\"event\": \"round_open\""), std::string::npos);
  EXPECT_EQ(std::count(flight.begin(), flight.end(), '\n'), 1);
  TraceMerge merge;
  EXPECT_EQ(merge.add_dump(slurp(written[1])), 2u);
  EXPECT_EQ(merge.spans()[1].node, 0u);
  EXPECT_EQ(merge.spans()[1].kind, SpanKind::kSend);
  EXPECT_EQ(merge.spans()[1].est_ns, 500u);
}

TEST(FlightDump, WithoutDumpDirOnlyStderrTailIsEmitted) {
  ::unsetenv("ALLCONCUR_FLIGHT_DIR");
  FlightRecorder a(16);
  a.record(EventKind::kDelivered, 1);
  a.record_span(SpanKind::kOrigin, 1, 0, 0, 0, 0);
  EXPECT_TRUE(dump_on_trip("no_dir", {{0, &a}}).empty());
}

// The acceptance scenario: a forced SMR divergence must auto-dump every
// replica's flight recorder, and the diverging node's dump must identify
// the diverging round.
TEST(FlightDump, ForcedSmrDivergenceDumpsEveryReplicaWithTheRound) {
  FlightDirGuard guard;

  smr::SimKvOptions opt;
  opt.cluster.n = 4;
  opt.cluster.detection_delay = ms(1);
  smr::SimKvCluster c(opt);

  std::optional<std::pair<NodeId, Round>> tripped;
  c.on_divergence = [&](NodeId who, Round round) {
    if (!tripped) tripped = {who, round};
  };

  auto session = c.make_session();
  const auto first = c.execute(
      0, session, smr::Command::put(smr::to_bytes("k"), smr::to_bytes("v1")));
  ASSERT_TRUE(first.has_value());
  // Let every replica catch up on the agreed prefix before corrupting.
  c.cluster().run_for(sec(1));
  ASSERT_FALSE(tripped.has_value());

  // Corrupt replica 2 out-of-band: an extra command applied directly to
  // its state machine forks its history from the agreed stream.
  smr::Bytes rogue_response;
  c.replica(2).machine().apply(
      smr::encode_command(smr::Command::put(smr::to_bytes("rogue"), smr::to_bytes("w"))),
      rogue_response);

  // The next agreed round lands replica 2 on a different hash than the
  // reference -> the divergence guard trips, dumps, and (because
  // on_divergence is set) returns instead of aborting.
  const auto second = c.execute(
      0, session, smr::Command::put(smr::to_bytes("k"), smr::to_bytes("v2")));
  ASSERT_TRUE(second.has_value());
  c.cluster().run_for(sec(1));

  ASSERT_TRUE(tripped.has_value()) << "forced divergence did not trip";
  EXPECT_EQ(tripped->first, 2u);

  // One dump per replica...
  for (NodeId id = 0; id < 4; ++id) {
    const std::string path = guard.dir() + "/flight_smr_hash_divergence_node" +
                             std::to_string(id) + ".jsonl";
    const std::string dump = slurp(path);
    EXPECT_FALSE(dump.empty()) << path;
  }
  // ...and the diverging node's dump pins the invariant trip to the
  // diverging round (grep key: round id as the correlation key).
  const std::string diverged =
      slurp(guard.dir() + "/flight_smr_hash_divergence_node2.jsonl");
  const std::string needle = "\"round\": " + std::to_string(tripped->second) +
                             ", \"event\": \"invariant_trip\"";
  EXPECT_NE(diverged.find(needle), std::string::npos)
      << "needle: " << needle << "\ndump:\n"
      << diverged;
}

}  // namespace
}  // namespace allconcur::obs
