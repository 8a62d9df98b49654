// Scenario-engine determinism and fault semantics: the same seed must
// produce the identical fault schedule however the engine is deployed
// (the sim send path and the TCP interposition differ only in their clock
// epoch), phases must activate exactly within their windows, and injected
// corruption must always be caught by the frame checksum.
#include <gtest/gtest.h>

#include <vector>

#include "chaos/scenario.hpp"
#include "core/message.hpp"

namespace allconcur::chaos {
namespace {

bool same_action(const Action& a, const Action& b) {
  return a.drop == b.drop && a.duplicate == b.duplicate &&
         a.corrupt == b.corrupt && a.delay == b.delay &&
         a.corrupt_at == b.corrupt_at;
}

Scenario busy_scenario(std::uint64_t seed) {
  LinkFaults f;
  f.drop = 0.1;
  f.duplicate = 0.15;
  f.corrupt = 0.1;
  f.reorder = 0.3;
  f.reorder_jitter = us(500);
  return Scenario(seed)
      .partition(ms(10), ms(20), {2, 3})
      .link_down(ms(5), ms(30), 0, 1)
      .flap_link(0, ms(40), 1, 0, ms(4))
      .gray(ms(15), ms(35), 4, us(200), 0.25)
      .faults(0, kTimeNever, f);
}

// A deterministic pseudo-workload of (src, dst, t) frame events.
struct Ev {
  NodeId src, dst;
  TimeNs t;
};
std::vector<Ev> workload(std::size_t frames) {
  std::vector<Ev> out;
  out.reserve(frames);
  TimeNs t = 0;
  for (std::size_t i = 0; i < frames; ++i) {
    const NodeId src = static_cast<NodeId>(i % 5);
    const NodeId dst = static_cast<NodeId>((i + 1 + i / 5) % 5);
    t += us(7);
    out.push_back({src, dst, t});
  }
  return out;
}

TEST(ChaosScenario, SameSeedSameSchedule) {
  ScenarioEngine a(busy_scenario(42));
  ScenarioEngine b(busy_scenario(42));
  a.set_epoch(0);
  b.set_epoch(0);
  for (const Ev& e : workload(5000)) {
    const Action va = a.on_frame(e.src, e.dst, e.t);
    const Action vb = b.on_frame(e.src, e.dst, e.t);
    ASSERT_TRUE(same_action(va, vb));
  }
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
  EXPECT_EQ(a.stats().duplicated, b.stats().duplicated);
  EXPECT_EQ(a.stats().corrupted, b.stats().corrupted);
  EXPECT_EQ(a.stats().delayed, b.stats().delayed);
  // The scenario actually did something.
  EXPECT_GT(a.stats().dropped, 0u);
  EXPECT_GT(a.stats().duplicated, 0u);
  EXPECT_GT(a.stats().corrupted, 0u);
  EXPECT_GT(a.stats().delayed, 0u);
}

TEST(ChaosScenario, SimAndTcpClockEpochsAlign) {
  // The sim path runs on virtual time from ~0; the TCP path runs on the
  // monotonic clock with an arbitrary origin. Identical relative times
  // must yield the identical schedule — that is what makes a committed
  // seed replayable across deployments.
  ScenarioEngine sim_path(busy_scenario(7));
  ScenarioEngine tcp_path(busy_scenario(7));
  const TimeNs boot = 123'456'789'000'000;  // some monotonic-clock origin
  for (const Ev& e : workload(3000)) {
    // Each engine's epoch auto-pins to the first frame it sees, so the
    // shifted clock cancels out.
    const Action vs = sim_path.on_frame(e.src, e.dst, e.t);
    const Action vt = tcp_path.on_frame(e.src, e.dst, boot + e.t);
    ASSERT_TRUE(same_action(vs, vt));
  }
}

TEST(ChaosScenario, DifferentSeedsDiverge) {
  ScenarioEngine a(busy_scenario(1));
  ScenarioEngine b(busy_scenario(2));
  a.set_epoch(0);
  b.set_epoch(0);
  std::size_t differ = 0;
  for (const Ev& e : workload(2000)) {
    if (!same_action(a.on_frame(e.src, e.dst, e.t),
                     b.on_frame(e.src, e.dst, e.t))) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 0u);
}

TEST(ChaosScenario, PartitionActiveOnlyInsideWindow) {
  ScenarioEngine eng(Scenario(9).partition(ms(10), ms(20), {1}));
  eng.set_epoch(0);
  EXPECT_FALSE(eng.on_frame(0, 1, ms(9)).drop);   // before
  EXPECT_TRUE(eng.on_frame(0, 1, ms(10)).drop);   // boundary crossing in
  EXPECT_TRUE(eng.on_frame(1, 0, ms(15)).drop);   // both directions
  EXPECT_FALSE(eng.on_frame(0, 2, ms(15)).drop);  // same side: untouched
  EXPECT_FALSE(eng.on_frame(0, 1, ms(20)).drop);  // healed (half-open)
}

TEST(ChaosScenario, LinkDownIsAsymmetric) {
  ScenarioEngine eng(Scenario(9).link_down(0, ms(10), 2, 3));
  eng.set_epoch(0);
  EXPECT_TRUE(eng.on_frame(2, 3, ms(5)).drop);
  EXPECT_FALSE(eng.on_frame(3, 2, ms(5)).drop);  // reverse direction up
}

TEST(ChaosScenario, FlappingLinkAlternates) {
  ScenarioEngine eng(Scenario(9).flap_link(0, ms(100), 0, 1, ms(10)));
  eng.set_epoch(0);
  EXPECT_TRUE(eng.on_frame(0, 1, ms(2)).drop);    // first half: down
  EXPECT_FALSE(eng.on_frame(0, 1, ms(7)).drop);   // second half: up
  EXPECT_TRUE(eng.on_frame(0, 1, ms(12)).drop);   // next period: down again
  EXPECT_FALSE(eng.on_frame(0, 1, ms(18)).drop);
}

TEST(ChaosScenario, GraySlowsAndTrickles) {
  ScenarioEngine eng(Scenario(11).gray(0, ms(100), 3, us(250), 0.5));
  eng.set_epoch(0);
  std::size_t dropped = 0, total = 400;
  for (std::size_t i = 0; i < total; ++i) {
    const Action a = eng.on_frame(3, static_cast<NodeId>(i % 3), ms(1));
    EXPECT_EQ(a.delay, us(250));  // slow-but-alive: every frame delayed
    if (a.drop) ++dropped;
  }
  // Half the frames trickle through, half are lost (binomial, wide band).
  EXPECT_GT(dropped, total / 4);
  EXPECT_LT(dropped, 3 * total / 4);
  // Frames from healthy nodes are untouched.
  const Action healthy = eng.on_frame(1, 2, ms(1));
  EXPECT_FALSE(healthy.drop);
  EXPECT_EQ(healthy.delay, 0);
}

TEST(ChaosScenario, GrayWithoutDropDrawsNoRandomness) {
  // The deployments model a slow server as a drop-free gray phase. That
  // phase must only add its slowdown: a co-active faults phase keeps its
  // per-link draw sequence, so every drop/duplicate/corrupt verdict (and
  // the jitter) matches the faults phase alone, frame by frame.
  LinkFaults f;
  f.drop = 0.1;
  f.duplicate = 0.15;
  f.corrupt = 0.1;
  f.reorder = 0.3;
  f.reorder_jitter = us(500);
  const DurationNs slowdown = us(300);
  const auto with_gray = [&](double gray_drop) {
    return Scenario(21)
        .gray(0, kTimeNever, 2, slowdown, gray_drop)
        .faults(0, kTimeNever, f);
  };
  ScenarioEngine alone(Scenario(21).faults(0, kTimeNever, f));
  ScenarioEngine gray(with_gray(0.0));
  alone.set_epoch(0);
  gray.set_epoch(0);
  for (const Ev& e : workload(5000)) {
    Action expected = alone.on_frame(e.src, e.dst, e.t);
    if (e.src == 2) expected.delay += slowdown;
    ASSERT_TRUE(same_action(gray.on_frame(e.src, e.dst, e.t), expected))
        << "frame " << e.src << "->" << e.dst << " at " << e.t;
  }
  EXPECT_GT(alone.stats().dropped, 0u);

  // Control: a gray phase that does drop draws from the gray node's link
  // streams and shifts the faults phase's verdicts there.
  ScenarioEngine base(Scenario(21).faults(0, kTimeNever, f));
  ScenarioEngine lossy(with_gray(0.25));
  base.set_epoch(0);
  lossy.set_epoch(0);
  std::size_t differing = 0;
  for (const Ev& e : workload(5000)) {
    Action expected = base.on_frame(e.src, e.dst, e.t);
    if (e.src == 2) expected.delay += slowdown;
    if (!same_action(lossy.on_frame(e.src, e.dst, e.t), expected)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST(ChaosScenario, CorruptionAlwaysDetectedByChecksum) {
  // Flip every single wire byte in turn: the checksum (or the magic/type
  // plausibility it anchors) must reject every variant — zero silently
  // delivered corrupt payloads, the chaos gate's core guarantee.
  const auto frame = core::Frame::make(core::Message::bcast(
      3, 1, core::make_payload({10, 20, 30, 40, 50})));
  for (std::uint64_t i = 0; i < frame->wire_size(); ++i) {
    const auto tainted = core::Frame::corrupt_copy(*frame, i);
    const auto bytes = tainted->to_bytes();
    EXPECT_FALSE(core::decode(std::span<const std::uint8_t>(bytes)))
        << "byte " << i << " flip went undetected";
  }
  // The undamaged frame still decodes.
  const auto bytes = frame->to_bytes();
  EXPECT_TRUE(core::decode(std::span<const std::uint8_t>(bytes)));
}

TEST(ChaosScenario, SizeOnlyChecksumMatchesMaterializedZeros) {
  // Size-only frames hash their zero payload in closed form (h * p^L);
  // the materialized encoding must agree bit for bit, or the sim bench
  // traffic would be undecodable on a real wire.
  for (const std::uint64_t bytes : {0ull, 1ull, 7ull, 1024ull, 65537ull}) {
    const auto m = core::Message::bcast_sized(5, 2, bytes);
    const auto frame = core::Frame::make(m);
    EXPECT_EQ(frame->to_bytes(), core::encode(m)) << bytes;
    const auto wire = frame->to_bytes();
    EXPECT_TRUE(core::decode(std::span<const std::uint8_t>(wire))) << bytes;
  }
}

TEST(ChaosScenario, InjectionStatsCount) {
  ScenarioEngine eng(Scenario(13).partition(0, kTimeNever, {0}));
  eng.set_epoch(0);
  for (int i = 0; i < 10; ++i) eng.on_frame(0, 1, ms(i));
  for (int i = 0; i < 5; ++i) eng.on_frame(1, 2, ms(i));
  EXPECT_EQ(eng.stats().frames_seen, 15u);
  EXPECT_EQ(eng.stats().dropped, 10u);
}

}  // namespace
}  // namespace allconcur::chaos
