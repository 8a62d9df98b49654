#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace allconcur::sim {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(ms(30), [&] { order.push_back(3); });
  s.schedule(ms(10), [&] { order.push_back(1); });
  s.schedule(ms(20), [&] { order.push_back(2); });
  s.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), ms(30));
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(ms(5), [&order, i] { order.push_back(i); });
  }
  s.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, HandlersCanScheduleMore) {
  Simulator s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) s.schedule(ms(1), chain);
  };
  s.schedule(ms(1), chain);
  s.run_to_completion();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), ms(5));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  int ran = 0;
  s.schedule(ms(10), [&] { ++ran; });
  s.schedule(ms(20), [&] { ++ran; });
  s.run_until(ms(15));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.now(), ms(15));
  EXPECT_EQ(s.pending(), 1u);
  s.run_until(ms(25));
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator s;
  s.run_until(ms(100));
  EXPECT_EQ(s.now(), ms(100));
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator s;
  bool fired = false;
  s.schedule_at(ms(42), [&] { fired = true; });
  s.run_until(ms(41));
  EXPECT_FALSE(fired);
  s.run_until(ms(42));
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventCountTracked) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(i, [] {});
  s.run_to_completion();
  EXPECT_EQ(s.events_processed(), 7u);
}

TEST(Simulator, ActionsAndHopsShareOneOrder) {
  // Actions and typed hops at random times with many ties; handlers
  // schedule more of either kind, delay 0 included. Each schedule call
  // takes the next seq, so the run order must equal a sort by (at, seq).
  Simulator s;
  Rng rng(7);
  std::vector<std::pair<TimeNs, std::uint64_t>> scheduled;  // (at, seq)
  std::vector<std::uint64_t> ran;                             // seqs
  std::function<void(int)> add = [&](int depth) {
    const std::uint64_t id = scheduled.size();
    const TimeNs at = s.now() + 10 * static_cast<TimeNs>(rng.next_below(4));
    scheduled.emplace_back(at, id);
    if (rng.next_below(2) == 0) {
      s.schedule_at(at, [&, id, depth] {
        ran.push_back(id);
        for (int i = 0; depth < 3 && i < 2; ++i) add(depth + 1);
      });
    } else {
      s.schedule_hop(at, Hop{.frame = nullptr,
                             .corrupt_at = id,
                             .src = static_cast<NodeId>(depth)});
    }
  };
  s.set_hop_handler([&](Hop& hop) {
    ran.push_back(hop.corrupt_at);
    for (NodeId i = 0; hop.src < 3 && i < 2; ++i) {
      add(static_cast<int>(hop.src) + 1);
    }
  });
  for (int i = 0; i < 500; ++i) add(0);
  EXPECT_EQ(s.pending(), 500u);
  EXPECT_FALSE(s.idle());
  s.run_to_completion();

  std::sort(scheduled.begin(), scheduled.end());
  std::vector<std::uint64_t> expected;
  for (const auto& e : scheduled) expected.push_back(e.second);
  EXPECT_EQ(expected.size(), 500u * (1 + 2 + 4 + 8));
  EXPECT_EQ(ran, expected);
  EXPECT_EQ(s.events_processed(), expected.size());
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, FreedSlotsAreReused) {
  // 100k schedule/run cycles, never more than k events pending: the slab
  // never grows past k records.
  constexpr std::size_t k = 8;
  Simulator s;
  s.set_hop_handler([](Hop&) {});
  Rng rng(3);
  for (int cycle = 0; cycle < 100'000; ++cycle) {
    while (s.pending() < k) {
      const TimeNs at = s.now() + static_cast<TimeNs>(rng.next_below(3));
      if (rng.next_below(2) == 0) {
        s.schedule_at(at, [] {});
      } else {
        s.schedule_hop(at, Hop{});
      }
    }
    s.run_until(s.now() + 1);
  }
  EXPECT_GT(s.events_processed(), 100'000u);
  EXPECT_LE(s.slots(), k);
}

TEST(SimulatorDeath, SchedulingInThePastAborts) {
  Simulator s;
  s.schedule(ms(5), [] {});
  s.run_to_completion();
  EXPECT_DEATH(s.schedule_at(ms(1), [] {}), "past");
  s.set_hop_handler([](Hop&) {});
  EXPECT_DEATH(s.schedule_hop(ms(1), Hop{}), "past");
}

TEST(SimulatorDeath, HopWithoutAHandlerAborts) {
  Simulator s;
  EXPECT_DEATH(s.schedule_hop(0, Hop{}), "handler");
}

}  // namespace
}  // namespace allconcur::sim
