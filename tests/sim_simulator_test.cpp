#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace allconcur::sim {
namespace {

/// Schedules actions that log their id when they run, and remembers the
/// order they must run in: by time, then by scheduling order.
class OrderLog {
 public:
  explicit OrderLog(Simulator& s) : s_(s) {}

  /// Runs after each logged action (may schedule more through at()).
  std::function<void()> on_run;

  void at(TimeNs t) {
    const std::size_t id = scheduled_.size();
    scheduled_.emplace_back(t, id);
    s_.schedule_at(t, [this, id] {
      ran_.push_back(id);
      if (on_run) on_run();
    });
  }

  std::size_t size() const { return scheduled_.size(); }
  const std::vector<std::size_t>& ran() const { return ran_; }
  std::vector<std::size_t> expected() const {
    auto sorted = scheduled_;
    std::sort(sorted.begin(), sorted.end());  // ids are scheduling order
    std::vector<std::size_t> ids;
    for (const auto& e : sorted) ids.push_back(e.second);
    return ids;
  }

 private:
  Simulator& s_;
  std::vector<std::pair<TimeNs, std::size_t>> scheduled_;  // (at, id)
  std::vector<std::size_t> ran_;
};

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
  // schedule more of either kind, delay 0 included. The run order must
  // equal a sort by (time, scheduling order).
  Simulator s;
  Rng rng(7);
  std::vector<std::pair<TimeNs, std::uint64_t>> scheduled;  // (at, id)
  std::vector<std::uint64_t> ran;                             // ids
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

// The queue's base (the last popped time) may move only when an event is
// popped. run_until's bound check looks at the next time without popping
// it; were the base moved to 1000 there, the event at 600 scheduled after
// run_until(500) would run after it.
TEST(Simulator, PeekDoesNotMoveTheBasePastNow) {
  Simulator s;
  std::vector<TimeNs> order;
  const auto log = [&] { order.push_back(s.now()); };
  s.schedule_at(10, log);
  s.schedule_at(1000, log);
  EXPECT_EQ(s.run_until(10), 1u);
  EXPECT_EQ(s.run_until(500), 0u);
  EXPECT_EQ(s.now(), 500);
  s.schedule_at(600, log);
  s.run_to_completion();
  EXPECT_EQ(order, (std::vector<TimeNs>{10, 600, 1000}));
}

TEST(Simulator, EqualTimesStayFifoAcrossRunUntilBoundaries) {
  // A few far-apart times, each with many events. Events are scheduled
  // between run_until calls that stop just before, at and just after each
  // time, at those times or at now(); a quarter of the events schedule
  // one more when they run.
  const std::vector<TimeNs> far = {ms(1),  ms(1) + 1,  sec(1),
                                   sec(1) + us(3), sec(100), sec(100) + 1,
                                   sec(100) + (TimeNs{1} << 20)};
  Simulator s;
  OrderLog log(s);
  Rng rng(11);
  const auto schedule_one = [&] {
    std::vector<TimeNs> times = {s.now()};
    for (TimeNs t : far) {
      if (t >= s.now()) times.push_back(t);
    }
    log.at(times[rng.next_below(times.size())]);
  };
  log.on_run = [&] {
    if (rng.next_below(4) == 0) schedule_one();
  };
  for (TimeNs t : far) {
    for (TimeNs bound : {t - 1, t, t + 1}) {
      for (int i = 0; i < 50; ++i) schedule_one();
      s.run_until(bound);
    }
  }
  s.run_to_completion();
  EXPECT_GE(log.size(), 1000u);
  EXPECT_EQ(log.ran(), log.expected());
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, DelaysFromZeroTo2Pow62) {
  // One handler schedules every delay from 0 (which runs at its own time,
  // after it) to 2^62 ns, in shuffled order; the run then stops between
  // each power of two, where more events land at now() and now() + 1.
  std::vector<DurationNs> delays = {0, 1, 2, 3};
  for (int k = 2; k <= 62; ++k) {
    delays.push_back((DurationNs{1} << k) - 1);
    delays.push_back(DurationNs{1} << k);
    if (k < 62) delays.push_back((DurationNs{1} << k) + 1);
  }
  Rng rng(5);
  for (std::size_t i = delays.size() - 1; i > 0; --i) {
    std::swap(delays[i], delays[rng.next_below(i + 1)]);
  }
  Simulator s;
  OrderLog log(s);
  constexpr TimeNs kStart = 12345;
  s.schedule_at(kStart, [&] {
    for (DurationNs d : delays) log.at(s.now() + d);
  });
  for (int k = 1; k <= 61; ++k) {
    s.run_until(kStart + (TimeNs{3} << (k - 1)));
    log.at(s.now());
    log.at(s.now() + 1);
  }
  s.run_to_completion();
  EXPECT_EQ(log.size(), delays.size() + 2 * 61);
  EXPECT_EQ(log.ran(), log.expected());
  EXPECT_EQ(s.now(), kStart + (TimeNs{1} << 62));
}

TEST(Simulator, CountsKeepTheirMeaningAcrossAPeek) {
  Simulator s;
  std::vector<std::pair<TimeNs, std::size_t>> seen;  // (now, pending)
  const auto log = [&] { seen.emplace_back(s.now(), s.pending()); };
  s.schedule_at(100, log);
  s.schedule_at(200, log);
  s.schedule_at(5000, log);
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_EQ(s.slots(), 3u);
  EXPECT_EQ(s.run_until(150), 1u);
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_EQ(s.run_until(1000), 1u);  // 5000 is looked at, not run
  EXPECT_EQ(s.now(), 1000);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.idle());
  s.schedule_at(1000, log);
  s.schedule_at(1001, log);
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_EQ(s.slots(), 3u);  // the two freed slots are reused
  EXPECT_EQ(s.run_to_completion(), 3u);
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.slots(), 3u);
  EXPECT_EQ(s.events_processed(), 5u);
  EXPECT_EQ(seen, (std::vector<std::pair<TimeNs, std::size_t>>{
                      {100, 2}, {200, 1}, {1000, 2}, {1001, 1}, {5000, 0}}));
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
