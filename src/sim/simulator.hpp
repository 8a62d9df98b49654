// Deterministic discrete-event simulator.
//
// All protocol engines in a simulated deployment run single-threaded on one
// event loop with an int64 nanosecond clock. Events run in time order, and
// events at equal times run in the order they were scheduled, so every run
// is exactly reproducible.
//
// Two kinds of event share that one order: control actions (std::function:
// timers, ticks, crash and join schedules) and typed frame hops, which a
// fabric moves through the queue without allocating. The events sit in a
// slab whose freed slots are reused; the queue holds 16-byte keys
// {time, slot} in a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM
// 1990). Nothing is scheduled before now(), so key times only grow: bucket
// i holds the keys whose highest bit that differs from the last popped time
// (the base) is bit i-1, and bucket 0 the keys at the base itself. A push
// appends to one bucket in O(1). A pop that finds bucket 0 empty moves the
// base to the smallest time in the first nonempty bucket and spreads that
// bucket over the lower ones, so a key moves down at most 63 times in its
// life. Every bucket is a FIFO and spreading keeps order, which is what
// makes equal times run in scheduling order without a sequence number.
// Looking at the next time (run_until's bound check) never moves the base
// past that bound: the base must stay at or below now(), where the next
// schedule_at may land.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "core/message.hpp"

namespace allconcur::sim {

/// One frame in flight from src to dst. It is queued first for its arrival
/// at dst (kArrive), then for its hand-off to dst's engine (kHanded).
struct Hop {
  enum class Stage : std::uint8_t { kArrive, kHanded };
  core::FrameRef frame;
  TimeNs sent_at = 0;
  std::uint64_t corrupt_at = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  bool corrupt = false;
  Stage stage = Stage::kArrive;
};

class Simulator {
 public:
  using Action = std::function<void()>;
  /// Runs every hop; it may move the hop on with schedule_hop.
  using HopHandler = std::function<void(Hop&)>;

  TimeNs now() const { return now_; }

  /// Stable pointer to the virtual clock, for consumers that sample it on
  /// their own hot path without a call through the simulator (the flight
  /// recorder's time source). Valid for the simulator's lifetime.
  const TimeNs* now_ptr() const { return &now_; }

  /// Schedules `fn` to run `delay` from now (delay >= 0).
  void schedule(DurationNs delay, Action fn);

  /// Schedules `fn` at absolute time t (t >= now()).
  void schedule_at(TimeNs t, Action fn);

  /// Schedules `hop` for the hop handler at absolute time t (t >= now()).
  void schedule_hop(TimeNs t, Hop hop);
  void set_hop_handler(HopHandler handler) { on_hop_ = std::move(handler); }

  /// Runs events until the queue is empty or the next event is after
  /// `t_end`; the clock ends at min(t_end, last event time). Returns the
  /// number of events processed.
  std::size_t run_until(TimeNs t_end);

  /// Runs everything currently scheduled (and whatever it schedules) until
  /// the queue drains. `max_events` guards against runaway loops.
  std::size_t run_to_completion(std::size_t max_events = 1'000'000'000);

  bool idle() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }
  std::size_t events_processed() const { return processed_; }
  /// Slab records, pending or free: the most events ever pending at once.
  std::size_t slots() const { return slab_.size(); }

 private:
  using Record = std::variant<Action, Hop>;
  struct Key {
    TimeNs at;
    std::uint32_t slot;
  };
  /// Times are >= 0, so a time differs from the base below bit 63.
  static constexpr std::size_t kBuckets = 64;

  void push(TimeNs t, Record rec);
  /// True iff the earliest pending event is due by `t_end`; it is then at
  /// the front of bucket 0. Leaves the base alone otherwise.
  bool next_due(TimeNs t_end);
  /// Pops the event at the front of bucket 0 and runs it.
  void step();

  TimeNs now_ = 0;
  std::size_t processed_ = 0;
  std::size_t pending_ = 0;
  TimeNs base_ = 0;          // last popped time; <= every pending time
  std::size_t head_ = 0;     // next key to pop in bucket 0
  std::uint64_t nonempty_ = 0;  // bit i: bucket i may hold keys
  std::array<std::vector<Key>, kBuckets> buckets_;
  std::vector<Record> slab_;
  std::vector<std::uint32_t> free_;
  HopHandler on_hop_;
};

}  // namespace allconcur::sim
