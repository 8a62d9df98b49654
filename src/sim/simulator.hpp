// Deterministic discrete-event simulator.
//
// All protocol engines in a simulated deployment run single-threaded on one
// event loop with an int64 nanosecond clock. Events at equal timestamps run
// in scheduling order (a monotone sequence number breaks ties), so every
// run is exactly reproducible.
//
// Two kinds of event share that one (at, seq) order: control actions
// (std::function: timers, ticks, crash and join schedules) and typed frame
// hops, which a fabric moves through the queue without allocating. The
// queue holds 24-byte keys; the events themselves sit in a slab whose
// freed slots are reused.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
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

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::size_t events_processed() const { return processed_; }
  /// Slab records, pending or free: the most events ever pending at once.
  std::size_t slots() const { return slab_.size(); }

 private:
  using Record = std::variant<Action, Hop>;
  struct Key {
    TimeNs at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  void push(TimeNs t, Record rec);
  /// Pops the earliest event and runs it.
  void step();

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::priority_queue<Key, std::vector<Key>, Later> queue_;
  std::vector<Record> slab_;
  std::vector<std::uint32_t> free_;
  HopHandler on_hop_;
};

}  // namespace allconcur::sim
