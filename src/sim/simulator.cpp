#include "sim/simulator.hpp"

#include <utility>

#include "common/assert.hpp"

namespace allconcur::sim {

void Simulator::schedule(DurationNs delay, Action fn) {
  ALLCONCUR_ASSERT(delay >= 0, "cannot schedule into the past");
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(TimeNs t, Action fn) {
  push(t, std::move(fn));
}

void Simulator::schedule_hop(TimeNs t, Hop hop) {
  ALLCONCUR_ASSERT(on_hop_ != nullptr, "hop scheduled without a handler");
  push(t, std::move(hop));
}

void Simulator::push(TimeNs t, Record rec) {
  ALLCONCUR_ASSERT(t >= now_, "cannot schedule into the past");
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(rec));
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(rec);
  }
  queue_.push(Key{t, next_seq_++, slot});
}

void Simulator::step() {
  const Key key = queue_.top();
  queue_.pop();
  now_ = key.at;
  // Move out before running: the event may schedule into (and grow) the
  // slab, and its slot is free for reuse from here on.
  Record rec = std::move(slab_[key.slot]);
  free_.push_back(key.slot);
  if (Hop* hop = std::get_if<Hop>(&rec)) {
    on_hop_(*hop);
  } else {
    std::get<Action>(rec)();
  }
  ++processed_;
}

std::size_t Simulator::run_until(TimeNs t_end) {
  std::size_t ran = 0;
  for (; !queue_.empty() && queue_.top().at <= t_end; ++ran) step();
  if (now_ < t_end) now_ = t_end;
  return ran;
}

std::size_t Simulator::run_to_completion(std::size_t max_events) {
  std::size_t ran = 0;
  for (; !queue_.empty(); ++ran) {
    ALLCONCUR_ASSERT(ran < max_events, "simulation exceeded event budget");
    step();
  }
  return ran;
}

}  // namespace allconcur::sim
