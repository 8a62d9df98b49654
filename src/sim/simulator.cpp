#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/assert.hpp"

namespace allconcur::sim {
namespace {

/// The bucket of time t against base: one past the highest differing bit.
std::size_t bucket_of(TimeNs t, TimeNs base) {
  return static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(t ^ base)));
}

}  // namespace

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
  const std::size_t i = bucket_of(t, base_);
  buckets_[i].push_back(Key{t, slot});
  nonempty_ |= std::uint64_t{1} << i;
  ++pending_;
}

bool Simulator::next_due(TimeNs t_end) {
  std::vector<Key>& ready = buckets_[0];
  if (head_ < ready.size()) return base_ <= t_end;
  ready.clear();
  head_ = 0;
  nonempty_ &= ~std::uint64_t{1};
  if (nonempty_ == 0) return false;
  const auto i = static_cast<std::size_t>(std::countr_zero(nonempty_));
  std::vector<Key>& from = buckets_[i];
  TimeNs first = from.front().at;
  for (const Key& key : from) first = std::min(first, key.at);
  // Only a pop may move the base: a later schedule_at can land anywhere
  // from now() on, which must stay at or above it.
  if (first > t_end) return false;
  base_ = first;
  // Every key here now differs from the base below bit i-1; spreading
  // them in order keeps equal times in scheduling order.
  for (const Key& key : from) {
    const std::size_t j = bucket_of(key.at, base_);
    buckets_[j].push_back(key);
    nonempty_ |= std::uint64_t{1} << j;
  }
  from.clear();
  nonempty_ &= ~(std::uint64_t{1} << i);
  return true;
}

void Simulator::step() {
  const Key key = buckets_[0][head_++];
  --pending_;
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
  for (; next_due(t_end); ++ran) step();
  if (now_ < t_end) now_ = t_end;
  return ran;
}

std::size_t Simulator::run_to_completion(std::size_t max_events) {
  std::size_t ran = 0;
  for (; next_due(kTimeNever); ++ran) {
    ALLCONCUR_ASSERT(ran < max_events, "simulation exceeded event budget");
    step();
  }
  return ran;
}

}  // namespace allconcur::sim
