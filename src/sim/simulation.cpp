#include "sim/simulation.h"

#include <cassert>
#include <utility>

namespace psc::sim {

EventHandle Simulation::schedule_at(TimePoint when, Callback fn) {
  assert(fn);
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  if (!s.fn.is_inline()) ++callback_spills_;
  heap_push(Node{when, next_seq_++, slot, s.gen});
  ++live_count_;
  ++scheduled_;
  if (heap_.size() > max_heap_) max_heap_ = heap_.size();
  return EventHandle{slot, s.gen};
}

bool Simulation::cancel(EventHandle h) {
  if (!h.valid() || h.slot_ >= slots_.size()) return false;
  Slot& s = slots_[h.slot_];
  // A generation mismatch means the event fired (or was cancelled) and
  // the handle is stale: report failure without touching any state.
  if (s.gen != h.gen_ || !s.fn) return false;
  s.fn.reset();
  ++s.gen;  // invalidate outstanding handles; lazy heap node skips on pop
  --live_count_;
  ++cancelled_;
  return true;
}

void Simulation::heap_push(Node n) {
  std::size_t i = heap_.size();
  heap_.push_back(n);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!heap_[i].before(heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulation::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) return;
    std::size_t best = first_child;
    const std::size_t last_child =
        first_child + kArity < n ? first_child + kArity : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(heap_[i])) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void Simulation::heap_pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Simulation::run_until(TimePoint until) {
  run_events_until(until);
  if (now_ < until) now_ = until;
}

void Simulation::run_events_until(TimePoint until) {
  while (!heap_.empty()) {
    const Node top = heap_.front();
    if (top.when > until) return;
    heap_pop_top();
    Slot& s = slots_[top.slot];
    if (s.gen != top.gen) {
      // Cancelled while queued; the slot was held back until its node
      // surfaced — reclaim it now.
      free_slots_.push_back(top.slot);
      continue;
    }
    Callback fn = std::move(s.fn);
    ++s.gen;  // fire invalidates the handle before user code runs
    free_slots_.push_back(top.slot);
    --live_count_;
    now_ = top.when;
    ++executed_;
    fn();
  }
}

std::optional<TimePoint> Simulation::next_due_bound() const {
  // A live event implies a queued node; the front can only be early (a
  // cancelled node), never later than the next live event.
  if (live_count_ == 0) return std::nullopt;
  const TimePoint front = heap_.front().when;
  return front < now_ ? now_ : front;
}

void Simulation::run_all() {
  // Drain everything; the clock stays at the last executed event.
  run_events_until(TimePoint{Duration{1e18}});
}

}  // namespace psc::sim
