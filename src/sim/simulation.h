// Discrete-event simulation kernel.
//
// A Simulation owns the virtual clock and one event queue: a 4-ary
// min-heap ordered by (when, seq). Events scheduled for the same instant
// fire in scheduling order (a monotonic sequence number breaks ties),
// which keeps runs deterministic.
//
// Layout (this is the hottest loop in the whole system):
//   * Heap nodes are 32 trivially-copyable bytes ({when, seq, slot, gen});
//     sift operations never move a callback. The 4-ary layout halves tree
//     depth vs binary and keeps the child scan inside one cache line.
//   * Callbacks live in a slot table as InlineCallback<96>, so the common
//     lambda capture (`this` + a few words) never heap-allocates.
//   * Handles are generation-counted: cancel() is O(1) and leaves its node
//     in the heap to be skipped when it surfaces, and a handle to an event
//     that already fired (or was cancelled) is detected exactly — no
//     cancelled-id list to scan, no liveness corruption.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/callback.h"
#include "util/units.h"

namespace psc::sim {

/// Handle used to cancel a pending event. A handle is invalidated the
/// moment its event fires or is cancelled; stale handles are harmless.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return gen_ != 0; }

 private:
  friend class Simulation;
  EventHandle(std::uint32_t slot, std::uint32_t gen)
      : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulation {
 public:
  /// 96 bytes of inline capture covers every callback in the codebase —
  /// including the media-path closures that carry a MediaSample (~64 B
  /// with `this`) or an hls::Segment (+indices, 72 B) — so the per-event
  /// path never heap-allocates; bigger captures transparently spill.
  using Callback = InlineCallback<96>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimePoint now() const { return now_; }

  /// Schedule `fn` at absolute time `when` (clamped to now()).
  EventHandle schedule_at(TimePoint when, Callback fn);

  /// Schedule `fn` after a delay from now.
  EventHandle schedule_after(Duration delay, Callback fn) {
    return schedule_at(now_ + (delay.count() < 0 ? Duration{0} : delay),
                       std::move(fn));
  }

  /// Cancel a pending event. Returns false — with no state change — if the
  /// event already ran, was cancelled before, or the handle is invalid.
  bool cancel(EventHandle h);

  /// Run until the queue drains or `until` is reached (whichever first).
  /// The clock is left at the time of the last executed event, or `until`
  /// if provided and no event was pending past it.
  void run_until(TimePoint until);
  void run_all();

  /// True if any events are pending.
  bool pending() const { return live_count_ > 0; }

  /// Lower bound on the due time of the next live event, or nullopt when
  /// nothing is pending: the heap front, clamped to now(). O(1). It is
  /// exact unless a cancelled node rests at the front, which pulls it
  /// early — but it is never late, which is the contract a wall-clock
  /// pacer needs to size its poll timeout (gateway::SimBridge): waking too
  /// early costs one extra poll, waking too late would stall due events.
  std::optional<TimePoint> next_due_bound() const;

  /// --- Kernel counters (always on; a handful of arithmetic ops per
  /// event, far below measurement noise). A Study folds these into its
  /// metric registry at shard finalization — the kernel itself never
  /// depends on obs/.
  std::size_t events_executed() const { return executed_; }
  std::size_t events_scheduled() const { return scheduled_; }
  std::size_t events_cancelled() const { return cancelled_; }
  /// Peak number of heap nodes (live or cancelled) ever queued at once.
  std::size_t max_heap_depth() const { return max_heap_; }
  /// Callbacks whose capture spilled past the InlineCallback buffer and
  /// heap-allocated (should stay ~0; see bench_micro_sim).
  std::size_t callback_heap_allocs() const { return callback_spills_; }

 private:
  /// Heap node: trivially copyable so sift moves are memcpy-cheap. `gen`
  /// snapshots the slot generation at schedule time; a mismatch at pop
  /// time means the event was cancelled.
  struct Node {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;

    bool before(const Node& other) const {
      if (when != other.when) return when < other.when;
      return seq < other.seq;
    }
  };

  /// One pending event's callback. The slot stays reserved (never reused)
  /// until its heap node pops, so a slot has at most one outstanding node.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;
  };

  static constexpr std::size_t kArity = 4;

  void heap_push(Node n);
  void heap_pop_top();
  void sift_down(std::size_t i);
  void run_events_until(TimePoint until);

  std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  TimePoint now_{};
  std::uint64_t next_seq_ = 1;
  std::size_t executed_ = 0;
  std::size_t live_count_ = 0;
  std::size_t scheduled_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t max_heap_ = 0;
  std::size_t callback_spills_ = 0;
};

}  // namespace psc::sim
