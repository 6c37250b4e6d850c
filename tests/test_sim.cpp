// Discrete-event simulation kernel tests.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "sim/simulation.h"
#include "util/rng.h"

namespace psc::sim {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(time_at(3.0), [&] { order.push_back(3); });
  sim.schedule_at(time_at(1.0), [&] { order.push_back(1); });
  sim.schedule_at(time_at(2.0), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(to_s(sim.now()), 3.0);
}

TEST(Simulation, TiesBreakByScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(time_at(1.0), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, RunUntilStopsAndSetsClock) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(time_at(5.0), [&] { ++fired; });
  sim.schedule_at(time_at(15.0), [&] { ++fired; });
  sim.run_until(time_at(10.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(to_s(sim.now()), 10.0);
  sim.run_until(time_at(20.0));
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, ScheduleAfterFromHandler) {
  Simulation sim;
  std::vector<double> times;
  std::function<void()> tick = [&] {
    times.push_back(to_s(sim.now()));
    if (times.size() < 3) sim.schedule_after(seconds(1), tick);
  };
  sim.schedule_after(seconds(1), tick);
  sim.run_all();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[2], 3.0);
}

TEST(Simulation, PastEventsClampToNow) {
  Simulation sim;
  sim.schedule_at(time_at(5.0), [] {});
  sim.run_all();
  double fired_at = -1;
  sim.schedule_at(time_at(1.0), [&] { fired_at = to_s(sim.now()); });
  sim.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);  // not back in time
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  int fired = 0;
  EventHandle h = sim.schedule_at(time_at(1.0), [&] { ++fired; });
  sim.schedule_at(time_at(2.0), [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // double cancel
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CancelInvalidHandle) {
  Simulation sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(Simulation, PendingReflectsLiveEvents) {
  Simulation sim;
  EXPECT_FALSE(sim.pending());
  EventHandle h = sim.schedule_at(time_at(1.0), [] {});
  EXPECT_TRUE(sim.pending());
  sim.cancel(h);
  EXPECT_FALSE(sim.pending());
}

TEST(Simulation, CountsExecutedEvents) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(time_at(i), [] {});
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulation, RunUntilWithNoEventsAdvancesClock) {
  Simulation sim;
  sim.run_until(time_at(42.0));
  EXPECT_DOUBLE_EQ(to_s(sim.now()), 42.0);
}

// Regression: cancelling a handle whose event already fired used to corrupt
// the kernel's bookkeeping (the id landed on the cancelled list and silently
// swallowed a later event). It must be a rejected no-op.
TEST(Simulation, CancelAfterFiredIsRejectedNoOp) {
  Simulation sim;
  int fired = 0;
  EventHandle h = sim.schedule_at(time_at(1.0), [&] { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.pending());
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // and again
  // State must be untouched: a new event (possibly reusing the slot) still
  // fires, and the stale handle still cannot cancel it.
  sim.schedule_at(time_at(2.0), [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_TRUE(sim.pending());
  sim.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.events_executed(), 2u);
}

// A stale generation-counted handle must never hit an event that reused
// its slot.
TEST(Simulation, StaleHandleCannotCancelSlotReuse) {
  Simulation sim;
  std::vector<EventHandle> stale;
  for (int round = 0; round < 5; ++round) {
    int fired = 0;
    EventHandle h = sim.schedule_after(seconds(1), [&] { ++fired; });
    for (const EventHandle& old : stale) EXPECT_FALSE(sim.cancel(old));
    sim.run_all();
    EXPECT_EQ(fired, 1);
    stale.push_back(h);
  }
}

TEST(Simulation, CancelFromInsideHandler) {
  Simulation sim;
  int fired = 0;
  EventHandle later = sim.schedule_at(time_at(2.0), [&] { ++fired; });
  sim.schedule_at(time_at(1.0), [&] { EXPECT_TRUE(sim.cancel(later)); });
  sim.run_all();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_executed(), 1u);
}

// 100K interleaved schedule/cancel/fire operations; checks exact execution
// accounting and that pending() ends false.
TEST(Simulation, CancelStress) {
  Simulation sim;
  SplitMix64Engine rng(12345);
  std::size_t fired = 0, cancelled = 0;
  std::vector<EventHandle> open;
  for (int i = 0; i < 100000; ++i) {
    const double when = to_s(sim.now()) + static_cast<double>(rng() % 97) / 7.0;
    open.push_back(sim.schedule_at(time_at(when), [&] { ++fired; }));
    const std::uint64_t op = rng() % 4;
    if (op == 0 && !open.empty()) {
      // Cancel a random outstanding handle; it may have fired already, in
      // which case cancel must refuse and the event stays counted as fired.
      const std::size_t k = rng() % open.size();
      if (sim.cancel(open[k])) ++cancelled;
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (op == 1) {
      sim.run_until(sim.now() + seconds(2));
    }
  }
  sim.run_all();
  EXPECT_FALSE(sim.pending());
  // Every schedule either fired or was the target of exactly one successful
  // cancel — nothing lost, nothing double-counted.
  EXPECT_EQ(fired + cancelled, 100000u);
  EXPECT_EQ(sim.events_executed(), fired);
  EXPECT_GT(cancelled, 0u);
  EXPECT_GT(fired, 0u);
}

// Regression: a far-future event at the heap top past `until` must not
// hold back an earlier event due before `until` in the same run_until.
TEST(Simulation, FarFutureEventDoesNotMaskEarlierOnes) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(time_at(50.0), [&] { order.push_back(99); });
  sim.schedule_at(time_at(0.1), [&] { order.push_back(1); });
  sim.run_until(time_at(1.0));
  EXPECT_EQ(order, (std::vector<int>{1}));
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 99}));
}

// Differential check against an exact (when, seq) reference ordering:
// random schedules (including same-instant and past-time clamps),
// cancels, and run_until cuts between events.
TEST(Simulation, MatchesReferenceHeapOrderingUnderStress) {
  for (int trial = 0; trial < 40; ++trial) {
    std::mt19937_64 rng(trial * 104729u + 3u);
    Simulation s;
    std::set<std::tuple<double, long>> ref;  // (fire time, seq)
    std::map<long, double> when_of;
    long seq = 0;
    long fired = 0;
    bool ok = true;
    std::vector<std::pair<EventHandle, long>> handles;
    std::function<void(double)> sched = [&](double base) {
      double when = base + static_cast<double>(rng() % 10000) * 0.0005;
      if (rng() % 8 == 0) when = base + static_cast<double>(rng() % 4);
      if (rng() % 13 == 0) when = base;  // same-instant FIFO
      const long my = seq++;
      const double clamped = when < to_s(s.now()) ? to_s(s.now()) : when;
      ref.insert({clamped, my});
      when_of[my] = clamped;
      handles.push_back({s.schedule_at(time_at(when), [&, my] {
        ok = ok && !ref.empty() &&
             *ref.begin() == std::make_tuple(to_s(s.now()), my);
        if (!ref.empty()) ref.erase(ref.begin());
        if (++fired < 800 && rng() % 3 != 0) sched(to_s(s.now()));
        if (fired < 800 && rng() % 5 == 0) sched(to_s(s.now()));
      }), my});
    };
    for (int i = 0; i < 50; ++i) sched(static_cast<double>(rng() % 100) * 0.01);
    for (int i = 0; i < 10; ++i) {
      auto [h, id] = handles[rng() % handles.size()];
      if (s.cancel(h)) ref.erase({when_of[id], id});
    }
    s.run_until(time_at(0.0101));
    s.run_until(time_at(0.016));
    s.run_until(time_at(1.2345));
    s.run_all();
    ASSERT_TRUE(ok) << "trial " << trial << " fired out of order";
    ASSERT_TRUE(ref.empty()) << "trial " << trial << ": " << ref.size()
                             << " events never fired";
  }
}

// The kernel's callback type must not heap-allocate for small captures.
TEST(InlineCallback, SmallCapturesStayInline) {
  struct Small {
    void* a;
    void* b;
    double c;
  };
  struct Big {
    char bytes[128];
  };
  static_assert(Simulation::Callback::stores_inline<decltype([] {})>());
  static_assert(
      Simulation::Callback::stores_inline<decltype([s = Small{}] {
        (void)s;
      })>());
  static_assert(!Simulation::Callback::stores_inline<decltype([b = Big{}] {
    (void)b;
  })>());

  int hits = 0;
  Simulation::Callback small = [&hits, pad = 3.0] {
    hits += static_cast<int>(pad);
  };
  EXPECT_TRUE(small.is_inline());
  Simulation::Callback big = [&hits, b = Big{}] {
    (void)b;
    ++hits;
  };
  EXPECT_FALSE(big.is_inline());
  // Move transfers the callable either way.
  Simulation::Callback small2 = std::move(small);
  Simulation::Callback big2 = std::move(big);
  small2();
  big2();
  EXPECT_EQ(hits, 4);
}

TEST(InlineCallback, MoveOnlyCapturesWork) {
  auto p = std::make_unique<int>(41);
  Simulation::Callback cb = [q = std::move(p)]() mutable { ++*q; };
  EXPECT_TRUE(cb);
  Simulation::Callback cb2 = std::move(cb);
  cb2();
  cb2.reset();
  EXPECT_FALSE(cb2);
}

}  // namespace
}  // namespace psc::sim
