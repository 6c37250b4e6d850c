// Kernel microbenchmark: raw event throughput of the discrete-event core.
//
// Three workloads, each run against the current kernel and against a
// replica of the seed kernel (std::priority_queue + linearly-scanned
// cancelled-id list + std::function callbacks) so the speedup is measured
// in-binary rather than across checkouts:
//   schedule_fire   N events scheduled in pseudo-random time order, drained
//   cancel_heavy    N scheduled, half cancelled before firing (the RTO-timer
//                   pattern: every TCP send re-arms a timer that almost
//                   always gets cancelled). Runs at a smaller N by default
//                   because the seed kernel is quadratic here.
//   mixed           self-rescheduling tickers + churn of cancelled one-shots
//
// Also counts heap allocations per event (global operator new override) to
// verify the InlineCallback<96> small-buffer path: captures <= 96 bytes
// must not allocate. The workload capture is 24 bytes — past
// std::function's 16-byte SSO, inside InlineCallback's 96.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <vector>

#include "bench_common.h"
#include "sim/simulation.h"

// ---- allocation counter -------------------------------------------------
// Overriding global new/delete in this TU affects the whole binary; the
// counter is read before/after the measured region.
namespace {
std::size_t g_allocs = 0;
}

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

using namespace psc;

namespace {

// ---- seed-kernel replica ------------------------------------------------
// Byte-for-byte the algorithm the repo shipped with: O(n) cancel scan,
// priority_queue with const_cast top-move, std::function callbacks.
class LegacySimulation {
 public:
  using Handle = std::uint64_t;

  Handle schedule_at(TimePoint when, std::function<void()> fn) {
    if (when < now_) when = now_;
    const std::uint64_t id = next_id_++;
    queue_.push(Event{when, next_seq_++, id, std::move(fn)});
    ++live_count_;
    return id;
  }

  bool cancel(Handle id) {
    if (id == 0) return false;
    if (std::find(cancelled_.begin(), cancelled_.end(), id) !=
        cancelled_.end()) {
      return false;
    }
    cancelled_.push_back(id);
    if (live_count_ > 0) --live_count_;
    return true;
  }

  void run_all() {
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      Event ev{top.when, top.seq, top.id,
               std::move(const_cast<Event&>(top).fn)};
      queue_.pop();
      auto it = std::find(cancelled_.begin(), cancelled_.end(), ev.id);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      --live_count_;
      now_ = ev.when;
      ++executed_;
      ev.fn();
    }
  }

  TimePoint now() const { return now_; }
  std::size_t events_executed() const { return executed_; }

 private:
  struct Event {
    TimePoint when;
    std::uint64_t seq;
    std::uint64_t id;
    std::function<void()> fn;
    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<std::uint64_t> cancelled_;
  TimePoint now_{};
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
  std::size_t executed_ = 0;
  std::size_t live_count_ = 0;
};

// Pseudo-random but reproducible event times, precomputed so the RNG cost
// stays outside the measured region.
std::vector<double> make_times(std::size_t n) {
  SplitMix64Engine rng(7);
  std::vector<double> times(n);
  for (double& t : times) {
    t = static_cast<double>(rng() % 1000000) * 1e-3;
  }
  return times;
}

struct Sink {
  std::uint64_t value = 0;
  // Padding pushes the capture {Sink*, pad} past std::function's 16-byte
  // SSO while staying far under InlineCallback's 96.
  void bump(std::uint64_t a, std::uint64_t b) { value += 1 + a + b; }
};

struct RunStats {
  double secs = 0;
  std::size_t executed = 0;
  std::size_t allocs = 0;
};

template <typename SimT, typename ScheduleFn, typename CancelFn>
RunStats run_schedule_fire(SimT& sim, const std::vector<double>& times,
                           ScheduleFn schedule, CancelFn /*cancel*/,
                           Sink* sink) {
  const std::size_t allocs_before = g_allocs;
  const bench::WallTimer t;
  for (double when : times) {
    schedule(time_at(when), [sink, a = std::uint64_t{1},
                             b = std::uint64_t{2}] { sink->bump(a, b); });
  }
  sim.run_all();
  return RunStats{t.elapsed_s(), sim.events_executed(),
                  g_allocs - allocs_before};
}

template <typename SimT, typename ScheduleFn, typename CancelFn>
RunStats run_cancel_heavy(SimT& sim, const std::vector<double>& times,
                          ScheduleFn schedule, CancelFn cancel, Sink* sink) {
  const std::size_t allocs_before = g_allocs;
  const bench::WallTimer t;
  // The RTO-timer pattern: schedule two, immediately cancel the older one.
  decltype(schedule(TimePoint{}, [sink, a = std::uint64_t{1},
                                  b = std::uint64_t{2}] {
    sink->bump(a, b);
  })) prev{};
  bool have_prev = false;
  for (double when : times) {
    auto h = schedule(time_at(when), [sink, a = std::uint64_t{1},
                                      b = std::uint64_t{2}] {
      sink->bump(a, b);
    });
    if (have_prev) cancel(prev);
    prev = h;
    have_prev = true;
  }
  sim.run_all();
  return RunStats{t.elapsed_s(), sim.events_executed(),
                  g_allocs - allocs_before};
}

template <typename SimT, typename ScheduleFn, typename CancelFn>
RunStats run_mixed(SimT& sim, std::size_t n, ScheduleFn schedule,
                   CancelFn cancel, Sink* sink) {
  const std::size_t allocs_before = g_allocs;
  const bench::WallTimer t;
  // 16 tickers rescheduling themselves, plus a churn of one-shots where
  // every other one is cancelled. The ticker table outlives run_all so
  // the self-referencing callbacks stay valid.
  const double horizon = static_cast<double>(n) / 32.0;
  std::vector<std::function<void(double)>> tickers(16);
  for (std::size_t k = 0; k < 16; ++k) {
    tickers[k] = [&tickers, &schedule, sink, k, horizon](double at) {
      schedule(time_at(at), [&tickers, sink, k, at, horizon] {
        sink->bump(k, 0);
        if (at + 1.0 < horizon) tickers[k](at + 1.0);
      });
    };
    tickers[k](static_cast<double>(k) * 0.01);
  }
  SplitMix64Engine rng(11);
  for (std::size_t i = 0; i < n / 2; ++i) {
    const double when = static_cast<double>(rng() % 100000) * 1e-2;
    auto h = schedule(time_at(when), [sink, a = std::uint64_t{3},
                                      b = std::uint64_t{4}] {
      sink->bump(a, b);
    });
    if ((i & 1) != 0) cancel(h);
  }
  sim.run_all();
  return RunStats{t.elapsed_s(), sim.events_executed(),
                  g_allocs - allocs_before};
}

struct Workload {
  const char* name = "";
  std::size_t events = 0;       // events scheduled
  // Throughput is normalised by *scheduled* events — the full
  // schedule/(cancel|fire) lifecycle — since cancel_heavy executes almost
  // nothing by design.
  double new_secs = 0;
  double legacy_secs = 0;
  double new_events_s = 0;      // scheduled events/sec, current kernel
  double legacy_events_s = 0;   // scheduled events/sec, seed-kernel replica
  double new_allocs = 0;        // allocations per scheduled event
  double legacy_allocs = 0;
};

/// Run one workload against a sim::Simulation.
template <typename RunnerFn>
RunStats run_new_kernel(sim::Simulation& sim, RunnerFn&& runner,
                        Sink* sink) {
  auto schedule = [&sim](TimePoint at, auto fn) {
    return sim.schedule_at(at, std::move(fn));
  };
  auto cancel = [&sim](sim::EventHandle h) { return sim.cancel(h); };
  return runner(sim, schedule, cancel, sink);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("micro_sim", argc, argv);
  const bench::WallTimer timer;
  bench::print_header(
      "Kernel", "Discrete-event kernel throughput (new vs seed kernel)",
      "generation-counted O(1) cancel + 4-ary move-pop heap + inline "
      "callbacks vs O(n) cancel scan + priority_queue + std::function");

  // Compile-time guarantee backing the no-allocation claim below. The
  // media-path closures (MediaSample / hls::Segment captures) fit the
  // 96-byte inline buffer; anything past it must spill.
  struct BigCapture {
    char bytes[120];
  };
  static_assert(
      sim::Simulation::Callback::stores_inline<decltype([] {})>(),
      "captureless lambda must be inline");
  static_assert(!sim::Simulation::Callback::stores_inline<
                    decltype([b = BigCapture{}] { (void)b; })>(),
                "a 120-byte capture must spill to the heap");

  const std::size_t n = static_cast<std::size_t>(
      bench::env_int("PSC_MICRO_EVENTS", 400000));
  // The seed kernel is O(n^2) in outstanding cancels; keep that workload
  // small enough to finish while still deep in its quadratic regime.
  const std::size_t n_cancel = static_cast<std::size_t>(
      bench::env_int("PSC_MICRO_CANCEL_EVENTS", 40000));
  Sink sink;
  std::vector<Workload> results;

  for (int w = 0; w < 3; ++w) {
    Workload wl{};
    wl.events = w == 1 ? n_cancel : n;
    const std::vector<double> times = make_times(wl.events);
    switch (w) {
      case 0: wl.name = "schedule_fire"; break;
      case 1: wl.name = "cancel_heavy"; break;
      case 2: wl.name = "mixed"; break;
    }
    // Dispatch one workload against any (sim, schedule, cancel) triple.
    const auto runner = [&](auto& sim, auto schedule, auto cancel,
                            Sink* s) -> RunStats {
      switch (w) {
        case 0:
          return run_schedule_fire(sim, times, schedule, cancel, s);
        case 1:
          return run_cancel_heavy(sim, times, schedule, cancel, s);
        default:
          return run_mixed(sim, wl.events, schedule, cancel, s);
      }
    };
    {
      sim::Simulation sim;
      const RunStats st = run_new_kernel(sim, runner, &sink);
      wl.new_secs = st.secs;
      wl.new_events_s = static_cast<double>(wl.events) / st.secs;
      wl.new_allocs = static_cast<double>(st.allocs) /
                      static_cast<double>(wl.events);
    }
    {
      LegacySimulation sim;
      auto schedule = [&sim](TimePoint at, std::function<void()> fn) {
        return sim.schedule_at(at, std::move(fn));
      };
      auto cancel = [&sim](LegacySimulation::Handle h) {
        return sim.cancel(h);
      };
      const RunStats st = runner(sim, schedule, cancel, &sink);
      wl.legacy_secs = st.secs;
      wl.legacy_events_s = static_cast<double>(wl.events) / st.secs;
      wl.legacy_allocs = static_cast<double>(st.allocs) /
                         static_cast<double>(wl.events);
    }
    results.push_back(wl);
  }

  std::printf("\n%-16s %9s %13s %13s %8s %11s %11s\n", "workload", "events",
              "new ev/s", "seed ev/s", "speedup", "new alloc/ev",
              "seed alloc/ev");
  for (const Workload& w : results) {
    std::printf("%-16s %9zu %13.0f %13.0f %7.1fx %11.4f %11.4f\n", w.name,
                w.events, w.new_events_s, w.legacy_events_s,
                w.new_events_s / w.legacy_events_s, w.new_allocs,
                w.legacy_allocs);
  }
  std::printf("(new-kernel allocations amortise to ~0/event — only "
              "vector growth; the seed kernel paid one std::function "
              "allocation per event for this 24-byte capture plus its "
              "quadratic cancel scans)\n");
  std::printf("sink=%llu (keeps callbacks observable)\n",
              static_cast<unsigned long long>(sink.value));

  for (const Workload& w : results) {
    char name[64];
    std::snprintf(name, sizeof(name), "micro_sim_%s", w.name);
    // `allocs_per_event` is already emitted by the shared BENCH prefix
    // (0 here: no campaign kernel); the workload's own counter rides as
    // `new_allocs_per_event` to avoid a duplicate JSON key.
    bench::emit_bench_line(name, w.new_secs, reporter.local(),
                      {{"events", static_cast<double>(w.events)},
                       {"seed_wall_s", w.legacy_secs},
                       {"events_per_sec", w.new_events_s},
                       {"seed_events_per_sec", w.legacy_events_s},
                       {"new_allocs_per_event", w.new_allocs},
                       {"seed_allocs_per_event", w.legacy_allocs}});
    reporter.local()
        .counter(std::string("micro_events_total{workload=\"") + w.name +
                 "\"}")
        .add(static_cast<double>(w.events));
  }
  reporter.finish(timer.elapsed_s(), {{"workloads", 3}});
  return 0;
}
