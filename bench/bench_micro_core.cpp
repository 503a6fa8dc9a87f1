// Microbenchmarks backing the paper's claim that violation-likelihood
// estimation adds negligible overhead compared to sampling itself
// (Section III-B "cost of the dynamic sampling algorithm"). google-benchmark
// binary: reports ns/op for the estimator, the full sampler step, the online
// statistics update, the coordinator's allocation step, the obs/
// instrumentation primitives (which ride on every one of the above, so
// their cost must stay orders of magnitude below a sampling operation), and
// the EventQueue hot path old vs. new (DESIGN.md §10) with a global
// allocation counter proving the schedule/run cycle is allocation-free.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/adaptive_sampler.h"
#include "core/error_allocation.h"
#include "core/likelihood.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"
#include "sim/event_queue.h"
#include "stats/online_stats.h"

// --- global allocation counter ----------------------------------------
// Every route into the heap bumps g_heap_allocs; the EventQueue benches
// report allocs/op and hard-assert that the steady-state schedule/run
// cycle of the new queue performs none.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// noinline: keeps GCC from inlining these into callers and then warning
// -Wmismatched-new-delete about the (matched) malloc/free pair inside.
#if defined(__GNUC__)
#define VOLLEY_BENCH_NOINLINE __attribute__((noinline))
#else
#define VOLLEY_BENCH_NOINLINE
#endif

VOLLEY_BENCH_NOINLINE void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
VOLLEY_BENCH_NOINLINE void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
VOLLEY_BENCH_NOINLINE void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0)
    throw std::bad_alloc();
  return p;
}
VOLLEY_BENCH_NOINLINE void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
VOLLEY_BENCH_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
VOLLEY_BENCH_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
VOLLEY_BENCH_NOINLINE void operator delete(void* p, std::size_t) noexcept { std::free(p); }
VOLLEY_BENCH_NOINLINE void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
VOLLEY_BENCH_NOINLINE void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
VOLLEY_BENCH_NOINLINE void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
VOLLEY_BENCH_NOINLINE void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
VOLLEY_BENCH_NOINLINE void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace volley {
namespace {

void BM_OnlineStatsAdd(benchmark::State& state) {
  OnlineStats stats;
  double x = 0.123;
  for (auto _ : state) {
    stats.add(x);
    x += 1e-9;
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_OnlineStatsAdd);

void BM_EstimatorObserve(benchmark::State& state) {
  ViolationLikelihoodEstimator est;
  Rng rng(1);
  double v = 0.0;
  for (auto _ : state) {
    v += rng.normal(0.0, 1.0);
    est.observe(v, 1);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_EstimatorObserve);

void BM_BetaBound(benchmark::State& state) {
  const Tick interval = state.range(0);
  ViolationLikelihoodEstimator est;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) est.observe(rng.normal(0.0, 1.0), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.beta_bound(50.0, interval));
  }
}
BENCHMARK(BM_BetaBound)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(40)->Arg(64);

void BM_SamplerObserve(benchmark::State& state) {
  AdaptiveSamplerOptions options;
  options.error_allowance = 0.01;
  options.max_interval = 40;
  AdaptiveSampler sampler(options, 50.0);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.observe(rng.normal(0.0, 1.0), 1));
  }
}
BENCHMARK(BM_SamplerObserve);

void BM_AdaptiveAllocation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  AdaptiveAllocation allocator;
  std::vector<double> current(n, 0.01 / static_cast<double>(n));
  std::vector<CoordStats> stats(n);
  Rng rng(4);
  for (auto& s : stats) {
    s.avg_gain = rng.uniform(0.0, 0.5);
    s.avg_allowance = rng.uniform(1e-4, 0.01);
    s.observations = 100;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(0.01, current, stats));
  }
}
BENCHMARK(BM_AdaptiveAllocation)->Arg(2)->Arg(10)->Arg(100);

void BM_CounterInc(benchmark::State& state) {
  // A counter bumped through its shared base: one relaxed atomic add per
  // event (the form for handles not confined to one thread).
  obs::MetricsRegistry registry;
  auto& counter = registry.counter("bench_events_total");
  for (auto _ : state) {
    counter.inc();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_CounterInc);

void BM_CounterCellInc(benchmark::State& state) {
  // The hot-path form: the calling thread's cell, resolved once, then a
  // relaxed load and store per event (no read-modify-write).
  obs::MetricsRegistry registry;
  auto& cell = registry.counter("bench_events_total").cell();
  for (auto _ : state) {
    cell.inc();
    benchmark::DoNotOptimize(cell);
  }
}
BENCHMARK(BM_CounterCellInc);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  auto& hist = registry.histogram("bench_interval_ticks", 0.0, 64.0, 64);
  double x = 0.0;
  for (auto _ : state) {
    hist.observe(x);
    x += 0.37;
    if (x >= 64.0) x = 0.0;
    benchmark::DoNotOptimize(hist);
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_HistogramCellObserve(benchmark::State& state) {
  // Same stream as BM_HistogramObserve, through the thread's cell.
  obs::MetricsRegistry registry;
  auto& cell =
      registry.histogram("bench_interval_ticks", 0.0, 64.0, 64).cell();
  double x = 0.0;
  for (auto _ : state) {
    cell.observe(x);
    x += 0.37;
    if (x >= 64.0) x = 0.0;
    benchmark::DoNotOptimize(cell);
  }
}
BENCHMARK(BM_HistogramCellObserve);

void BM_TraceRecord(benchmark::State& state) {
  obs::TraceSink sink;  // default 4096-event ring, steady-state overwrite
  Tick t = 0;
  for (auto _ : state) {
    sink.record(obs::TraceKind::kSampleTaken, t++, 1, 0.5);
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_TraceRecord);

void BM_TraceRecordPair(benchmark::State& state) {
  // What Monitor records per sampling operation: kSampleTaken and
  // kIntervalChosen under one lock. Compare with 2 x BM_TraceRecord.
  obs::TraceSink sink;
  Tick t = 0;
  for (auto _ : state) {
    sink.record_pair({.kind = obs::TraceKind::kSampleTaken,
                      .tick = t,
                      .monitor = 1,
                      .value = 0.5},
                     {.kind = obs::TraceKind::kIntervalChosen,
                      .tick = t,
                      .monitor = 1,
                      .value = 4.0,
                      .detail = 0.001});
    ++t;
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_TraceRecordPair);

void BM_ThreadPoolSubmit(benchmark::State& state) {
  // Round-trip cost of one submitted task: the floor on how fine-grained a
  // sweep job can be before dispatch overhead dominates. Full-day runs are
  // milliseconds each, so this must stay microseconds.
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    pool.submit([] {}).get();
  }
}
BENCHMARK(BM_ThreadPoolSubmit)->Arg(1)->Arg(4);

void BM_ThreadPoolParallelFor(benchmark::State& state) {
  // Per-batch overhead of parallel_for with trivial bodies: what sim::sweep
  // pays on top of the runs themselves for one figure-grid fan-out.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(4);
  std::atomic<std::size_t> sink{0};
  for (auto _ : state) {
    pool.parallel_for(n, [&](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(16)->Arg(256);

void BM_ScopedRegistryRebind(benchmark::State& state) {
  // Install + restore of a run-scoped registry plus one cached-handle
  // re-resolution — the fixed per-run cost of metrics scoping.
  obs::MetricsRegistry run_registry;
  for (auto _ : state) {
    obs::ScopedMetricsRegistry scope(run_registry);
    benchmark::DoNotOptimize(&obs::metrics());
  }
}
BENCHMARK(BM_ScopedRegistryRebind);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(800, 1.0);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

// --- EventQueue hot path: old vs. new (DESIGN.md §10) -----------------

// The pre-rewrite EventQueue, embedded verbatim as the A/B baseline:
// std::priority_queue of {when, seq, id, std::function} plus an
// unordered_set for lazy cancellation. A Simulation::schedule_tick-sized
// capture (24 bytes: [this, &task, when]) exceeds libstdc++'s
// std::function small buffer, so every schedule_at here heap-allocates
// the callback and an unordered_set node.
class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;

  std::uint64_t schedule_at(SimTime when, Callback fn) {
    const std::uint64_t id = next_id_++;
    heap_.push(Event{when, next_seq_++, id, std::move(fn)});
    live_.insert(id);
    return id;
  }

  void cancel(std::uint64_t id) { live_.erase(id); }

  bool step() {
    Event ev;
    if (!pop_runnable(ev)) return false;
    live_.erase(ev.id);
    now_ = ev.when;
    ev.fn();
    return true;
  }

  std::uint64_t run_until(SimTime horizon) {
    std::uint64_t executed = 0;
    Event ev;
    while (pop_runnable(ev)) {
      if (ev.when > horizon) {
        heap_.push(Event{ev.when, ev.seq, ev.id, std::move(ev.fn)});
        break;
      }
      live_.erase(ev.id);
      now_ = ev.when;
      ev.fn();
      ++executed;
    }
    now_ = std::max(now_, horizon);
    return executed;
  }

  SimTime now() const { return now_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::uint64_t id;
    Callback fn;

    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  bool pop_runnable(Event& out) {
    while (!heap_.empty()) {
      Event& top = const_cast<Event&>(heap_.top());
      Event ev{top.when, top.seq, top.id, std::move(top.fn)};
      heap_.pop();
      if (live_.find(ev.id) == live_.end()) continue;  // cancelled
      out = std::move(ev);
      return true;
    }
    return false;
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  std::unordered_set<std::uint64_t> live_;
  SimTime now_{0.0};
  std::uint64_t next_seq_{0};
  std::uint64_t next_id_{1};
};

constexpr std::size_t kEventBatch = 4096;

// One Simulation::schedule_tick-shaped cycle: schedule a single event
// whose capture matches simulation.cpp's [this, &task, when] (24 bytes —
// two pointers plus a SimTime), then run it.
template <typename Queue>
void schedule_run_cycle(Queue& q, std::uint64_t& sink) {
  const SimTime when = q.now() + 1.0;
  q.schedule_at(when, [&q, &sink, when] {
    benchmark::DoNotOptimize(when);
    ++sink;
  });
  q.step();
}

void BM_EventQueueScheduleRun(benchmark::State& state) {
  EventQueue q;
  std::uint64_t sink = 0;
  // Warm the record heap and callback slot slab to steady state.
  for (int i = 0; i < 1024; ++i) schedule_run_cycle(q, sink);
  // Acceptance gate, not just a report: the steady-state schedule/run
  // cycle must never touch the heap (the 24-byte capture fits the inline
  // callback buffer, and a warm queue reuses its freed slot).
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 4096; ++i) schedule_run_cycle(q, sink);
  const std::uint64_t seen =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  if (seen != 0) {
    std::fprintf(stderr,
                 "BM_EventQueueScheduleRun: expected 0 steady-state heap "
                 "allocations over 4096 schedule/run cycles, saw %llu\n",
                 static_cast<unsigned long long>(seen));
    std::exit(1);
  }
  const std::uint64_t start = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    schedule_run_cycle(q, sink);
  }
  benchmark::DoNotOptimize(sink);
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          start),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_LegacyEventQueueScheduleRun(benchmark::State& state) {
  LegacyEventQueue q;
  std::uint64_t sink = 0;
  for (int i = 0; i < 1024; ++i) schedule_run_cycle(q, sink);
  const std::uint64_t start = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    schedule_run_cycle(q, sink);
  }
  benchmark::DoNotOptimize(sink);
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          start),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LegacyEventQueueScheduleRun);

// Schedule-then-cancel churn, the sweep engine's restart pattern. Each
// batch drains past the batch horizon so the legacy queue pays its lazy
// cancellation debt (dead heap nodes popped later) inside the measured
// region, keeping the comparison fair.
template <typename Queue>
void schedule_cancel_batches(benchmark::State& state) {
  Queue q;
  std::uint64_t sink = 0;
  std::vector<std::uint64_t> ids(kEventBatch);
  const std::uint64_t start = g_heap_allocs.load(std::memory_order_relaxed);
  while (state.KeepRunningBatch(static_cast<benchmark::IterationCount>(
      kEventBatch))) {
    for (std::size_t i = 0; i < kEventBatch; ++i) {
      const SimTime when = q.now() + 1.0;
      ids[i] = q.schedule_at(when, [&q, &sink, when] {
        benchmark::DoNotOptimize(when);
        ++sink;
      });
    }
    for (const std::uint64_t id : ids) q.cancel(id);
    q.run_until(q.now() + 2.0);
  }
  benchmark::DoNotOptimize(sink);
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          start),
      benchmark::Counter::kAvgIterations);
}

void BM_EventQueueScheduleCancel(benchmark::State& state) {
  schedule_cancel_batches<EventQueue>(state);
}
BENCHMARK(BM_EventQueueScheduleCancel);

void BM_LegacyEventQueueScheduleCancel(benchmark::State& state) {
  schedule_cancel_batches<LegacyEventQueue>(state);
}
BENCHMARK(BM_LegacyEventQueueScheduleCancel);

}  // namespace
}  // namespace volley
