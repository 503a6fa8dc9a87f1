// Microbenchmarks backing the paper's claim that violation-likelihood
// estimation adds negligible overhead compared to sampling itself
// (Section III-B "cost of the dynamic sampling algorithm"). google-benchmark
// binary: reports ns/op for the estimator, the β̄ product loop on cold
// noisy lanes and on a warm memo, the full sampler step, the online
// statistics update, the coordinator's allocation step, one forced sample
// and one I = 1 step on the production chain (Monitor through the β̄
// kernel and the obs cells), and the obs/
// instrumentation primitives (which ride on every one of the above, so
// their cost must stay orders of magnitude below a sampling operation).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/adaptive_sampler.h"
#include "core/coordinator.h"
#include "core/error_allocation.h"
#include "core/likelihood.h"
#include "core/likelihood_kernel.h"
#include "core/metric_source.h"
#include "core/monitor.h"
#include "core/task.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"
#include "stats/online_stats.h"

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

/// One β̄ evaluation's inputs: the last value, the threshold and the delta
/// statistics.
struct BetaLane {
  double value{0.0};
  double threshold{0.0};
  DeltaStats stats{};
};

/// Noisy lanes near their thresholds (bench_scale's noisy population):
/// a margin of 5–10 over σ in [0.8, 1.8], so the zero-β̄ certificate fails
/// and every evaluation runs the product loop.
std::vector<BetaLane> noisy_beta_lanes(std::size_t lanes) {
  Rng rng(2);
  std::vector<BetaLane> out(lanes);
  for (auto& lane : out) {
    const double u = rng.uniform();
    lane.value = 5.0 * u;
    lane.threshold = 10.0;
    lane.stats = DeltaStats{0.01 * u, 0.8 + u};
  }
  return out;
}

void BM_BetaBound(benchmark::State& state) {
  // The β̄ loop itself: the kernel with no memo over 4096 noisy lanes, so
  // no evaluation is a memo hit or a certified zero.
  const Tick interval = state.range(0);
  const auto lanes = noisy_beta_lanes(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    const BetaLane& lane = lanes[i++ & (lanes.size() - 1)];
    benchmark::DoNotOptimize(beta_bound_chebyshev(
        lane.value, lane.threshold, lane.stats, interval));
  }
}
BENCHMARK(BM_BetaBound)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(40)->Arg(64);

void BM_BetaBoundWarmMemo(benchmark::State& state) {
  // One estimator at one key: every evaluation after the first is a hit
  // in the kernel's memo.
  const Tick interval = state.range(0);
  ViolationLikelihoodEstimator est;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) est.observe(rng.normal(0.0, 1.0), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.beta_bound(50.0, interval));
  }
}
BENCHMARK(BM_BetaBoundWarmMemo)->Arg(1)->Arg(64);

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

/// A quiet series: a seeded noise floor of at most 1e-20 (perfbench's
/// fleet_quiet floor), far below a 1e-9 local threshold, so β̄ is
/// certified zero and a monitor climbs to Im.
class NoiseFloorSource final : public MetricSource {
 public:
  explicit NoiseFloorSource(std::uint64_t seed) : seed_(seed) {}
  double value_at(Tick t) const override {
    std::uint64_t x = seed_ ^ (static_cast<std::uint64_t>(t) *
                               0x9E3779B97F4A7C15ull);
    x ^= x >> 31;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 29;
    return 1e-20 * static_cast<double>(x >> 11) * 0x1p-53;
  }
  Tick length() const override { return std::numeric_limits<Tick>::max(); }

 private:
  std::uint64_t seed_;
};

/// Noisy series: a table of N(0, 1) draws replayed in a loop.
class NoiseTableSource final : public MetricSource {
 public:
  explicit NoiseTableSource(std::uint64_t seed) : table_(4096) {
    Rng rng(seed);
    for (double& v : table_) v = rng.normal(0.0, 1.0);
  }
  double value_at(Tick t) const override {
    return table_[static_cast<std::size_t>(t) & (table_.size() - 1)];
  }
  Tick length() const override { return std::numeric_limits<Tick>::max(); }

 private:
  std::vector<double> table_;
};

void BM_CoordinatorForcePoll(benchmark::State& state) {
  // One root escalation's cost: force_poll samples every monitor of a
  // 2048-monitor quiet fleet sitting at Im (the production sample chain:
  // Monitor::force_sample -> sampler -> estimator -> β̄ kernel -> obs
  // cells), then rebuilds the due index.
  constexpr std::size_t kMonitors = 2048;
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(registry);
  TaskSpec spec;
  spec.global_threshold = 1.0;
  const double share = spec.error_allowance / kMonitors;
  std::vector<std::unique_ptr<NoiseFloorSource>> sources;
  std::vector<std::unique_ptr<Monitor>> monitors;
  for (std::size_t i = 0; i < kMonitors; ++i) {
    sources.push_back(std::make_unique<NoiseFloorSource>(i + 1));
    monitors.push_back(std::make_unique<Monitor>(
        static_cast<MonitorId>(i), *sources.back(),
        spec.sampler_options(share), 1e-9));
  }
  Coordinator coordinator(spec, std::move(monitors), nullptr);
  Tick t = 0;
  // Forced samples apply the adaptation rule too: p safe checks per step
  // from I = 1 to Im.
  while (coordinator.monitor(kMonitors - 1).interval() < spec.max_interval &&
         t < 10 * spec.patience * spec.max_interval) {
    coordinator.force_poll(t++);
  }
  if (coordinator.monitor(0).interval() != spec.max_interval) {
    state.SkipWithError("the quiet fleet did not reach Im");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(coordinator.force_poll(t++));
  }
  state.counters["per_sample"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kMonitors,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CoordinatorForcePoll);

void BM_MonitorStepAtIntervalOne(benchmark::State& state) {
  // A noisy monitor one σ under its threshold: β̄(1) stays far above err,
  // so every tick is a scheduled sample at I = 1 through β̄'s one-step path.
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(registry);
  NoiseTableSource source(7);
  AdaptiveSamplerOptions options;
  Monitor monitor(0, source, options, 1.0);
  Tick t = 0;
  for (; t < 64; ++t) monitor.step(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.step(t++));
  }
  if (monitor.interval() != 1) state.SkipWithError("the monitor left I = 1");
}
BENCHMARK(BM_MonitorStepAtIntervalOne);

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
  // What Monitor records per sampling operation when its thread has bound
  // a sink (obs::ScopedTraceSink): kSampleTaken and kIntervalChosen under
  // one lock. Unbound threads skip it. Compare with 2 x BM_TraceRecord.
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

}  // namespace
}  // namespace volley
