#include "sim/sweep.h"

#include <stdexcept>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"

namespace volley::sim {

namespace {

/// Capacity of each job's private trace ring. Sweep runs are replays whose
/// traces are discarded unread, so it is small.
constexpr std::size_t kJobTraceCapacity = 256;

/// Runs one job under a private metrics registry and trace sink and folds
/// its counters into `parent` (the registry current on the sweep caller's
/// thread); the trace is discarded.
RunResult run_scoped(const std::function<RunResult(std::size_t)>& job,
                     std::size_t index, obs::MetricsRegistry* parent) {
  obs::MetricsRegistry job_registry;
  obs::TraceSink job_trace(kJobTraceCapacity);
  RunResult result;
  {
    obs::ScopedMetricsRegistry metrics_scope(job_registry);
    obs::ScopedTraceSink trace_scope(job_trace);
    result = job(index);
  }
  parent->merge_from(job_registry);
  return result;
}

}  // namespace

std::size_t resolve_threads(const SweepOptions& options) {
  return options.threads > 0 ? options.threads
                             : ThreadPool::default_threads();
}

std::vector<RunResult> sweep(std::size_t count,
                             const std::function<RunResult(std::size_t)>& job,
                             const SweepOptions& options) {
  std::vector<RunResult> results(count);
  if (count == 0) return results;
  obs::MetricsRegistry* parent = &obs::metrics();
  const std::size_t threads = resolve_threads(options);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i)
      results[i] = run_scoped(job, i, parent);
    return results;
  }
  ThreadPool pool(threads);
  pool.parallel_for(count, [&](std::size_t i) {
    results[i] = run_scoped(job, i, parent);
  });
  return results;
}

std::vector<RunResult> sweep(std::span<const SweepCell> cells,
                             const SweepOptions& options) {
  for (const auto& cell : cells) {
    if (cell.series == nullptr)
      throw std::invalid_argument("sweep: cell without a series");
  }
  return sweep(
      cells.size(),
      [&cells](std::size_t i) {
        const SweepCell& cell = cells[i];
        if (cell.truth != nullptr) {
          return run_volley_single(cell.spec, *cell.series, *cell.truth,
                                   cell.run_options);
        }
        return run_volley_single(cell.spec, *cell.series, cell.run_options);
      },
      options);
}

}  // namespace volley::sim
