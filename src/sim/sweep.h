// Parallel experiment engine: fan a batch of independent experiment runs
// across a worker pool with deterministic, input-ordered results.
//
// Every figure bench replays the paper's evaluation as hundreds to
// thousands of *independent* full-day simulations (one per parameter-grid
// cell). A run confines its monitors/estimators/coordinator to the thread
// executing it — the only process-wide state it touches is the
// observability plane, and scoped registries/sinks (obs/metrics.h,
// obs/trace_events.h) remove that exception. That makes runs share-nothing,
// and a sweep embarrassingly parallel.
//
// Determinism guarantee: sweep(count, job) returns exactly the results the
// plain serial loop `for (i in 0..count) out[i] = job(i)` would produce —
// byte-identical RunResults including metrics_json — for every thread
// count. Results are written to input-ordered slots; each job runs under a
// private metrics registry and trace sink, so neither scheduling order nor
// worker identity can leak into a result. Per-run counters are merged into
// the sweep caller's registry afterwards (counter/histogram merging is
// commutative, so the cumulative totals are deterministic too; gauges are
// last-writer-wins across workers).
//
// Jobs must be independent: a job must not touch state shared with another
// job (series inputs are fine — they are read-only). Jobs that throw abort
// the sweep; the first failing index's exception is rethrown.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "sim/experiment.h"
#include "sim/runner.h"

namespace volley::sim {

struct SweepOptions {
  /// Worker threads; 0 means ThreadPool::default_threads() (the
  /// VOLLEY_THREADS environment variable, else the hardware count).
  /// 1 runs the jobs as a plain serial loop on the calling thread.
  std::size_t threads{0};
};

/// Resolved thread count for the given options (for benches that report it).
std::size_t resolve_threads(const SweepOptions& options);

/// Runs job(0) .. job(count-1) across a worker pool; result i is job(i)'s
/// return value. See the determinism guarantee in the file header.
std::vector<RunResult> sweep(std::size_t count,
                             const std::function<RunResult(std::size_t)>& job,
                             const SweepOptions& options = {});

/// One (TaskSpec, TimeSeries) cell of a single-monitor parameter sweep.
/// `series` must outlive the sweep call; `truth` optionally supplies
/// precomputed ground truth (identical cells across e.g. an err-row of a
/// figure grid share one GroundTruth instead of recomputing it per run).
struct SweepCell {
  TaskSpec spec;
  const TimeSeries* series{nullptr};
  const GroundTruth* truth{nullptr};
  RunOptions run_options{};
};

/// Convenience: run_volley_single over every cell.
std::vector<RunResult> sweep(std::span<const SweepCell> cells,
                             const SweepOptions& options = {});

}  // namespace volley::sim
