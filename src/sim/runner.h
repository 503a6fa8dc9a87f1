// Experiment entry points: run a monitoring task (Volley or periodic
// baseline) over trace series and produce the RunResult metrics the figures
// report.
//
// run_volley, run_volley_single and run_dynamic_tasks are adapters over the
// one tick driver (sim/driver.h) — the exact semantics of the testbed: at
// every tick each due monitor samples, local violations trigger a
// coordinator global poll, and the coordinator reallocates error allowance
// once per updating period. run_periodic and run_correlated_group keep
// their own loops: the first is a closed form over the aggregate, the
// second gates samplers by correlation with no coordinator or poll.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/coordinator.h"
#include "core/correlation.h"
#include "core/task.h"
#include "sim/driver.h"
#include "sim/experiment.h"
#include "trace/trace.h"

namespace volley {

/// Runs Volley over a distributed task: one monitor per series, with the
/// given local thresholds (must sum to the spec's global threshold for the
/// no-communication-when-quiet property to hold; this is asserted), on
/// options.shards contiguous shards (1, the default, is the flat
/// coordinator).
///
/// Every run executes under a *private* metrics registry (obs/metrics.h):
/// RunResult::metrics_json snapshots only the run's own counters, and the
/// private registry is merged into the caller's current registry when the
/// run finishes, preserving cumulative process-level totals. Runs confine
/// all other state to the calling thread, so independent runs are
/// share-nothing and safe to fan out in parallel (sim/sweep.h).
RunResult run_volley(const TaskSpec& spec,
                     std::span<const TimeSeries> monitor_series,
                     std::span<const double> local_thresholds,
                     const RunOptions& options = {});

/// run_volley against precomputed ground truth. A parameter sweep re-runs
/// the same series under many (err, k) settings; the aggregate series and
/// its GroundTruth are identical across those cells, so computing them once
/// (GroundTruth::from_series over TimeSeries::sum) and passing them in
/// removes an O(ticks x monitors) recomputation from every run. `truth`
/// must have been built from these series at spec.global_threshold.
RunResult run_volley(const TaskSpec& spec,
                     std::span<const TimeSeries> monitor_series,
                     std::span<const double> local_thresholds,
                     const GroundTruth& truth, const RunOptions& options = {});

/// Single-monitor convenience: the local threshold is the global one.
RunResult run_volley_single(const TaskSpec& spec, const TimeSeries& series,
                            const RunOptions& options = {});

/// Single-monitor form with precomputed ground truth (see above).
RunResult run_volley_single(const TaskSpec& spec, const TimeSeries& series,
                            const GroundTruth& truth,
                            const RunOptions& options = {});

/// Periodic-sampling baseline: every monitor samples every `interval` ticks
/// (interval = 1 is the paper's accuracy reference and by construction has
/// zero mis-detection).
RunResult run_periodic(std::span<const TimeSeries> monitor_series,
                       double global_threshold, Tick interval);

/// One task of a multi-task correlation experiment.
struct CorrelatedTask {
  TaskSpec spec;           // global_threshold is the task's own threshold
  TimeSeries series;       // single-monitor state series
  double cost_per_sample{1.0};
};

struct CorrelatedGroupResult {
  std::vector<RunResult> per_task;
  std::vector<CorrelationScheduler::Edge> final_plan;

  std::int64_t total_ops() const;
  double total_weighted_cost(std::span<const CorrelatedTask> tasks) const;
};

/// Runs a group of single-monitor tasks under the state-correlation
/// scheduler. With `enable_gating == false` the scheduler still observes
/// (so plans can be inspected) but never suppresses — the ungated baseline.
CorrelatedGroupResult run_correlated_group(
    std::span<const CorrelatedTask> tasks,
    const CorrelationScheduler::Options& scheduler_options,
    bool enable_gating);

// --- dynamic task churn ---------------------------------------------------

/// Seed-derived random churn schedule: `arrivals` task instances with ids
/// `first_task, first_task + 1, ...`, each arriving at a tick drawn
/// uniformly from [0, ticks-1] and holding for a uniform
/// [hold_min, hold_max] tick window (departure events past the run end are
/// omitted — the instance simply lives to the end). All draws come from
/// Rng(seed) in a fixed per-instance order, so the schedule is a pure
/// function of these options; the result is in canonical_churn_order.
struct ChurnScheduleOptions {
  std::uint64_t seed{1};
  Tick ticks{0};       // run length the schedule must fit in
  int arrivals{0};     // task instances to create
  TaskId first_task{100};
  Tick hold_min{100};  // inclusive bounds on instance lifetime
  Tick hold_max{500};
  TaskSpec spec{};     // spec every arrival uses
};

std::vector<TaskChurnEvent> make_churn_schedule(
    const ChurnScheduleOptions& options);

/// One completed task instance of a dynamic run: accuracy and cost scored
/// over the instance's active window [arrived, departed).
struct DynamicTaskResult {
  TaskId task{0};
  std::uint64_t epoch{0};  // registry revision the instance ran at
  Tick arrived{0};
  Tick departed{0};        // end-of-run tick for tasks still live at the end
  RunResult result{};
};

struct DynamicRunResult {
  std::vector<DynamicTaskResult> tasks;  // completed instances, in order
  std::uint64_t registry_version{0};     // epochs consumed by the churn
  std::int64_t arrivals{0};
  std::int64_t departures{0};

  std::int64_t total_ops() const;
};

/// Runs a *dynamic* task set over the shared monitor series: tasks arrive
/// and depart mid-run per `events` (the in-process mirror of the control
/// plane's AddTask/RemoveTask), each task monitoring every series with an
/// even local-threshold split and its own error-allowance allocation. Task
/// revisions draw epochs from a control::TaskRegistry, so the run reports
/// the same epoch numbering the wire runtime would assign. Events may be
/// given in any order: they are applied in canonical_churn_order, so the
/// run (epochs included) depends only on the event *set*, never on the
/// order a generator emitted it in. An arrival for a live id or a departure
/// for an unknown id throws. Use it to measure the adaptation cost of task
/// churn — how a freshly arrived task's sampling cost converges while
/// standing tasks keep their tuned intervals. Each instance is scored over
/// its own window; its metrics_json stays empty (the run shares one
/// registry).
DynamicRunResult run_dynamic_tasks(std::span<const TimeSeries> monitor_series,
                                   std::span<const TaskChurnEvent> events,
                                   AllocatorKind allocator =
                                       AllocatorKind::kAdaptive);

}  // namespace volley
