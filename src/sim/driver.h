// The simulation tick driver: the paper's coordinator protocol (Figure 3)
// as one loop. run_volley, run_dynamic_tasks, run_volley_faulty and the
// scenario soak's sim mode are all this loop with different parameters.
//
// Each tick t in [0, ticks):
//  1. the churn events scheduled at t apply in canonical_churn_order
//     (departures before arrivals), each drawing its epoch from a
//     control::TaskRegistry exactly as the control plane would;
//  2. every live task runs its coordinator tick, in ascending task id:
//     monitors sample when due, a local-violation report that reaches the
//     coordinator triggers a global poll, and allowance is reallocated once
//     per updating period;
//  3. the after_tick hook runs.
// A static run is a task list with one task arriving at tick 0.
//
// Every task runs on one shard::ShardedCoordinator; a flat task is its
// one-shard case, which is the bare Coordinator's tick loop. The
// parameters are the shard count (RunOptions::shards), the allocator, an
// optional fault model shared by every task and every shard, the churn
// schedule, and the scorer: the on_retire hook scores each task as it
// leaves, with the one windowed scorer of sim/experiment.h. Every task's
// updating-period clock starts at its arrival, as a net MonitorNode's does
// on TaskAttach.
//
// A run executes under one run-scoped metrics registry (run_registry.h),
// hooks included, and is a pure function of its inputs: fault draws come
// from the fault model's Rng in tick order, then ascending task id, then
// the order core/fault_model.h gives within one task.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "control/task_registry.h"
#include "core/fault_model.h"
#include "core/task.h"
#include "shard/sharded_coordinator.h"
#include "sim/experiment.h"
#include "trace/trace.h"

namespace volley {

enum class AllocatorKind {
  kNone,      // keep the initial even split forever
  kEven,      // re-divide evenly every period (Figure 8 "even")
  kAdaptive,  // yield-proportional iterative tuning (Figure 8 "adapt")
};

struct RunOptions {
  AllocatorKind allocator{AllocatorKind::kAdaptive};
  bool record_ops{false};        // fill RunResult::op_ticks
  bool record_intervals{false};  // fill RunResult::interval_trajectory
  /// Shard count S >= 1: each task runs on a ShardedCoordinator over S
  /// contiguous shards (DESIGN.md §13). S == 1, the default, is the flat
  /// coordinator; 0 throws std::invalid_argument when a task arrives.
  std::size_t shards{1};
};

/// The allocator of every allocation loop — a flat task, each shard and
/// the root tier alike. Its floor rule is AdaptiveAllocation's own
/// (feasible_floor: err/100 per lane, err/(2n) past 100 lanes), so a
/// single-shard run equals a flat one at every fleet size.
shard::ShardedCoordinator::AllocatorFactory make_allocator_factory(
    AllocatorKind kind);

/// A change to the task set of a run: a task arriving (with its spec) or
/// departing at a given tick. Arrivals take effect before the tick runs;
/// departures stop the task from running that tick.
struct TaskChurnEvent {
  enum class Kind { kArrive, kDepart };
  Kind kind{Kind::kArrive};
  Tick tick{0};
  TaskId task{0};
  TaskSpec spec{};  // kArrive only
};

/// Canonical application order for churn events: ascending tick, departures
/// before arrivals at the same tick (so a task id can be retired and
/// re-added in one tick), ascending task id within each group. The ordering
/// is a pure function of the events themselves — never of how they were
/// produced — which is what makes scenario replays deterministic across
/// producer thread counts and collection orders.
std::vector<TaskChurnEvent> canonical_churn_order(
    std::vector<TaskChurnEvent> events);

/// Counters summed over every task instance of a run so far, retired ones
/// included. The fault counters are the fault model's; outage monitor-ticks
/// count once per live task per down monitor per tick.
struct SimTotals {
  std::int64_t ops{0};
  std::int64_t local_violations{0};
  std::int64_t global_polls{0};
  std::int64_t reallocations{0};
  std::int64_t alerts{0};  // polls whose aggregate exceeded the task's T
  std::int64_t lost_reports{0};
  std::int64_t lost_responses{0};
  std::int64_t stale_polls{0};
  std::int64_t outage_monitor_ticks{0};
};

/// One live task instance of a SimDriver run.
class SimTask {
 public:
  TaskId id() const { return id_; }
  std::uint64_t epoch() const { return epoch_; }
  Tick arrived() const { return arrived_; }
  const TaskSpec& spec() const { return coordinator_->spec(); }
  std::size_t monitor_count() const { return coordinator_->monitor_count(); }
  /// Monitor by global index.
  const Monitor& monitor(std::size_t i) const {
    return coordinator_->monitor(i);
  }
  /// Per run tick: 1 where a poll found the aggregate above T. Zero
  /// outside the task's lifetime.
  std::span<const char> detected() const { return detected_; }

  /// The task's cost and protocol accounting over its lifetime
  /// [arrived, end): every RunResult field except the accuracy ones and
  /// metrics_json, which the scorer fills.
  RunResult result(Tick end) const;

 private:
  friend class SimDriver;
  void run_tick(Tick t, const RunOptions& options);
  void add_to(SimTotals& totals) const;

  TaskId id_{0};
  std::uint64_t epoch_{0};
  Tick arrived_{0};
  std::unique_ptr<shard::ShardedCoordinator> coordinator_;
  std::vector<char> detected_;
  std::int64_t local_violations_{0};
  std::vector<std::int64_t> prev_ops_;  // record_ops / record_intervals
  std::vector<std::vector<Tick>> op_ticks_;
  std::vector<Tick> interval_trajectory_;
};

class SimDriver {
 public:
  struct Hooks {
    /// After every live task ran tick t.
    std::function<void(Tick t)> after_tick;
    /// A task leaves the run: at its departure tick (before the tick
    /// runs), or at the run's end for tasks still live (ascending id).
    std::function<void(const SimTask& task, Tick end)> on_retire;
  };

  /// `series`: one per monitor, all of the run's length (copied). Every
  /// task watches every series. `local_thresholds`, when given, are each
  /// task's
  /// per-monitor thresholds (they must sum to the task's T); empty splits
  /// every task's T evenly. `faults` must outlive the driver.
  SimDriver(std::span<const TimeSeries> series, const RunOptions& options,
            std::span<const double> local_thresholds = {},
            FaultModel* faults = nullptr);

  /// Runs [0, ticks) under `events`, given in any order; call once per
  /// driver. An arrival for a live id or a departure of an unknown id
  /// throws std::invalid_argument. Returns the final totals.
  SimTotals run(std::span<const TaskChurnEvent> events, const Hooks& hooks);

  /// The static run: task 0 with `spec` arrives at tick 0 and lives to the
  /// end; returns its result scored over the whole run (score_detection's
  /// full-run form, so metrics_json is the run's registry).
  RunResult run_task(const TaskSpec& spec, const GroundTruth& truth);

  const std::map<TaskId, SimTask>& live() const { return live_; }
  const control::TaskRegistry& registry() const { return registry_; }
  /// Registry epochs consumed by churn, in application order.
  const std::vector<std::uint64_t>& epochs() const { return epochs_; }
  /// Totals through the last tick run.
  SimTotals totals() const;

 private:
  void apply(const TaskChurnEvent& event, Tick t, const Hooks& hooks);
  /// Monitor-ticks of outage across every monitor within [begin, end).
  std::int64_t outage_ticks(Tick begin, Tick end) const;
  SimTask make_task(const TaskChurnEvent& event, std::uint64_t epoch,
                    Tick t);

  RunOptions options_;
  std::vector<double> local_thresholds_;
  FaultModel* faults_{nullptr};
  Tick ticks_{0};
  Tick ticks_run_{0};

  std::vector<std::unique_ptr<SeriesSource>> sources_;
  control::TaskRegistry registry_;
  std::vector<std::uint64_t> epochs_;
  std::map<TaskId, SimTask> live_;
  SimTotals retired_;  // tasks that already left, outage ticks included
};

}  // namespace volley
