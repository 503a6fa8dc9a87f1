#include "sim/runner.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "sim/run_registry.h"

namespace volley {

RunResult run_volley(const TaskSpec& spec,
                     std::span<const TimeSeries> monitor_series,
                     std::span<const double> local_thresholds,
                     const RunOptions& options) {
  if (monitor_series.empty())
    throw std::invalid_argument("run_volley: no monitors");
  const TimeSeries aggregate = TimeSeries::sum(monitor_series);
  const GroundTruth truth =
      GroundTruth::from_series(aggregate, spec.global_threshold);
  return run_volley(spec, monitor_series, local_thresholds, truth, options);
}

RunResult run_volley(const TaskSpec& spec,
                     std::span<const TimeSeries> monitor_series,
                     std::span<const double> local_thresholds,
                     const GroundTruth& truth, const RunOptions& options) {
  spec.validate();
  if (monitor_series.size() != local_thresholds.size())
    throw std::invalid_argument("run_volley: thresholds size mismatch");
  SimDriver driver(monitor_series, options, local_thresholds);
  return driver.run_task(spec, truth);
}

RunResult run_volley_single(const TaskSpec& spec, const TimeSeries& series,
                            const RunOptions& options) {
  const double threshold[] = {spec.global_threshold};
  return run_volley(spec, std::span<const TimeSeries>(&series, 1), threshold,
                    options);
}

RunResult run_volley_single(const TaskSpec& spec, const TimeSeries& series,
                            const GroundTruth& truth,
                            const RunOptions& options) {
  const double threshold[] = {spec.global_threshold};
  return run_volley(spec, std::span<const TimeSeries>(&series, 1), threshold,
                    truth, options);
}

RunResult run_periodic(std::span<const TimeSeries> monitor_series,
                       double global_threshold, Tick interval) {
  if (monitor_series.empty())
    throw std::invalid_argument("run_periodic: no monitors");
  if (interval < 1) throw std::invalid_argument("run_periodic: interval >= 1");
  const Tick ticks = monitor_series.front().ticks();
  for (const auto& s : monitor_series) {
    if (s.ticks() != ticks)
      throw std::invalid_argument("run_periodic: series length mismatch");
  }

  return with_run_registry([&]() {
    RunResult result;
    result.ticks = ticks;
    result.monitors = monitor_series.size();
    std::vector<char> detected(static_cast<std::size_t>(ticks), 0);
    const TimeSeries aggregate = TimeSeries::sum(monitor_series);
    for (Tick t = 0; t < ticks; t += interval) {
      result.scheduled_ops += static_cast<std::int64_t>(monitor_series.size());
      result.total_cost += static_cast<double>(monitor_series.size());
      const auto i = static_cast<std::size_t>(t);
      if (aggregate[i] > global_threshold) {
        detected[i] = 1;
        ++result.global_polls;
      }
    }
    const GroundTruth truth =
        GroundTruth::from_series(aggregate, global_threshold);
    score_detection(result, truth, detected);
    return result;
  });
}

std::int64_t CorrelatedGroupResult::total_ops() const {
  std::int64_t ops = 0;
  for (const auto& r : per_task) ops += r.total_ops();
  return ops;
}

double CorrelatedGroupResult::total_weighted_cost(
    std::span<const CorrelatedTask> tasks) const {
  if (tasks.size() != per_task.size())
    throw std::invalid_argument("total_weighted_cost: size mismatch");
  double cost = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    cost += static_cast<double>(per_task[i].total_ops()) *
            tasks[i].cost_per_sample;
  }
  return cost;
}

CorrelatedGroupResult run_correlated_group(
    std::span<const CorrelatedTask> tasks,
    const CorrelationScheduler::Options& scheduler_options,
    bool enable_gating) {
  if (tasks.empty())
    throw std::invalid_argument("run_correlated_group: no tasks");
  const Tick ticks = tasks.front().series.ticks();
  for (const auto& task : tasks) {
    task.spec.validate();
    if (task.series.ticks() != ticks)
      throw std::invalid_argument(
          "run_correlated_group: series length mismatch");
  }

  // One registry scope for the whole group: each per-task RunResult's
  // metrics_json snapshots the group's registry (the tasks interleave on
  // one tick loop, so a finer scope would misattribute shared work).
  return with_run_registry([&]() {
  CorrelationScheduler scheduler(scheduler_options);
  std::vector<std::unique_ptr<SeriesSource>> sources;
  std::vector<std::unique_ptr<Monitor>> monitors;
  std::vector<Tick> last_op(tasks.size(), -1);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    scheduler.add_task(tasks[i].spec.global_threshold,
                       tasks[i].cost_per_sample);
    sources.push_back(std::make_unique<SeriesSource>(tasks[i].series));
    monitors.push_back(std::make_unique<Monitor>(
        static_cast<MonitorId>(i), *sources[i],
        tasks[i].spec.sampler_options(tasks[i].spec.error_allowance),
        tasks[i].spec.global_threshold));
  }

  std::vector<std::vector<char>> detected(
      tasks.size(), std::vector<char>(static_cast<std::size_t>(ticks), 0));

  for (Tick t = 0; t < ticks; ++t) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      Monitor& m = *monitors[i];
      if (!m.due(t)) continue;
      // A suppressed follower rests at the task's maximum interval: its due
      // samples are skipped until rest ticks have passed since the last op.
      if (enable_gating && scheduler.suppressed(i) && last_op[i] >= 0 &&
          t - last_op[i] < tasks[i].spec.max_interval) {
        continue;
      }
      const auto outcome = m.step(t);
      last_op[i] = t;
      scheduler.observe(i, outcome.sample.value);
      if (outcome.local_violation)
        detected[i][static_cast<std::size_t>(t)] = 1;
    }
    scheduler.end_tick();
  }

  CorrelatedGroupResult result;
  result.final_plan = scheduler.plan();
  result.per_task.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    RunResult& r = result.per_task[i];
    r.ticks = ticks;
    r.monitors = 1;
    r.scheduled_ops = monitors[i]->scheduled_ops();
    r.forced_ops = monitors[i]->forced_ops();
    r.total_cost = monitors[i]->total_cost();
    r.local_violations = monitors[i]->local_violations();
    const GroundTruth truth = GroundTruth::from_series(
        tasks[i].series, tasks[i].spec.global_threshold);
    score_detection(r, truth, detected[i]);
  }
  return result;
  });
}

std::int64_t DynamicRunResult::total_ops() const {
  std::int64_t ops = 0;
  for (const auto& task : tasks) ops += task.result.total_ops();
  return ops;
}

std::vector<TaskChurnEvent> make_churn_schedule(
    const ChurnScheduleOptions& options) {
  if (options.ticks < 1)
    throw std::invalid_argument("make_churn_schedule: ticks >= 1");
  if (options.arrivals < 0)
    throw std::invalid_argument("make_churn_schedule: arrivals >= 0");
  if (options.hold_min < 1 || options.hold_max < options.hold_min)
    throw std::invalid_argument(
        "make_churn_schedule: 1 <= hold_min <= hold_max");
  options.spec.validate();

  Rng rng(options.seed);
  std::vector<TaskChurnEvent> events;
  events.reserve(static_cast<std::size_t>(options.arrivals) * 2);
  for (int i = 0; i < options.arrivals; ++i) {
    const auto task = static_cast<TaskId>(options.first_task +
                                          static_cast<TaskId>(i));
    // Fixed draw order per instance (arrive, then hold): inserting or
    // removing instances never shifts another instance's draws.
    const Tick arrive =
        static_cast<Tick>(rng.uniform_int(0, options.ticks - 1));
    const Tick hold = static_cast<Tick>(
        rng.uniform_int(options.hold_min, options.hold_max));
    events.push_back(
        {TaskChurnEvent::Kind::kArrive, arrive, task, options.spec});
    const Tick depart = arrive + hold;
    if (depart < options.ticks)
      events.push_back({TaskChurnEvent::Kind::kDepart, depart, task, {}});
  }
  return canonical_churn_order(std::move(events));
}

DynamicRunResult run_dynamic_tasks(std::span<const TimeSeries> monitor_series,
                                   std::span<const TaskChurnEvent> events,
                                   AllocatorKind allocator) {
  RunOptions options;
  options.allocator = allocator;
  SimDriver driver(monitor_series, options);
  TruthCache truths(TimeSeries::sum(monitor_series));
  DynamicRunResult run;
  SimDriver::Hooks hooks;
  hooks.on_retire = [&](const SimTask& task, Tick end) {
    DynamicTaskResult out{task.id(), task.epoch(), task.arrived(), end,
                          task.result(end)};
    score_detection(out.result, truths.at(task.spec().global_threshold),
                    task.detected(), task.arrived(), end);
    run.tasks.push_back(std::move(out));
  };
  driver.run(events, hooks);
  // Every arrival retires exactly once (departure or run end); every other
  // epoch was a departure.
  run.arrivals = static_cast<std::int64_t>(run.tasks.size());
  run.departures =
      static_cast<std::int64_t>(driver.epochs().size()) - run.arrivals;
  run.registry_version = driver.registry().version();
  return run;
}

}  // namespace volley
