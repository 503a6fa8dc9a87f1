#include "sim/driver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/error_allocation.h"
#include "sim/run_registry.h"

namespace volley {

shard::ShardedCoordinator::AllocatorFactory make_allocator_factory(
    AllocatorKind kind) {
  return [kind](std::size_t) -> std::unique_ptr<AllowanceAllocator> {
    switch (kind) {
      case AllocatorKind::kNone:
        return nullptr;
      case AllocatorKind::kEven:
        return std::make_unique<EvenAllocation>();
      case AllocatorKind::kAdaptive:
        return std::make_unique<AdaptiveAllocation>();
    }
    throw std::invalid_argument("make_allocator_factory: unknown kind");
  };
}

std::vector<TaskChurnEvent> canonical_churn_order(
    std::vector<TaskChurnEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const TaskChurnEvent& a, const TaskChurnEvent& b) {
              if (a.tick != b.tick) return a.tick < b.tick;
              const bool a_depart = a.kind == TaskChurnEvent::Kind::kDepart;
              const bool b_depart = b.kind == TaskChurnEvent::Kind::kDepart;
              if (a_depart != b_depart) return a_depart;
              return a.task < b.task;
            });
  return events;
}

// --- SimTask ----------------------------------------------------------------

void SimTask::run_tick(Tick t, const RunOptions& options) {
  const auto tick = coordinator_->run_tick(t);
  if (tick.global_violation) detected_[static_cast<std::size_t>(t)] = 1;
  local_violations_ += tick.local_violations;
  if (!options.record_ops && !options.record_intervals) return;
  for (std::size_t i = 0; i < prev_ops_.size(); ++i) {
    const std::int64_t ops = monitor(i).total_ops();
    if (ops == prev_ops_[i]) continue;
    prev_ops_[i] = ops;
    if (options.record_ops) op_ticks_[i].push_back(t);
    if (options.record_intervals && i == 0)
      interval_trajectory_.push_back(monitor(0).interval());
  }
}

RunResult SimTask::result(Tick end) const {
  RunResult r;
  r.ticks = end - arrived_;
  r.local_violations = local_violations_;
  r.op_ticks = op_ticks_;
  r.interval_trajectory = interval_trajectory_;
  r.monitors = monitor_count();
  for (std::size_t i = 0; i < monitor_count(); ++i) {
    r.scheduled_ops += monitor(i).scheduled_ops();
    r.forced_ops += monitor(i).forced_ops();
  }
  r.total_cost = coordinator_->total_cost();
  r.global_polls = coordinator_->global_polls();
  r.reallocations = coordinator_->reallocations();
  return r;
}

void SimTask::add_to(SimTotals& totals) const {
  totals.local_violations += local_violations_;
  totals.ops += coordinator_->total_ops();
  totals.global_polls += coordinator_->global_polls();
  totals.reallocations += coordinator_->reallocations();
  totals.alerts += coordinator_->global_violations();
}

// --- SimDriver --------------------------------------------------------------

SimDriver::SimDriver(std::span<const TimeSeries> series,
                     const RunOptions& options,
                     std::span<const double> local_thresholds,
                     FaultModel* faults)
    : options_(options),
      local_thresholds_(local_thresholds.begin(), local_thresholds.end()),
      faults_(faults) {
  if (series.empty()) throw std::invalid_argument("SimDriver: no monitors");
  ticks_ = series.front().ticks();
  for (const auto& s : series) {
    if (s.ticks() != ticks_)
      throw std::invalid_argument("SimDriver: series length mismatch");
  }
  if (!local_thresholds_.empty() && local_thresholds_.size() != series.size())
    throw std::invalid_argument("SimDriver: thresholds size mismatch");
  sources_.reserve(series.size());
  for (const auto& s : series)
    sources_.push_back(std::make_unique<SeriesSource>(s));
}

SimTask SimDriver::make_task(const TaskChurnEvent& event,
                             std::uint64_t epoch, Tick t) {
  const TaskSpec& spec = event.spec;
  const std::size_t n = sources_.size();
  std::vector<double> thresholds = local_thresholds_;
  if (thresholds.empty()) {
    thresholds = split_threshold(spec.global_threshold, n);
  } else {
    double sum = 0.0;
    for (const double threshold : thresholds) sum += threshold;
    const double scale =
        std::max({std::abs(sum), std::abs(spec.global_threshold), 1.0});
    if (std::abs(sum - spec.global_threshold) > 1e-6 * scale)
      throw std::invalid_argument(
          "SimDriver: local thresholds must sum to the global threshold");
  }
  std::vector<std::unique_ptr<Monitor>> monitors;
  monitors.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // The per-monitor allowance is overwritten by the coordinator's
    // initial even split; pass the task-level value as a placeholder.
    monitors.push_back(std::make_unique<Monitor>(
        static_cast<MonitorId>(i), *sources_[i],
        spec.sampler_options(spec.error_allowance), thresholds[i]));
  }

  SimTask task;
  task.id_ = event.task;
  task.epoch_ = epoch;
  task.arrived_ = t;
  task.coordinator_ = std::make_unique<shard::ShardedCoordinator>(
      spec, std::move(monitors), options_.shards,
      make_allocator_factory(options_.allocator), faults_, t);
  task.detected_.assign(static_cast<std::size_t>(ticks_), 0);
  if (options_.record_ops || options_.record_intervals)
    task.prev_ops_.assign(n, 0);
  if (options_.record_ops) task.op_ticks_.resize(n);
  return task;
}

void SimDriver::apply(const TaskChurnEvent& event, Tick t,
                      const Hooks& hooks) {
  if (event.kind == TaskChurnEvent::Kind::kArrive) {
    const auto added = registry_.add(event.task, event.spec);
    if (!added.ok())
      throw std::invalid_argument("SimDriver: arrive of task " +
                                  std::to_string(event.task) + ": " +
                                  added.error);
    epochs_.push_back(added.epoch);
    live_.emplace(event.task, make_task(event, added.epoch, t));
    return;
  }
  const auto it = live_.find(event.task);
  if (it == live_.end())
    throw std::invalid_argument("SimDriver: depart of unknown task " +
                                std::to_string(event.task));
  const auto removed = registry_.remove(event.task);
  if (!removed.ok())
    throw std::invalid_argument("SimDriver: depart: " + removed.error);
  epochs_.push_back(removed.epoch);
  const SimTask& task = it->second;
  if (hooks.on_retire) hooks.on_retire(task, t);
  task.add_to(retired_);
  retired_.outage_monitor_ticks += outage_ticks(task.arrived_, t);
  live_.erase(it);
}

std::int64_t SimDriver::outage_ticks(Tick begin, Tick end) const {
  if (!faults_) return 0;
  std::int64_t ticks = 0;
  for (std::size_t i = 0; i < sources_.size(); ++i)
    ticks += faults_->outage_ticks(i, begin, end);
  return ticks;
}

SimTotals SimDriver::totals() const {
  SimTotals out = retired_;
  for (const auto& [id, task] : live_) {
    task.add_to(out);
    out.outage_monitor_ticks += outage_ticks(task.arrived_, ticks_run_);
  }
  if (faults_) {
    out.lost_reports = faults_->lost_reports();
    out.lost_responses = faults_->lost_responses();
    out.stale_polls = faults_->stale_polls();
  }
  return out;
}

SimTotals SimDriver::run(std::span<const TaskChurnEvent> raw_events,
                         const Hooks& hooks) {
  // Canonicalize so the run — registry epochs included — is a function of
  // the event set alone, independent of producer ordering.
  const std::vector<TaskChurnEvent> events = canonical_churn_order(
      std::vector<TaskChurnEvent>(raw_events.begin(), raw_events.end()));

  return with_run_registry([&] {
    std::size_t next_event = 0;
    for (Tick t = 0; t < ticks_; ++t) {
      while (next_event < events.size() && events[next_event].tick <= t)
        apply(events[next_event++], t, hooks);
      for (auto& [id, task] : live_) task.run_tick(t, options_);
      ticks_run_ = t + 1;
      if (hooks.after_tick) hooks.after_tick(t);
    }
    if (hooks.on_retire) {
      for (const auto& [id, task] : live_) hooks.on_retire(task, ticks_);
    }
    return totals();
  });
}

RunResult SimDriver::run_task(const TaskSpec& spec, const GroundTruth& truth) {
  const TaskChurnEvent boot{TaskChurnEvent::Kind::kArrive, 0, 0, spec};
  RunResult result;
  Hooks hooks;
  hooks.on_retire = [&](const SimTask& task, Tick end) {
    result = task.result(end);
    score_detection(result, truth, task.detected());
  };
  run(std::span<const TaskChurnEvent>(&boot, 1), hooks);
  return result;
}

}  // namespace volley
