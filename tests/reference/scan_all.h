// Scan-all reference for the coordinator's due index (DESIGN.md §10).
//
// Before the due index, Coordinator::run_tick visited every monitor in id
// order and stepped those whose due(t) held. The index must step exactly
// that set, in that order, on every tick — across global polls (which
// reschedule every monitor) and reallocation rounds. This header keeps the
// scan as an oracle instead of a runtime path:
//
//  * scan_due(c, t) is the scan itself: the ids a scanning run_tick would
//    step at tick t, in stepping order;
//  * RecordingSource logs which monitor samples its source, in call order;
//  * CheckedRun drives a Coordinator over recording sources and, tick by
//    tick, compares what it actually sampled with the oracle: first the
//    scheduled samples (exactly scan_due(t), ascending), then — if the tick
//    polled — one forced sample for every other monitor, ascending.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "core/error_allocation.h"
#include "core/metric_source.h"
#include "core/monitor.h"
#include "core/task.h"
#include "trace/trace.h"

namespace volley::reference {

/// Ids a scan-all run_tick would step at tick t, in the order it steps them.
inline std::vector<MonitorId> scan_due(const Coordinator& c, Tick t) {
  std::vector<MonitorId> due;
  for (std::size_t i = 0; i < c.monitor_count(); ++i) {
    if (c.monitor(i).due(t)) due.push_back(static_cast<MonitorId>(i));
  }
  return due;
}

/// Reads a series (borrowed: it must outlive the source, so a large fleet
/// can share a few series) and appends its monitor's id to a shared log on
/// every sampling call.
class RecordingSource final : public MetricSource {
 public:
  RecordingSource(MonitorId id, const TimeSeries& series,
                  std::vector<MonitorId>& log)
      : id_(id), series_(series), log_(log) {}

  double value_at(Tick t) const override {
    log_.push_back(id_);
    return series_.at(static_cast<std::size_t>(t));
  }
  Tick length() const override { return series_.ticks(); }

 private:
  MonitorId id_;
  const TimeSeries& series_;
  std::vector<MonitorId>& log_;
};

/// A Coordinator built the way sim/runner.cpp's run_volley builds one, over
/// recording sources, with the scan-all check applied on every tick. The
/// series are borrowed and must outlive the run.
class CheckedRun {
 public:
  CheckedRun(const TaskSpec& spec, std::span<const TimeSeries> series,
             std::span<const double> locals,
             std::unique_ptr<AllowanceAllocator> allocator)
      : CheckedRun(spec, pointers(series), locals, std::move(allocator)) {}

  /// Monitor i reads *series[i]; monitors may share a series.
  CheckedRun(const TaskSpec& spec,
             const std::vector<const TimeSeries*>& series,
             std::span<const double> locals,
             std::unique_ptr<AllowanceAllocator> allocator) {
    std::vector<std::unique_ptr<Monitor>> monitors;
    for (std::size_t i = 0; i < series.size(); ++i) {
      const auto id = static_cast<MonitorId>(i);
      sources_.push_back(
          std::make_unique<RecordingSource>(id, *series[i], log_));
      monitors.push_back(std::make_unique<Monitor>(
          id, *sources_.back(), spec.sampler_options(spec.error_allowance),
          locals[i]));
    }
    coordinator_ = std::make_unique<Coordinator>(spec, std::move(monitors),
                                                 std::move(allocator));
  }

  Coordinator& coordinator() { return *coordinator_; }

  /// run_tick(t) plus the oracle comparison.
  ::testing::AssertionResult tick(Tick t) {
    const std::vector<MonitorId> due = scan_due(*coordinator_, t);
    log_.clear();
    const auto result = coordinator_->run_tick(t);
    std::vector<MonitorId> expected = due;
    if (result.global_poll) {
      std::vector<bool> stepped(coordinator_->monitor_count(), false);
      for (const MonitorId id : due) stepped[id] = true;
      for (std::size_t i = 0; i < stepped.size(); ++i) {
        if (!stepped[i]) expected.push_back(static_cast<MonitorId>(i));
      }
    }
    if (log_ == expected && result.any_due == !due.empty())
      return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "tick " << t << ": scan-all expects " << ids(expected)
           << (result.global_poll ? " (scheduled, then polled)" : "")
           << ", coordinator sampled " << ids(log_);
  }

 private:
  static std::vector<const TimeSeries*> pointers(
      std::span<const TimeSeries> series) {
    std::vector<const TimeSeries*> out;
    for (const TimeSeries& s : series) out.push_back(&s);
    return out;
  }

  static std::string ids(const std::vector<MonitorId>& v) {
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < v.size(); ++i) out << (i ? " " : "") << v[i];
    out << "]";
    return out.str();
  }

  std::vector<MonitorId> log_;
  std::vector<std::unique_ptr<RecordingSource>> sources_;
  std::unique_ptr<Coordinator> coordinator_;
};

}  // namespace volley::reference
