// Experiment accounting: ground truth, detection bookkeeping, and the
// metrics every figure reports.
//
// Accuracy is always judged against the paper's reference: periodic
// sampling at the default interval Id (Section III-A). Ground truth is the
// set of ticks where the aggregate state exceeds the global threshold when
// the full trace is visible. An alert *episode* is a maximal run of
// consecutive alert ticks; the paper's mis-detection rate counts missed
// alerts, which we report both per-tick and per-episode.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "trace/trace.h"

namespace volley {

struct GroundTruth {
  std::vector<char> alert;  // per tick: aggregate > T
  std::int64_t alert_ticks{0};
  std::vector<std::pair<Tick, Tick>> episodes;  // [start, end) runs

  static GroundTruth from_series(const TimeSeries& aggregate,
                                 double threshold);
};

/// Everything one task run produces.
struct RunResult {
  Tick ticks{0};
  std::size_t monitors{0};

  // Cost side.
  std::int64_t scheduled_ops{0};
  std::int64_t forced_ops{0};
  double total_cost{0.0};  // abstract source-reported cost units

  // Accuracy side.
  std::int64_t true_alert_ticks{0};
  std::int64_t detected_alert_ticks{0};
  std::int64_t true_episodes{0};
  std::int64_t detected_episodes{0};

  // Protocol side.
  std::int64_t local_violations{0};
  std::int64_t global_polls{0};
  std::int64_t reallocations{0};

  // Optional details (filled when RunOptions request them).
  std::vector<std::vector<Tick>> op_ticks;   // per monitor
  std::vector<Tick> interval_trajectory;     // monitor 0's interval per op

  // Observability side: JSON snapshot of the *run-scoped* metrics registry
  // (obs/metrics.h) taken when the run finished. Each experiment driver
  // (sim/runner.h) executes under a private registry, so these counters
  // cover exactly this run — not a cumulative cross-run total — and are
  // identical whether the run executed serially or inside a parallel
  // sweep. The process-global registry still accumulates every run's
  // counters via registry merging.
  std::string metrics_json;

  std::int64_t total_ops() const { return scheduled_ops + forced_ops; }
  /// Reference cost: periodic sampling at Id on every monitor.
  std::int64_t periodic_ops() const {
    return ticks * static_cast<std::int64_t>(monitors);
  }
  /// The y-axis of Figures 5 and 8.
  double sampling_ratio() const {
    return periodic_ops() == 0
               ? 0.0
               : static_cast<double>(total_ops()) /
                     static_cast<double>(periodic_ops());
  }
  /// Fraction of ground-truth alert ticks missed.
  double tick_miss_rate() const {
    return true_alert_ticks == 0
               ? 0.0
               : 1.0 - static_cast<double>(detected_alert_ticks) /
                           static_cast<double>(true_alert_ticks);
  }
  /// Fraction of alert episodes in which no tick was detected (Figure 7's
  /// "actual mis-detection rate of alerts").
  double episode_miss_rate() const {
    return true_episodes == 0
               ? 0.0
               : 1.0 - static_cast<double>(detected_episodes) /
                           static_cast<double>(true_episodes);
  }
};

/// Ground truth per threshold over one aggregate series, computed on first
/// use (churned tasks commonly share thresholds).
class TruthCache {
 public:
  explicit TruthCache(TimeSeries aggregate)
      : aggregate_(std::move(aggregate)) {}
  const GroundTruth& at(double threshold);

 private:
  TimeSeries aggregate_;
  std::map<double, GroundTruth> truths_;
};

/// The scorer: fills the accuracy fields of `result` from per-tick
/// detection flags over the window [begin, end). Only truth ticks inside
/// the window count, and an episode counts when it overlaps the window
/// (detected when any overlap tick was detected). `on_missed`, when set,
/// is called with each counted episode's [start, end) that went
/// undetected.
void score_detection(RunResult& result, const GroundTruth& truth,
                     std::span<const char> detected, Tick begin, Tick end,
                     const std::function<void(Tick, Tick)>& on_missed = {});

/// Full-run scoring: the window is the whole run. Each missed episode bumps
/// volley_misdetected_episodes_total and records a kMisdetectWindow trace
/// event, and metrics_json snapshots the current (run-scoped) registry.
void score_detection(RunResult& result, const GroundTruth& truth,
                     std::span<const char> detected);

}  // namespace volley
