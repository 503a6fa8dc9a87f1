// A local monitor (paper Section II / IV): samples its metric source on the
// schedule chosen by the adaptive sampler, checks the local threshold, and
// keeps the bookkeeping the coordinator needs (sampling-operation counts and
// the averaged r_i / e_i coordination statistics of Section IV-B).
//
// Time is driven externally (by core::Coordinator in every sim run, or by
// the socket runtime): the owner calls `due(t)` / `step(t)` each tick. A
// *global poll* forces an out-of-schedule sample via `force_sample(t)`;
// forced samples feed the estimator too (they are real observations) and
// reschedule the next scheduled sample, so the poll's cost buys fresher
// statistics.
#pragma once

#include <cstdint>
#include <limits>

#include "core/adaptive_sampler.h"
#include "core/metric_source.h"
#include "core/types.h"
#include "stats/online_stats.h"

namespace volley {

class Monitor {
 public:
  struct Outcome {
    Sample sample;
    bool local_violation{false};
    SampleReason reason{SampleReason::kScheduled};
  };

  /// The source must outlive the monitor.
  Monitor(MonitorId id, const MetricSource& source,
          const AdaptiveSamplerOptions& options, double local_threshold);

  MonitorId id() const { return id_; }

  /// True when a scheduled sample is due at tick t.
  bool due(Tick t) const { return t >= next_sample_; }

  /// Performs the scheduled sampling operation at tick t (caller must have
  /// checked due(t)). Applies the adaptation rule and schedules the next
  /// sample.
  Outcome step(Tick t);

  /// Coordinator-forced sample (global poll). Counts as a sampling op —
  /// unless the monitor already sampled at tick t, in which case the cached
  /// value is returned at no extra cost (a real deployment reuses the datum
  /// it just collected instead of re-running the collection).
  Outcome force_sample(Tick t);

  double local_threshold() const { return sampler_.threshold(); }
  void set_local_threshold(double threshold) {
    sampler_.set_threshold(threshold);
  }

  double error_allowance() const { return sampler_.error_allowance(); }
  void set_error_allowance(double err) { sampler_.set_error_allowance(err); }

  Tick interval() const { return sampler_.interval(); }
  /// Value of the most recent sample (0 before the first): what a
  /// coordinator falls back to when the monitor cannot answer a poll.
  double last_value() const { return last_value_; }
  Tick next_sample_tick() const { return next_sample_; }
  const AdaptiveSampler& sampler() const { return sampler_; }

  /// Averaged coordination statistics accumulated since the last drain
  /// (one updating period). Resets the accumulators.
  CoordStats drain_coord_stats();

  // --- accounting -----------------------------------------------------
  std::int64_t scheduled_ops() const { return scheduled_ops_; }
  std::int64_t forced_ops() const { return forced_ops_; }
  std::int64_t total_ops() const { return scheduled_ops_ + forced_ops_; }
  std::int64_t local_violations() const { return local_violations_; }
  /// Sum of source-reported sampling costs over all operations.
  double total_cost() const { return total_cost_; }

 private:
  Outcome sample_at(Tick t, SampleReason reason);

  /// last_sample_tick_ before the first sample: below every tick, so
  /// `t <= last_sample_tick_` holds for no tick a monitor is driven at.
  static constexpr Tick kNeverSampled = std::numeric_limits<Tick>::min();

  MonitorId id_;
  bool last_was_violation_{false};
  const MetricSource& source_;
  AdaptiveSampler sampler_;
  Tick next_sample_{0};
  Tick last_sample_tick_{kNeverSampled};
  double last_value_{0.0};

  OnlineStats gain_acc_;       // r_i accumulator within the updating period
  OnlineStats allowance_acc_;  // e_i accumulator

  std::int64_t scheduled_ops_{0};
  std::int64_t forced_ops_{0};
  std::int64_t local_violations_{0};
  double total_cost_{0.0};
};

}  // namespace volley
