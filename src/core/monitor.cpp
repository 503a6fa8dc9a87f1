#include "core/monitor.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace_events.h"

namespace volley {

namespace {

/// The calling thread's cells (see obs/metrics.h): a bump is a relaxed
/// load and store, no lock and no read-modify-write.
struct MonitorMetrics {
  obs::CounterCell* scheduled;
  obs::CounterCell* forced;
  obs::CounterCell* violations;

  static MonitorMetrics make(obs::MetricsRegistry& m) {
    return MonitorMetrics{
        &m.counter("volley_monitor_scheduled_ops_total",
                   "Sampling operations on the monitor's own schedule")
             .cell(),
        &m.counter("volley_monitor_forced_ops_total",
                   "Sampling operations forced by coordinator global polls")
             .cell(),
        &m.counter("volley_monitor_local_violations_total",
                   "Samples that exceeded the monitor's local threshold T_i")
             .cell(),
    };
  }

  static const MonitorMetrics& get() { return obs::scoped_handles(&make); }
};

}  // namespace

Monitor::Monitor(MonitorId id, const MetricSource& source,
                 const AdaptiveSamplerOptions& options, double local_threshold)
    : id_(id), source_(source), sampler_(options, local_threshold) {}

Monitor::Outcome Monitor::sample_at(Tick t, SampleReason reason) {
  if (t <= last_sample_tick_) {
    if (t == last_sample_tick_ && reason == SampleReason::kGlobalPoll) {
      // The datum for this tick is already in hand; serve it for free.
      Outcome cached;
      cached.sample = Sample{t, last_value_};
      cached.local_violation = last_was_violation_;
      cached.reason = reason;
      return cached;
    }
    throw std::logic_error("Monitor: sampling must move forward in time");
  }
  const double value = source_.value_at(t);
  const Tick gap =
      last_sample_tick_ == kNeverSampled ? 1 : t - last_sample_tick_;
  const Tick interval = sampler_.observe(value, gap);

  last_sample_tick_ = t;
  next_sample_ = t + interval;

  gain_acc_.add(sampler_.cost_reduction_gain());
  allowance_acc_.add(sampler_.allowance_to_grow());
  total_cost_ += source_.sampling_cost(t);

  Outcome out;
  out.sample = Sample{t, value};
  out.local_violation = value > sampler_.threshold();
  out.reason = reason;
  last_value_ = value;
  last_was_violation_ = out.local_violation;
  const auto& om = MonitorMetrics::get();
  if (out.local_violation) {
    ++local_violations_;
    om.violations->inc();
  }
  if (reason == SampleReason::kScheduled) {
    ++scheduled_ops_;
    om.scheduled->inc();
  } else {
    ++forced_ops_;
    om.forced->inc();
  }
  if (obs::TraceSink* sink = obs::scoped_trace_sink()) {
    sink->record_pair(
        {.kind = obs::TraceKind::kSampleTaken,
         .tick = t,
         .monitor = id_,
         .value = value,
         .detail = reason == SampleReason::kScheduled ? 0.0 : 1.0},
        {.kind = obs::TraceKind::kIntervalChosen,
         .tick = t,
         .monitor = id_,
         .value = static_cast<double>(interval),
         .detail = sampler_.last_beta()});
  }
  return out;
}

Monitor::Outcome Monitor::step(Tick t) {
  if (!due(t)) throw std::logic_error("Monitor::step called when not due");
  return sample_at(t, SampleReason::kScheduled);
}

Monitor::Outcome Monitor::force_sample(Tick t) {
  return sample_at(t, SampleReason::kGlobalPoll);
}

CoordStats Monitor::drain_coord_stats() {
  CoordStats stats;
  stats.observations = gain_acc_.count();
  stats.avg_gain = gain_acc_.mean();
  stats.avg_allowance = allowance_acc_.mean();
  gain_acc_.reset();
  allowance_acc_.reset();
  return stats;
}

}  // namespace volley
