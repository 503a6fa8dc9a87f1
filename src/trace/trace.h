// Time-series containers shared by the trace generators and the experiment
// drivers.
//
// A TimeSeries holds one monitored value per tick (one tick = one default
// sampling interval of the task that will consume it). SeriesSource adapts a
// TimeSeries to the core MetricSource interface, optionally with a parallel
// per-tick cost series (packets to inspect, log lines to parse, ...).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/clock.h"
#include "core/metric_source.h"

namespace volley {

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::vector<double> values)
      : values_(std::move(values)) {}
  explicit TimeSeries(std::size_t n, double fill = 0.0) : values_(n, fill) {}

  double& operator[](std::size_t i) { return values_[i]; }
  double operator[](std::size_t i) const { return values_[i]; }
  double at(std::size_t i) const { return values_.at(i); }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  Tick ticks() const { return static_cast<Tick>(values_.size()); }

  std::span<const double> values() const { return values_; }

  void push_back(double v) { values_.push_back(v); }

  /// Element-wise sum of several series (the aggregate/global state of a
  /// distributed task). All series must share a length.
  static TimeSeries sum(std::span<const TimeSeries> series);

  /// Threshold for an alert-selectivity of k percent: the (100-k)-th
  /// percentile of the series values (paper Section V-A "Thresholds").
  double threshold_for_selectivity(double k_percent) const;

  double min() const;
  double max() const;
  double mean() const;

 private:
  std::vector<double> values_;
};

/// MetricSource over a TimeSeries (values owned by the source).
class SeriesSource final : public MetricSource {
 public:
  explicit SeriesSource(TimeSeries series) : series_(std::move(series)) {}
  SeriesSource(TimeSeries series, TimeSeries cost)
      : series_(std::move(series)), cost_(std::move(cost)) {
    if (!cost_.empty() && cost_.size() != series_.size())
      throw std::invalid_argument("SeriesSource: cost length mismatch");
  }

  double value_at(Tick t) const override {
    return series_.at(static_cast<std::size_t>(t));
  }
  Tick length() const override { return series_.ticks(); }
  double sampling_cost(Tick t) const override {
    if (cost_.empty()) return 1.0;
    return cost_.at(static_cast<std::size_t>(t));
  }

  const TimeSeries& series() const { return series_; }

 private:
  TimeSeries series_;
  TimeSeries cost_;
};

}  // namespace volley
