// Task specification (paper Section II): a distributed state monitoring task
// has a global threshold T over the sum of per-monitor values, an error
// allowance err relative to periodic sampling at the default interval Id,
// and optional knobs for the adaptation (gamma, p, Im).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/clock.h"
#include "core/adaptive_sampler.h"

namespace volley {

struct TaskSpec {
  double global_threshold{0.0};  // T over the aggregate state
  double error_allowance{0.01};  // err, task level
  double id_seconds{1.0};        // default sampling interval Id in seconds
  Tick max_interval{40};         // Im
  double slack_ratio{0.2};       // gamma
  int patience{20};              // p
  Tick updating_period{1000};    // coordinator reallocation period (in Id)
  ViolationLikelihoodEstimator::Options estimator{};

  bool operator==(const TaskSpec&) const = default;

  /// Sampler options for a monitor given its share of the allowance.
  [[nodiscard]] AdaptiveSamplerOptions sampler_options(
      double local_allowance) const {
    AdaptiveSamplerOptions o;
    o.error_allowance = local_allowance;
    o.slack_ratio = slack_ratio;
    o.patience = patience;
    o.max_interval = max_interval;
    o.estimator = estimator;
    return o;
  }

  void validate() const {
    if (error_allowance < 0.0 || error_allowance > 1.0)
      throw std::invalid_argument("TaskSpec: err in [0,1]");
    if (id_seconds <= 0.0)
      throw std::invalid_argument("TaskSpec: id_seconds > 0");
    if (max_interval < 1) throw std::invalid_argument("TaskSpec: Im >= 1");
    if (updating_period < 1)
      throw std::invalid_argument("TaskSpec: updating_period >= 1");
  }
};

/// Splits the global threshold into local thresholds summing to T
/// (Section II-A: as long as every v_i <= T_i, no global violation is
/// possible). `weights` need not be normalized; empty weights mean even.
inline std::vector<double> split_threshold(
    double global_threshold, std::size_t monitors,
    const std::vector<double>& weights = {}) {
  if (monitors == 0)
    throw std::invalid_argument("split_threshold: monitors > 0");
  std::vector<double> out(monitors);
  if (weights.empty()) {
    for (auto& t : out) t = global_threshold / static_cast<double>(monitors);
    return out;
  }
  if (weights.size() != monitors)
    throw std::invalid_argument("split_threshold: weights size mismatch");
  double sum = 0.0;
  for (double w : weights) {
    if (w <= 0.0)
      throw std::invalid_argument("split_threshold: weights must be > 0");
    sum += w;
  }
  for (std::size_t i = 0; i < monitors; ++i)
    out[i] = global_threshold * weights[i] / sum;
  return out;
}

}  // namespace volley
