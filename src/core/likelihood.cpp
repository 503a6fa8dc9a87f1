#include "core/likelihood.h"

#include <cmath>
#include <stdexcept>

#include "core/likelihood_kernel.h"

namespace volley {

double chebyshev_step_bound(double value, double threshold,
                            const DeltaStats& stats, Tick i) {
  if (i < 1) throw std::invalid_argument("chebyshev_step_bound: i >= 1");
  const double di = static_cast<double>(i);
  const double margin = threshold - value - di * stats.mean;
  if (stats.stddev <= 0.0) {
    // Deterministic drift: violation happens iff the drift alone crosses T.
    return margin > 0.0 ? 0.0 : 1.0;
  }
  const double k = margin / (di * stats.stddev);
  if (k <= 0.0) return 1.0;  // Chebyshev gives no information for k <= 0
  return 1.0 / (1.0 + k * k);
}

double gaussian_step_bound(double value, double threshold,
                           const DeltaStats& stats, Tick i) {
  if (i < 1) throw std::invalid_argument("gaussian_step_bound: i >= 1");
  const double di = static_cast<double>(i);
  const double margin = threshold - value - di * stats.mean;
  if (stats.stddev <= 0.0) return margin > 0.0 ? 0.0 : 1.0;
  // P[v + i*delta > T] with i*delta ~ N(i*mu, (i*sigma)^2): the paper treats
  // consecutive steps via the same per-step variable, so we keep the same
  // i*sigma scaling as the Chebyshev form for a like-for-like ablation.
  const double z = margin / (di * stats.stddev);
  return 0.5 * std::erfc(z / std::sqrt(2.0));
}

ViolationLikelihoodEstimator::ViolationLikelihoodEstimator(
    const Options& options)
    : min_observations_(options.min_observations),
      bound_(options.bound),
      stats_(options.stats_window, options.stats_warmup) {
  if (options.min_observations < 1)
    throw std::invalid_argument(
        "ViolationLikelihoodEstimator: min_observations >= 1");
}

void ViolationLikelihoodEstimator::observe(double value, Tick gap) {
  if (gap < 1)
    throw std::invalid_argument("ViolationLikelihoodEstimator: gap >= 1");
  if (last_value_) {
    // x / 1.0 is x bit for bit, so the common gap of one skips the divide.
    const double change = value - *last_value_;
    stats_.add(gap == 1 ? change : change / static_cast<double>(gap));
  }
  last_value_ = value;
}

bool ViolationLikelihoodEstimator::has_statistics() const {
  return snapshot_stats().has_value();
}

std::optional<DeltaStats> ViolationLikelihoodEstimator::delta_stats() const {
  const auto snap = stats_.snapshot();
  if (!snap) return std::nullopt;
  return DeltaStats{snap->mean, snap->stddev};
}

std::optional<DeltaStats> ViolationLikelihoodEstimator::snapshot_stats()
    const {
  if (!last_value_ || stats_.total_count() < min_observations_)
    return std::nullopt;
  return delta_stats();
}

double ViolationLikelihoodEstimator::beta_bound(double threshold,
                                                Tick interval) const {
  if (interval < 1)
    throw std::invalid_argument("beta_bound: interval >= 1");
  const auto stats = snapshot_stats();
  if (!stats) return 1.0;
  const double v = *last_value_;
  if (bound_ == Bound::kGaussian) {
    return beta_bound_with(v, threshold, *stats, interval,
                           gaussian_step_bound);
  }
  return beta_bound_chebyshev(v, threshold, *stats, interval, &cache_);
}

double ViolationLikelihoodEstimator::violation_likelihood(double threshold,
                                                          Tick i) const {
  if (i < 1) throw std::invalid_argument("violation_likelihood: i >= 1");
  const auto stats = snapshot_stats();
  if (!stats) return 1.0;
  if (bound_ == Bound::kGaussian) {
    return gaussian_step_bound(*last_value_, threshold, *stats, i);
  }
  return chebyshev_step_bound(*last_value_, threshold, *stats, i);
}

void ViolationLikelihoodEstimator::reset() {
  stats_.reset();
  last_value_.reset();
  cache_.invalidate();
}

}  // namespace volley
