// Correlation analysis for the multi-task state-correlation layer.
//
// The paper (Section II-B) proposes sampling an expensive task only when a
// correlated cheap task suggests high violation likelihood, and asks "how to
// detect state correlation automatically?". The detection primitive we use
// is the lagged Pearson correlation between two aligned state-value series:
// corr(x[t], y[t+lag]) maximized over a small lag window, so a *leading*
// indicator (positive best-lag) can gate a follower task's sampling.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

namespace volley {

/// Pearson correlation coefficient of two equal-length series.
/// Returns nullopt when either series is constant (undefined correlation)
/// or when fewer than two points are given.
std::optional<double> pearson(std::span<const double> x,
                              std::span<const double> y);

/// Pearson correlation of x[t] against y[t + lag] (lag >= 0 means y is
/// shifted left: y leads by -lag / x leads by +lag). Overlap must keep at
/// least `min_overlap` points, else nullopt.
std::optional<double> lagged_pearson(std::span<const double> x,
                                     std::span<const double> y, int lag,
                                     std::size_t min_overlap = 8);

struct LagCorrelation {
  int lag{0};        // best lag in [-max_lag, +max_lag]
  double corr{0.0};  // correlation at the best lag
};

/// Scans lags in [-max_lag, max_lag] and returns the lag with the largest
/// |corr|. nullopt when no lag had enough overlap or variance.
std::optional<LagCorrelation> best_lag_correlation(
    std::span<const double> x, std::span<const double> y, int max_lag,
    std::size_t min_overlap = 8);

}  // namespace volley
