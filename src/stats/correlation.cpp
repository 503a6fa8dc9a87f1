#include "stats/correlation.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace volley {

std::optional<double> pearson(std::span<const double> x,
                              std::span<const double> y) {
  if (x.size() != y.size())
    throw std::invalid_argument("pearson: size mismatch");
  const std::size_t n = x.size();
  if (n < 2) return std::nullopt;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return std::nullopt;
  return sxy / std::sqrt(sxx * syy);
}

std::optional<double> lagged_pearson(std::span<const double> x,
                                     std::span<const double> y, int lag,
                                     std::size_t min_overlap) {
  if (x.size() != y.size())
    throw std::invalid_argument("lagged_pearson: size mismatch");
  const auto n = static_cast<std::ptrdiff_t>(x.size());
  const std::ptrdiff_t shift = lag;
  // Pair x[i] with y[i + shift]; valid i range keeps both in bounds.
  const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, -shift);
  const std::ptrdiff_t hi = std::min(n, n - shift);
  if (hi - lo < static_cast<std::ptrdiff_t>(min_overlap)) return std::nullopt;
  return pearson(x.subspan(static_cast<std::size_t>(lo),
                           static_cast<std::size_t>(hi - lo)),
                 y.subspan(static_cast<std::size_t>(lo + shift),
                           static_cast<std::size_t>(hi - lo)));
}

std::optional<LagCorrelation> best_lag_correlation(
    std::span<const double> x, std::span<const double> y, int max_lag,
    std::size_t min_overlap) {
  if (max_lag < 0)
    throw std::invalid_argument("best_lag_correlation: max_lag >= 0");
  std::optional<LagCorrelation> best;
  for (int lag = -max_lag; lag <= max_lag; ++lag) {
    auto c = lagged_pearson(x, y, lag, min_overlap);
    if (!c) continue;
    if (!best || std::abs(*c) > std::abs(best->corr)) {
      best = LagCorrelation{lag, *c};
    }
  }
  return best;
}

}  // namespace volley
