#include "stats/quantile.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace volley {

namespace {
double quantile_of_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty())
    throw std::invalid_argument("exact_quantile: empty sample");
  if (q < 0.0 || q > 1.0)
    throw std::invalid_argument("exact_quantile: q must be in [0,1]");
  const double h = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = static_cast<std::size_t>(std::ceil(h));
  const double frac = h - std::floor(h);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}
}  // namespace

double exact_quantile(std::span<const double> values, double q) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return quantile_of_sorted(sorted, q);
}

std::vector<double> exact_quantiles(std::span<const double> values,
                                    std::span<const double> qs) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) out.push_back(quantile_of_sorted(sorted, q));
  return out;
}

BoxStats box_stats(std::span<const double> values) {
  const double qs[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  auto v = exact_quantiles(values, qs);
  return BoxStats{v[0], v[1], v[2], v[3], v[4]};
}

}  // namespace volley
