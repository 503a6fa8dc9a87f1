// Exact quantiles of a sample. `exact_quantile` sorts a snapshot; it sets
// task thresholds at the (100-k)-th percentile of a metric's values
// (Section V-A "Thresholds") and feeds the Figure 6 box-plot statistics.
#pragma once

#include <span>
#include <vector>

namespace volley {

/// Exact quantile of a sample by linear interpolation (type-7, the
/// numpy/R default). q in [0, 1]. The input span is copied, not mutated.
double exact_quantile(std::span<const double> values, double q);

/// Convenience: several quantiles with one sort.
std::vector<double> exact_quantiles(std::span<const double> values,
                                    std::span<const double> qs);

/// Five-number summary used by the Figure 6 box plots.
struct BoxStats {
  double min{0}, q1{0}, median{0}, q3{0}, max{0};
};
BoxStats box_stats(std::span<const double> values);

}  // namespace volley
