#include "core/threshold_split.h"

#include <algorithm>
#include <stdexcept>

namespace volley {

std::vector<double> split_by_spread(double global_threshold,
                                    std::span<const TimeSeries> series,
                                    double lo_percentile,
                                    double hi_percentile) {
  if (series.empty()) throw std::invalid_argument("split_by_spread: empty");
  if (!(lo_percentile < hi_percentile) || lo_percentile < 0.0 ||
      hi_percentile > 100.0) {
    throw std::invalid_argument(
        "split_by_spread: need 0 <= lo < hi <= 100");
  }
  std::vector<double> weights;
  weights.reserve(series.size());
  for (const auto& s : series) {
    // threshold_for_selectivity(k) is the (100-k)-th percentile, so the
    // spread between the hi and lo percentiles is:
    const double hi = s.threshold_for_selectivity(100.0 - hi_percentile);
    const double lo = s.threshold_for_selectivity(100.0 - lo_percentile);
    weights.push_back(std::max(hi - lo, 1e-6));
  }
  return split_threshold(global_threshold, series.size(), weights);
}

}  // namespace volley
