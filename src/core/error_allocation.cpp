#include "core/error_allocation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace_events.h"

namespace volley {

namespace {

struct AllocationMetrics {
  obs::CounterCell* uniform_skips;
  obs::CounterCell* floor_clamps;
  obs::CounterCell* reclaims;

  static AllocationMetrics make(obs::MetricsRegistry& m) {
    return AllocationMetrics{
        &m.counter("volley_allocation_uniform_skips_total",
                   "Reallocation rounds skipped because yields were within "
                   "the uniformity band")
             .cell(),
        &m.counter("volley_allocation_floor_clamps_total",
                   "Per-monitor assignments raised to the err/100 minimum")
             .cell(),
        &m.counter("volley_allowance_reclaims_total",
                   "Dead monitors' allowance redistributed to survivors")
             .cell(),
    };
  }

  static const AllocationMetrics& get() {
    return obs::scoped_handles(&make);
  }
};

/// The per-monitor floor fraction·err, unless n such floors do not fit in
/// err (more than 1/fraction monitors): then err/(2n), which keeps half the
/// budget floor-protected and lets the other half follow the yields.
double feasible_floor(double err, std::size_t n, double fraction) {
  const double floor_value = fraction * err;
  if (floor_value * static_cast<double>(n) > err)
    return err / (2.0 * static_cast<double>(n));
  return floor_value;
}

}  // namespace

std::vector<double> EvenAllocation::allocate(double err,
                                             std::span<const double> current,
                                             std::span<const CoordStats>) {
  if (current.empty())
    throw std::invalid_argument("EvenAllocation: no monitors");
  return std::vector<double>(current.size(),
                             err / static_cast<double>(current.size()));
}

AdaptiveAllocation::AdaptiveAllocation(const Options& options)
    : options_(options) {
  if (options.min_fraction < 0.0 || options.min_fraction > 1.0)
    throw std::invalid_argument("AdaptiveAllocation: min_fraction in [0,1]");
  if (options.min_fraction * 2.0 > 1.0)
    throw std::invalid_argument(
        "AdaptiveAllocation: min_fraction too large to satisfy for >=2 "
        "monitors");
  if (options.uniformity_band < 0.0)
    throw std::invalid_argument("AdaptiveAllocation: uniformity_band >= 0");
  if (options.smoothing <= 0.0 || options.smoothing > 1.0)
    throw std::invalid_argument("AdaptiveAllocation: smoothing in (0,1]");
}

std::vector<double> clamp_and_normalize(std::vector<double> alloc,
                                        double total, double floor_value) {
  const std::size_t n = alloc.size();
  if (n == 0) throw std::invalid_argument("clamp_and_normalize: empty");
  if (floor_value * static_cast<double>(n) > total) {
    throw std::invalid_argument(
        "clamp_and_normalize: floor infeasible for total");
  }
  // Raise entries below the floor; take the excess proportionally from the
  // mass above the floor. Iterate because lowering can push entries below.
  std::int64_t clamped = 0;
  for (double a : alloc) {
    if (a < floor_value) ++clamped;
  }
  if (clamped > 0) AllocationMetrics::get().floor_clamps->inc(clamped);
  for (int pass = 0; pass < 64; ++pass) {
    double deficit = 0.0;
    double above = 0.0;
    for (double a : alloc) {
      if (a < floor_value) {
        deficit += floor_value - a;
      } else {
        above += a - floor_value;
      }
    }
    if (deficit <= 0.0 || above <= 0.0) break;
    const double scale = (above - deficit) / above;
    for (double& a : alloc) {
      if (a < floor_value) {
        a = floor_value;
      } else {
        a = floor_value + (a - floor_value) * scale;
      }
    }
  }
  // Final renormalization to absorb floating-point drift.
  rescale_split(alloc, total);
  return alloc;
}

AllowanceRoundMetrics AllowanceRoundMetrics::coordinator(
    obs::MetricsRegistry& m) {
  return AllowanceRoundMetrics{
      &m.counter("volley_coordinator_reallocations_total",
                 "Error-allowance reallocation rounds (once per updating "
                 "period)")
           .cell(),
      &m.histogram("volley_coordinator_allowance_share", 0.0, 1.0, 20,
                   "Per-monitor share err_i/err assigned at each "
                   "reallocation")
           .cell(),
      true,
  };
}

void rescale_split(std::span<double> split, double budget,
                   std::span<const double> weights, double total_weight) {
  double sum = 0.0;
  for (double a : split) sum += a;
  if (sum > 0.0) {
    for (double& a : split) a *= budget / sum;
  } else if (weights.empty()) {
    for (double& a : split) a = budget / static_cast<double>(split.size());
  } else {
    for (std::size_t i = 0; i < split.size(); ++i)
      split[i] = budget * weights[i] / total_weight;
  }
}

std::vector<double> redistribute_allowance(
    double err, std::span<const double> current,
    std::span<const std::size_t> excluded) {
  const std::size_t n = current.size();
  if (n == 0) throw std::invalid_argument("redistribute_allowance: empty");
  std::vector<bool> dead(n, false);
  for (std::size_t i : excluded) {
    if (i >= n)
      throw std::invalid_argument("redistribute_allowance: bad index");
    dead[i] = true;
  }
  std::vector<double> out(current.begin(), current.end());
  std::vector<double> alive;
  alive.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i]) {
      out[i] = 0.0;
    } else {
      alive.push_back(out[i]);
    }
  }
  if (alive.empty()) return out;
  AllocationMetrics::get().reclaims->inc();
  obs::trace().record(obs::TraceKind::kAllowanceReclaimed, 0, 0,
                      static_cast<double>(alive.size()),
                      static_cast<double>(excluded.size()));
  rescale_split(alive, err);  // all-zero survivors: an even split
  const double floor_value = feasible_floor(err, alive.size(), 0.01);
  alive = clamp_and_normalize(std::move(alive), err, floor_value);
  std::size_t j = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!dead[i]) out[i] = alive[j++];
  }
  return out;
}

std::vector<double> AdaptiveAllocation::allocate(
    double err, std::span<const double> current,
    std::span<const CoordStats> stats) {
  if (current.size() != stats.size())
    throw std::invalid_argument("AdaptiveAllocation: size mismatch");
  const std::size_t n = current.size();
  if (n == 0) throw std::invalid_argument("AdaptiveAllocation: no monitors");
  if (n == 1) return {err};

  std::vector<double> yields(n, 0.0);
  double max_y = 0.0;
  double min_y = std::numeric_limits<double>::infinity();
  bool any_positive = false;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = std::max(stats[i].avg_allowance,
                              options_.epsilon_allowance);
    const double y = stats[i].avg_gain > 0.0 ? stats[i].avg_gain / e : 0.0;
    yields[i] = y;
    max_y = std::max(max_y, y);
    min_y = std::min(min_y, y);
    if (y > 0.0) any_positive = true;
  }

  std::vector<double> out(current.begin(), current.end());
  if (!any_positive) return out;  // nothing can grow; keep the allocation

  // Uniformity throttle (the paper's "max{y_i/y_j} < 0.1" read as a
  // near-uniformity test, see the header): when the largest pairwise yield
  // ratio is under 1 + band, reallocation would only churn — keep the
  // current assignment. min_y == 0 (a monitor that cannot grow) never
  // skips: its allowance should move to monitors that can use it.
  if (min_y > 0.0 && max_y / min_y - 1.0 < options_.uniformity_band) {
    AllocationMetrics::get().uniform_skips->inc();
    return out;
  }

  const double sum_y = std::accumulate(yields.begin(), yields.end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double target = err * yields[i] / sum_y;
    out[i] += options_.smoothing * (target - out[i]);
  }
  return clamp_and_normalize(std::move(out), err,
                             feasible_floor(err, n, options_.min_fraction));
}

}  // namespace volley
