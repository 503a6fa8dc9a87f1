// Property-based (parameterized) suites over the core invariants:
//  * soundness of the Chebyshev beta bound across a parameter grid,
//  * accuracy: achieved episode miss rate tracks the error allowance,
//  * cost monotonicity in err, and the never-worse-than-periodic bound,
//  * allocation invariants (sum preservation, floor) under random stats.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "core/error_allocation.h"
#include "core/likelihood.h"
#include "sim/runner.h"

namespace volley {
namespace {

// ---------------------------------------------------------------------
// Chebyshev bound soundness across (mu, sigma, margin, interval).
using BoundParams = std::tuple<double, double, double, int>;

class BetaBoundSoundness : public ::testing::TestWithParam<BoundParams> {};

TEST_P(BetaBoundSoundness, UpperBoundsMonteCarloRate) {
  const auto [mu, sigma, margin, interval] = GetParam();
  const double threshold = 10.0;
  const double v0 = threshold - margin;
  const DeltaStats stats{mu, sigma};
  const double bound =
      beta_bound_with(v0, threshold, stats, interval, chebyshev_step_bound);

  Rng rng(977);
  const int trials = 8000;
  int violations = 0;
  for (int trial = 0; trial < trials; ++trial) {
    double x = v0;
    for (int i = 0; i < interval; ++i) {
      x += rng.normal(mu, sigma);
      if (x > threshold) {
        ++violations;
        break;
      }
    }
  }
  const double rate = static_cast<double>(violations) / trials;
  EXPECT_GE(bound + 0.015, rate)
      << "mu=" << mu << " sigma=" << sigma << " margin=" << margin
      << " I=" << interval;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BetaBoundSoundness,
    ::testing::Combine(::testing::Values(-0.2, 0.0, 0.3),   // mu
                       ::testing::Values(0.5, 1.0, 2.0),    // sigma
                       ::testing::Values(2.0, 5.0, 10.0),   // margin
                       ::testing::Values(1, 3, 8)));        // interval

// ---------------------------------------------------------------------
// Achieved accuracy vs err on a synthetic workload with rare violations.
class AccuracyTracksAllowance : public ::testing::TestWithParam<double> {};

TEST_P(AccuracyTracksAllowance, TickMissRateNearOrBelowErr) {
  const double err = GetParam();
  // Random-walk-ish series with threshold at the 99th percentile; run long
  // enough that a handful of episodes exist.
  Rng rng(1234);
  const Tick ticks = 40000;
  TimeSeries s(static_cast<std::size_t>(ticks));
  double x = 0.0;
  for (Tick t = 0; t < ticks; ++t) {
    x = 0.95 * x + rng.normal(0.0, 0.25);
    s[static_cast<std::size_t>(t)] = x;
  }
  TaskSpec spec;
  spec.global_threshold = s.threshold_for_selectivity(1.0);
  spec.error_allowance = err;
  spec.max_interval = 40;
  const auto r = run_volley_single(spec, s);
  ASSERT_GT(r.true_alert_ticks, 0);
  // Chebyshev conservatism: the per-tick miss rate should sit near or below
  // err; allow modest slack because the bound's independence assumption is
  // approximate on an autocorrelated walk.
  EXPECT_LE(r.tick_miss_rate(), std::max(2.5 * err, 0.02))
      << "err=" << err << " ratio=" << r.sampling_ratio();
}

INSTANTIATE_TEST_SUITE_P(Allowances, AccuracyTracksAllowance,
                         ::testing::Values(0.002, 0.004, 0.008, 0.016,
                                           0.032));

// ---------------------------------------------------------------------
// Cost monotonicity: on one workload, larger err never costs (much) more,
// and Volley never exceeds the periodic reference by more than the global
// polls it owes to detection.
class CostMonotoneInErr
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(CostMonotoneInErr, RatioWithinBoundsAndMonotone) {
  const auto [seed, selectivity] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const Tick ticks = 20000;
  TimeSeries s(static_cast<std::size_t>(ticks));
  double x = 0.0;
  for (Tick t = 0; t < ticks; ++t) {
    x = 0.9 * x + rng.normal(0.0, 0.3);
    s[static_cast<std::size_t>(t)] = x;
  }
  TaskSpec spec;
  spec.global_threshold = s.threshold_for_selectivity(selectivity);
  spec.max_interval = 40;

  double prev_ratio = 1e18;
  for (double err : {0.002, 0.008, 0.032}) {
    spec.error_allowance = err;
    const auto r = run_volley_single(spec, s);
    // Sampling never exceeds periodic-at-Id except for poll bookkeeping.
    EXPECT_LE(r.sampling_ratio(), 1.0 + 1e-9);
    EXPECT_LE(r.sampling_ratio(), prev_ratio + 0.03)
        << "err=" << err;
    prev_ratio = r.sampling_ratio();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CostMonotoneInErr,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.5, 2.0, 8.0)));

// ---------------------------------------------------------------------
// Allocation invariants under randomized coordination statistics.
class AllocationInvariants : public ::testing::TestWithParam<int> {};

TEST_P(AllocationInvariants, SumAndFloorPreserved) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 8));
  const double err = rng.uniform(0.001, 0.1);
  std::vector<double> current(n, err / static_cast<double>(n));
  std::vector<CoordStats> stats(n);
  for (auto& s : stats) {
    s.avg_gain = rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.0, 0.5);
    s.avg_allowance = rng.uniform(0.0, 0.05);
    s.observations = 10;
  }
  AdaptiveAllocation allocator;
  auto out = allocator.allocate(err, current, stats);
  ASSERT_EQ(out.size(), n);
  const double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_NEAR(sum, err, 1e-9 * std::max(1.0, err));
  bool any_gain = false;
  for (const auto& s : stats) any_gain |= s.avg_gain > 0.0;
  if (any_gain) {
    for (double a : out) EXPECT_GE(a, err * 0.01 - 1e-12);
  }
  // Iterating the allocator from its own output stays feasible.
  out = allocator.allocate(err, out, stats);
  EXPECT_NEAR(std::accumulate(out.begin(), out.end(), 0.0), err,
              1e-9 * std::max(1.0, err));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocationInvariants,
                         ::testing::Range(1, 26));

// ---------------------------------------------------------------------
// Sampler safety net across slack/patience settings: on a quiet trace the
// interval grows; after a regime change to hot values it collapses to the
// default within one sample.
class SamplerKnobs
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(SamplerKnobs, CollapseIsImmediateAfterRegimeChange) {
  const auto [gamma, patience] = GetParam();
  AdaptiveSamplerOptions o;
  o.error_allowance = 0.02;
  o.slack_ratio = gamma;
  o.patience = patience;
  o.max_interval = 20;
  AdaptiveSampler sampler(o, 100.0);
  Rng rng(7);
  for (int i = 0; i < 30 * patience; ++i) {
    sampler.observe(rng.normal(0.0, 0.5), sampler.interval());
  }
  ASSERT_GT(sampler.interval(), 1) << "gamma=" << gamma << " p=" << patience;
  sampler.observe(99.5, sampler.interval());
  EXPECT_EQ(sampler.interval(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, SamplerKnobs,
    ::testing::Combine(::testing::Values(0.0, 0.2, 0.5),
                       ::testing::Values(1, 5, 20)));

// ---------------------------------------------------------------------
// The threshold-splitting contract across monitor counts: no global
// violation is possible while every local value is under its local
// threshold (Section II-A), for any weighting.
class ThresholdSplit : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdSplit, LocalSafetyImpliesGlobalSafety) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 17 + 1);
  std::vector<double> weights;
  for (int i = 0; i < n; ++i) weights.push_back(rng.uniform(0.1, 2.0));
  const double T = 42.0;
  const auto locals = split_threshold(T, static_cast<std::size_t>(n), weights);
  EXPECT_NEAR(std::accumulate(locals.begin(), locals.end(), 0.0), T, 1e-9);
  // Values strictly below local thresholds can never sum above T.
  double sum = 0.0;
  for (double t : locals) sum += t * 0.999;
  EXPECT_LT(sum, T);
}

INSTANTIATE_TEST_SUITE_P(MonitorCounts, ThresholdSplit,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 40));

}  // namespace
}  // namespace volley
