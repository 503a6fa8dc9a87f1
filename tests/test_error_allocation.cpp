// Unit tests for the task-level error-allowance allocation (Section IV-B):
// even split, yield-proportional adaptive split, minimum-assignment floor,
// uniformity throttle, the clamp-and-normalize helper, the budget rescale
// and the allowance round every coordinator tier runs.
#include <gtest/gtest.h>

#include <numeric>

#include "core/error_allocation.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"

namespace volley {
namespace {

CoordStats stats(double gain, double allowance) {
  CoordStats s;
  s.avg_gain = gain;
  s.avg_allowance = allowance;
  s.observations = 10;
  return s;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(EvenAllocation, SplitsUniformly) {
  EvenAllocation even;
  const std::vector<double> current{0.01, 0.02, 0.03};
  const std::vector<CoordStats> s{stats(1, 1), stats(2, 1), stats(3, 1)};
  const auto out = even.allocate(0.06, current, s);
  ASSERT_EQ(out.size(), 3u);
  for (double e : out) EXPECT_NEAR(e, 0.02, 1e-12);
}

TEST(EvenAllocation, RejectsEmpty) {
  EvenAllocation even;
  EXPECT_THROW(even.allocate(0.1, {}, {}), std::invalid_argument);
}

TEST(AdaptiveAllocation, FavorsHighYieldMonitors) {
  AdaptiveAllocation adaptive;
  const std::vector<double> current{0.005, 0.005};
  // Monitor 0: high gain, low required allowance -> high yield.
  const std::vector<CoordStats> s{stats(0.5, 0.001), stats(0.1, 0.01)};
  const auto out = adaptive.allocate(0.01, current, s);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_GT(out[0], out[1]);
  EXPECT_NEAR(sum(out), 0.01, 1e-9);
}

TEST(AdaptiveAllocation, ConvergesToProportionalFixedPoint) {
  AdaptiveAllocation adaptive;
  // Yields 100 and 50: the damped iteration must converge to a 2:1 split
  // (the fixed point of the paper's proportional rule; floor not binding).
  const std::vector<CoordStats> s{stats(0.1, 0.001), stats(0.05, 0.001)};
  std::vector<double> alloc{0.01, 0.01};
  for (int i = 0; i < 100; ++i) alloc = adaptive.allocate(0.02, alloc, s);
  EXPECT_NEAR(alloc[0] / alloc[1], 2.0, 1e-3);
}

TEST(AdaptiveAllocation, SingleStepIsDamped) {
  AdaptiveAllocation adaptive;
  const std::vector<double> current{0.01, 0.01};
  const std::vector<CoordStats> s{stats(0.1, 0.001), stats(0.05, 0.001)};
  const auto out = adaptive.allocate(0.02, current, s);
  // Moves toward the 2:1 target but not all the way (default smoothing).
  EXPECT_GT(out[0], 0.01);
  EXPECT_LT(out[0], 0.02 * 2.0 / 3.0);
}

TEST(AdaptiveAllocation, RespectsMinimumFloor) {
  AdaptiveAllocation adaptive;
  const std::vector<double> current{0.005, 0.005};
  // Monitor 1 has essentially zero yield; it must still keep err/100.
  const std::vector<CoordStats> s{stats(0.5, 0.001), stats(0.0, 0.01)};
  const auto out = adaptive.allocate(0.01, current, s);
  EXPECT_GE(out[1], 0.01 * 0.01 - 1e-12);
  EXPECT_NEAR(sum(out), 0.01, 1e-9);
}

TEST(AdaptiveAllocation, UniformYieldsKeepCurrentAllocation) {
  AdaptiveAllocation adaptive;
  const std::vector<double> current{0.007, 0.003};
  // Yields within 10% of each other -> throttle: no churn.
  const std::vector<CoordStats> s{stats(0.10, 0.001), stats(0.104, 0.001)};
  const auto out = adaptive.allocate(0.01, current, s);
  EXPECT_DOUBLE_EQ(out[0], 0.007);
  EXPECT_DOUBLE_EQ(out[1], 0.003);
}

TEST(AdaptiveAllocation, NoGrowableMonitorKeepsAllocation) {
  AdaptiveAllocation adaptive;
  const std::vector<double> current{0.004, 0.006};
  // Both pinned at Im: gain 0 -> nothing to optimize.
  const std::vector<CoordStats> s{stats(0.0, 0.01), stats(0.0, 0.02)};
  const auto out = adaptive.allocate(0.01, current, s);
  EXPECT_DOUBLE_EQ(out[0], 0.004);
  EXPECT_DOUBLE_EQ(out[1], 0.006);
}

TEST(AdaptiveAllocation, SingleMonitorGetsEverything) {
  AdaptiveAllocation adaptive;
  const std::vector<double> current{0.01};
  const std::vector<CoordStats> s{stats(0.5, 0.001)};
  const auto out = adaptive.allocate(0.01, current, s);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0], 0.01);
}

TEST(AdaptiveAllocation, ZeroAllowanceNeededIsHandled) {
  AdaptiveAllocation adaptive;
  const std::vector<double> current{0.005, 0.005};
  // e_i == 0 (beta == 0): the epsilon floor avoids division by zero and the
  // monitor gets a huge but finite yield.
  const std::vector<CoordStats> s{stats(0.5, 0.0), stats(0.1, 0.01)};
  const auto out = adaptive.allocate(0.01, current, s);
  EXPECT_GT(out[0], out[1]);
  EXPECT_NEAR(sum(out), 0.01, 1e-9);
}

TEST(AdaptiveAllocation, SizeMismatchThrows) {
  AdaptiveAllocation adaptive;
  const std::vector<double> current{0.01};
  const std::vector<CoordStats> s{stats(1, 1), stats(1, 1)};
  EXPECT_THROW(adaptive.allocate(0.01, current, s), std::invalid_argument);
}

TEST(AdaptiveAllocation, OptionsValidated) {
  AdaptiveAllocation::Options bad;
  bad.min_fraction = -0.1;
  EXPECT_THROW(AdaptiveAllocation{bad}, std::invalid_argument);
  bad = AdaptiveAllocation::Options{};
  bad.min_fraction = 0.6;  // two monitors could not both get 0.6*err
  EXPECT_THROW(AdaptiveAllocation{bad}, std::invalid_argument);
}

TEST(ClampAndNormalize, RaisesFloorsAndKeepsTotal) {
  auto out = clamp_and_normalize({0.9, 0.1, 0.0}, 1.0, 0.05);
  EXPECT_NEAR(sum(out), 1.0, 1e-9);
  for (double v : out) EXPECT_GE(v, 0.05 - 1e-9);
  // Ordering preserved.
  EXPECT_GT(out[0], out[1]);
  EXPECT_GE(out[1], out[2]);
}

TEST(ClampAndNormalize, InfeasibleFloorThrows) {
  EXPECT_THROW(clamp_and_normalize({0.5, 0.5}, 1.0, 0.6),
               std::invalid_argument);
}

TEST(ClampAndNormalize, AllZeroFallsBackToEven) {
  const auto out = clamp_and_normalize({0.0, 0.0, 0.0, 0.0}, 1.0, 0.0);
  for (double v : out) EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(ClampAndNormalize, NoopWhenAlreadyFeasible) {
  const auto out = clamp_and_normalize({0.6, 0.4}, 1.0, 0.1);
  EXPECT_NEAR(out[0], 0.6, 1e-9);
  EXPECT_NEAR(out[1], 0.4, 1e-9);
}

TEST(RedistributeAllowance, ReclaimsDeadShareForSurvivors) {
  const std::vector<double> current{0.01, 0.01, 0.01};
  const std::vector<std::size_t> excluded{0};
  const auto out = redistribute_allowance(0.03, current, excluded);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_NEAR(out[1], 0.015, 1e-12);
  EXPECT_NEAR(out[2], 0.015, 1e-12);
}

TEST(RedistributeAllowance, KeepsSurvivorProportionsAndFloor) {
  const std::vector<double> current{0.01, 0.018, 0.0, 0.002};
  const std::vector<std::size_t> excluded{0};
  const auto out = redistribute_allowance(0.03, current, excluded);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_NEAR(sum(out), 0.03, 1e-9);
  // Survivor proportions are nearly preserved (0.018 : 0.002 = 9 : 1; the
  // floor clamp rescales only the above-floor mass, so the ratio shifts by
  // a fraction of a percent)...
  EXPECT_NEAR(out[1] / out[3], 9.0, 0.05);
  // ...and the zero-share survivor is lifted to the err/100 floor.
  EXPECT_GE(out[2], 0.03 * 0.01 - 1e-12);
}

TEST(RedistributeAllowance, AllZeroSurvivorsSplitEvenly) {
  const std::vector<double> current{0.03, 0.0, 0.0};
  const std::vector<std::size_t> excluded{0};
  const auto out = redistribute_allowance(0.03, current, excluded);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_NEAR(out[1], 0.015, 1e-12);
  EXPECT_NEAR(out[2], 0.015, 1e-12);
}

TEST(RedistributeAllowance, AllExcludedYieldsZeros) {
  const std::vector<double> current{0.01, 0.02};
  const std::vector<std::size_t> excluded{0, 1};
  const auto out = redistribute_allowance(0.03, current, excluded);
  ASSERT_EQ(out.size(), 2u);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(RedistributeAllowance, NoExclusionRenormalizes) {
  // A rejoin after a death leaves the vector summing below err; with no
  // exclusions the call simply rescales everyone back onto the budget.
  const std::vector<double> current{0.01, 0.005};
  const auto out = redistribute_allowance(0.03, current, {});
  EXPECT_NEAR(sum(out), 0.03, 1e-9);
  EXPECT_NEAR(out[0] / out[1], 2.0, 1e-9);
}

// The paper's worked example (Section IV-B): moving allowance toward the
// monitor that can absorb frequent violations increases total cost
// reduction — the allocator must push allowance toward higher yield until
// the marginal yields equalize. We verify the direction of the first step.
TEST(AdaptiveAllocation, PaperExampleDirection) {
  AdaptiveAllocation adaptive;
  // Monitor 1 at I=4 (gain 1/4-1/5=0.05) needs little allowance; monitor 2
  // at I=1 (gain 1/1-1/2=0.5) needs more but yields more per unit.
  const std::vector<double> current{0.005, 0.005};
  const std::vector<CoordStats> s{stats(0.05, 0.004), stats(0.5, 0.008)};
  // Yields: 12.5 vs 62.5 -> monitor 2 receives the larger share.
  const auto out = adaptive.allocate(0.01, current, s);
  EXPECT_GT(out[1], out[0]);
}

// The uniformity throttle, pinned exactly as implemented (and documented in
// the header): skip iff min_y > 0 and max_y / min_y - 1 < uniformity_band.
// A skipped round returns `current` verbatim, which is how these tests
// observe it.
TEST(AdaptiveAllocation, SkipsWhenYieldRatioInsideBand) {
  AdaptiveAllocation adaptive;  // uniformity_band = 0.1
  const std::vector<double> current{0.004, 0.006};
  // Yields 1.0 and 1.09: max/min - 1 = 0.09 < 0.1 -> skip, allocation kept.
  const std::vector<CoordStats> s{stats(0.10, 0.10), stats(0.109, 0.10)};
  const auto out = adaptive.allocate(0.01, current, s);
  EXPECT_EQ(out, current);
}

TEST(AdaptiveAllocation, ReallocatesJustOutsideBand) {
  AdaptiveAllocation adaptive;
  const std::vector<double> current{0.005, 0.005};
  // Yields 1.0 and 1.11: max/min - 1 = 0.11 >= 0.1 -> no skip; allowance
  // moves toward the higher-yield monitor and the total is preserved.
  const std::vector<CoordStats> s{stats(0.10, 0.10), stats(0.111, 0.10)};
  const auto out = adaptive.allocate(0.01, current, s);
  EXPECT_NE(out, current);
  EXPECT_GT(out[1], out[0]);
  EXPECT_NEAR(sum(out), 0.01, 1e-12);
}

TEST(AdaptiveAllocation, ZeroYieldMonitorDefeatsSkip) {
  AdaptiveAllocation adaptive;
  const std::vector<double> current{0.004, 0.003, 0.003};
  // Positive yields are perfectly uniform, but monitor 0 cannot grow
  // (y = 0): min_y == 0 must defeat the skip so its allowance flows to
  // monitors that can use it.
  const std::vector<CoordStats> s{stats(0.0, 0.10), stats(0.10, 0.10),
                                  stats(0.10, 0.10)};
  const auto out = adaptive.allocate(0.01, current, s);
  EXPECT_NE(out, current);
  EXPECT_LT(out[0], current[0]);
  EXPECT_NEAR(sum(out), 0.01, 1e-12);
}

// Two-level conservation, allocator-only: the root splits err across shard
// budgets, each shard splits its budget across monitors — the leaf splits
// must recompose to err exactly (the §13 nesting's bookkeeping invariant).
TEST(AdaptiveAllocation, NestedTwoLevelSplitConservesErr) {
  constexpr double kErr = 0.04;
  AdaptiveAllocation root;
  const std::vector<double> root_current{0.01, 0.01, 0.01, 0.01};
  const std::vector<CoordStats> root_stats{
      stats(0.4, 0.02), stats(0.1, 0.02), stats(0.25, 0.02),
      stats(0.05, 0.02)};
  const auto budgets = root.allocate(kErr, root_current, root_stats);
  EXPECT_NEAR(sum(budgets), kErr, 1e-12);

  double leaf_total = 0.0;
  for (std::size_t shard = 0; shard < budgets.size(); ++shard) {
    AdaptiveAllocation leaf;
    const std::vector<double> current(3, budgets[shard] / 3.0);
    const std::vector<CoordStats> leaf_stats{
        stats(0.3, 0.01), stats(0.1 * static_cast<double>(shard + 1), 0.01),
        stats(0.05, 0.01)};
    const auto split = leaf.allocate(budgets[shard], current, leaf_stats);
    EXPECT_NEAR(sum(split), budgets[shard], 1e-12);
    leaf_total += sum(split);
  }
  EXPECT_NEAR(leaf_total, kErr, 1e-12);
}

TEST(AdaptiveAllocation, DefaultFloorStaysFeasibleBeyondHundredMonitors) {
  // err/100 per monitor cannot fit 200 monitors into err; the allocator
  // falls back to an err/(2n) floor instead of throwing, repeatedly.
  constexpr std::size_t kMonitors = 200;
  constexpr double kErr = 0.01;
  AdaptiveAllocation adaptive;
  std::vector<double> current(kMonitors, kErr / kMonitors);
  std::vector<CoordStats> s;
  for (std::size_t i = 0; i < kMonitors; ++i) {
    // Skewed: a handful of hot monitors, a long quiet tail, some at zero.
    const double gain = i < 5 ? 0.5 : (i % 3 == 0 ? 0.0 : 0.01);
    s.push_back(stats(gain, 0.001));
  }
  for (int round = 0; round < 5; ++round) {
    std::vector<double> out;
    ASSERT_NO_THROW(out = adaptive.allocate(kErr, current, s));
    ASSERT_EQ(out.size(), kMonitors);
    EXPECT_NEAR(sum(out), kErr, 1e-12);
    for (const double a : out) EXPECT_GE(a, kErr / (2.0 * kMonitors) - 1e-15);
    EXPECT_GT(out[0], out[kMonitors - 1]);
    current = out;
  }
}

TEST(RedistributeAllowance, DefaultFloorStaysFeasibleBeyondHundredSurvivors) {
  constexpr std::size_t kMonitors = 150;
  constexpr double kErr = 0.02;
  std::vector<double> current(kMonitors, kErr / kMonitors);
  current[0] = kErr / 2.0;  // skewed survivors
  const std::vector<std::size_t> dead{7, 8};
  std::vector<double> out;
  ASSERT_NO_THROW(out = redistribute_allowance(kErr, current, dead));
  EXPECT_NEAR(sum(out), kErr, 1e-12);
  EXPECT_EQ(out[7], 0.0);
  EXPECT_EQ(out[8], 0.0);
}

TEST(RescaleSplit, KeepsSharesAndRebuildsAnAllZeroSplit) {
  std::vector<double> split{0.01, 0.03};
  rescale_split(split, 0.02);
  EXPECT_NEAR(split[0], 0.005, 1e-15);
  EXPECT_NEAR(split[1], 0.015, 1e-15);

  std::vector<double> zero{0.0, 0.0, 0.0, 0.0};
  rescale_split(zero, 0.04);  // even
  for (double a : zero) EXPECT_EQ(a, 0.01);
  std::vector<double> weighted{0.0, 0.0};
  const std::vector<double> weights{1.0, 3.0};
  rescale_split(weighted, 0.04, weights, 8.0);  // err·w/W, W past Σw
  EXPECT_EQ(weighted[0], 0.04 * 1.0 / 8.0);
  EXPECT_EQ(weighted[1], 0.04 * 3.0 / 8.0);
}

// The round returns the summed stats, installs the allocator's split lane
// by lane and records it into the tier's instruments, naming lanes by their
// ids.
TEST(AllowanceRound, RecordsTheRoundIntoTheTiersInstruments) {
  obs::MetricsRegistry registry;
  obs::TraceSink sink;
  obs::ScopedTraceSink trace_scope(sink);
  const auto coordinator = AllowanceRoundMetrics::coordinator(registry);
  AdaptiveAllocation adaptive;
  std::vector<double> split{0.02, 0.02};
  const std::vector<CoordStats> s{stats(0.5, 0.001), stats(0.01, 0.01)};
  const std::vector<MonitorId> ids{7, 9};
  std::vector<double> installed(2, -1.0);
  const auto install = [&](std::size_t i, double a) { installed[i] = a; };
  const CoordStats sums = run_allowance_round(adaptive, 0.04, split, s,
                                              coordinator, 42, install, ids);
  EXPECT_DOUBLE_EQ(sums.avg_gain, 0.51);
  EXPECT_DOUBLE_EQ(sums.avg_allowance, 0.011);
  EXPECT_EQ(sums.observations, 20);
  EXPECT_GT(split[0], 0.02);  // allowance moved to the high-yield lane
  EXPECT_NEAR(sum(split), 0.04, 1e-12);
  EXPECT_EQ(installed, split);
  EXPECT_EQ(registry.counter("volley_coordinator_reallocations_total").value(),
            1);
  EXPECT_EQ(registry.histogram("volley_coordinator_allowance_share", 0.0, 1.0,
                               20)
                .snapshot()
                .count(),
            2);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, obs::TraceKind::kAllowanceAdjusted);
  EXPECT_EQ(events[0].tick, 42);
  EXPECT_EQ(events[0].monitor, 7u);
  EXPECT_EQ(events[0].value, split[0]);
  EXPECT_EQ(events[0].detail, 0.02);
  EXPECT_EQ(events[1].monitor, 9u);

  // A tier with only a round counter (the sharded sim root) records
  // nothing else.
  obs::MetricsRegistry root_registry;
  const AllowanceRoundMetrics root{
      &root_registry.counter("volley_shard_root_reallocations_total").cell()};
  run_allowance_round(adaptive, 0.04, split, s, root, 43, install);
  EXPECT_EQ(
      root_registry.counter("volley_shard_root_reallocations_total").value(),
      1);
  EXPECT_EQ(sink.snapshot().size(), 2u);
}

}  // namespace
}  // namespace volley
