// Unit tests for src/stats: Welford stats (the paper's online update rules),
// windowed restart policy, quantiles (exact + P2), histogram, correlation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "common/rng.h"
#include "stats/correlation.h"
#include "stats/histogram.h"
#include "stats/online_stats.h"
#include "stats/quantile.h"

namespace volley {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.5, -2.0, 3.25, 0.0, 7.5, -1.25};
  OnlineStats s;
  for (double x : xs) s.add(x);
  const double mean =
      std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
}

TEST(OnlineStats, SingleSampleHasZeroVariance) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, IsNumericallyStableForLargeOffsets) {
  // Catastrophic cancellation check: tiny variance around a huge mean.
  OnlineStats s;
  const double base = 1e12;
  for (int i = 0; i < 1000; ++i) s.add(base + (i % 2 == 0 ? 0.5 : -0.5));
  EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(3);
  OnlineStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(2.0, 3.0);
    all.add(x);
    (i < 200 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(OnlineStats, MergeWithEmptyIsNoop) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(OnlineStats, MergePropertyShardsMatchConcatenatedStream) {
  // Parallel-Welford law: splitting a stream across K shards (any
  // interleaving) and merging gives the statistics of the concatenated
  // stream. This is what registry merging in parallel sweeps leans on.
  for (int shard_count : {2, 3, 5, 8}) {
    Rng rng(static_cast<std::uint64_t>(100 + shard_count));
    OnlineStats whole;
    std::vector<OnlineStats> shards(static_cast<std::size_t>(shard_count));
    for (int i = 0; i < 2000; ++i) {
      const double x = rng.normal(-3.0, 7.0);
      whole.add(x);
      shards[static_cast<std::size_t>(
                 rng.uniform_int(0, shard_count - 1))]
          .add(x);
    }
    OnlineStats merged;
    for (const auto& shard : shards) merged.merge(shard);
    EXPECT_EQ(merged.count(), whole.count()) << shard_count << " shards";
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12)
        << shard_count << " shards";
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-12)
        << shard_count << " shards";
  }
}

/// The Welford update without OnlineStats::add's zero-d1 return.
struct FullWelford {
  std::int64_t n{0};
  double mean{0.0};
  double m2{0.0};
  void add(double x) {
    ++n;
    const double d1 = x - mean;
    mean += d1 / static_cast<double>(n);
    const double d2 = x - mean;
    m2 += d1 * d2;
  }
};

/// The bits of x, with every NaN as one value: a NaN's sign and payload
/// follow the operand order of the operation that made it, and the
/// compiler may commute `a + b` and `a * b`.
std::uint64_t bits(double x) {
  return std::isnan(x) ? 0x7FF8000000000000ull
                       : std::bit_cast<std::uint64_t>(x);
}

/// Feeds `xs` to both updates and checks n, mean and m2 bit for bit after
/// every sample.
void expect_same_as_full_update(const std::vector<double>& xs) {
  OnlineStats fast;
  FullWelford full;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    fast.add(xs[i]);
    full.add(xs[i]);
    ASSERT_EQ(fast.count(), full.n) << "sample " << i;
    ASSERT_EQ(bits(fast.mean()), bits(full.mean))
        << "sample " << i << " x=" << xs[i];
    ASSERT_EQ(bits(fast.m2()), bits(full.m2))
        << "sample " << i << " x=" << xs[i];
  }
}

TEST(OnlineStats, ZeroDeltaReturnIsBitwiseTheFullUpdate) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  const double nan = std::nan("");
  const std::vector<std::vector<double>> streams = {
      {0.0, -0.0, 0.0, -0.0, -0.0},
      {-0.0, -0.0, 0.0},
      {3.0, 3.0, 3.0, 3.0},
      {1.5, 1.5, -2.0, -2.0, 1.5, 1.5},
      {kSub, kSub, -kSub, 3 * kSub, 3 * kSub, 0.0, -0.0},
      {1e-310, 1e-310, 2e-310, -1e-310},
      {kInf, kInf, 1.0},
      {-kInf, 0.0, -kInf},
      {1.0, kInf, -kInf, 2.0},
      {nan, 1.0, 1.0},
      {1.0, 1.0, nan, nan, 0.0},
      {1e308, 1e308, -1e308, 1e308},
  };
  for (const auto& xs : streams) expect_same_as_full_update(xs);

  // Random streams over the same palette: repeats make d1 == 0 common.
  const double palette[] = {0.0, -0.0, 1.0, -1.0, 0.25, kSub, -kSub,
                            1e-310, 1e300, kInf, -kInf, nan};
  Rng rng(25);
  for (int stream = 0; stream < 200; ++stream) {
    std::vector<double> xs;
    const bool finite_only = stream % 2 == 0;
    for (int i = 0; i < 64; ++i) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, finite_only ? 8 : 11));
      xs.push_back(i > 0 && rng.bernoulli(0.4) ? xs.back() : palette[pick]);
    }
    expect_same_as_full_update(xs);
  }
}

TEST(OnlineStats, ResetClears) {
  OnlineStats s;
  s.add(10.0);
  s.reset();
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(WindowedStats, RejectsBadWindow) {
  EXPECT_THROW(WindowedStats(0), std::invalid_argument);
  EXPECT_THROW(WindowedStats(10, -1), std::invalid_argument);
}

TEST(WindowedStats, EmptyHasNoStatistics) {
  WindowedStats s(100);
  EXPECT_FALSE(s.mean().has_value());
  EXPECT_FALSE(s.stddev().has_value());
}

TEST(WindowedStats, RestartsAfterWindow) {
  WindowedStats s(/*window=*/10, /*warmup=*/0);
  for (int i = 0; i < 10; ++i) s.add(100.0);
  EXPECT_NEAR(*s.mean(), 100.0, 1e-12);
  // The 11th sample opens a fresh window; with warmup 0 the new (single
  // sample) statistics take over immediately.
  s.add(0.0);
  EXPECT_EQ(s.current_count(), 1);
  EXPECT_NEAR(*s.mean(), 0.0, 1e-12);
}

TEST(WindowedStats, SnapshotMatchesAccessorsThroughRestartAndWarmup) {
  // The hot-path snapshot() must agree with the mean()/stddev() accessors
  // at every step, in particular across window restarts while the fresh
  // window is still warming up (when both fall back to the previous
  // window's statistics).
  WindowedStats s(/*window=*/10, /*warmup=*/4);
  EXPECT_FALSE(s.snapshot().has_value());
  Rng rng(7);
  for (int i = 0; i < 35; ++i) {
    s.add(rng.normal(1.0, 2.0));
    const auto snap = s.snapshot();
    ASSERT_TRUE(snap.has_value()) << "sample " << i;
    EXPECT_DOUBLE_EQ(snap->mean, *s.mean()) << "sample " << i;
    EXPECT_DOUBLE_EQ(snap->stddev, *s.stddev()) << "sample " << i;
  }
}

TEST(WindowedStats, WarmupServesPreviousWindow) {
  WindowedStats s(/*window=*/10, /*warmup=*/4);
  for (int i = 0; i < 10; ++i) s.add(100.0);
  s.add(0.0);  // new window, 1 < warmup samples
  EXPECT_NEAR(*s.mean(), 100.0, 1e-12);
  s.add(0.0);
  s.add(0.0);
  s.add(0.0);  // 4 == warmup: new window takes over
  EXPECT_NEAR(*s.mean(), 0.0, 1e-12);
}

TEST(WindowedStats, TracksDistributionShift) {
  // The restart policy exists so the estimator follows the recent delta
  // distribution (paper III-B). After a shift and one full window, the old
  // regime must be forgotten.
  WindowedStats s(/*window=*/100, /*warmup=*/8);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) s.add(rng.normal(0.0, 1.0));
  for (int i = 0; i < 200; ++i) s.add(rng.normal(50.0, 1.0));
  EXPECT_GT(*s.mean(), 45.0);
}

TEST(ExactQuantile, HandlesEdgesAndInterpolation) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.5), 2.5);
  EXPECT_THROW(exact_quantile(std::vector<double>{}, 0.5),
               std::invalid_argument);
  EXPECT_THROW(exact_quantile(v, 1.5), std::invalid_argument);
}

TEST(ExactQuantile, MultiQuantileMatchesSingle) {
  Rng rng(5);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.uniform());
  const std::vector<double> qs{0.1, 0.25, 0.5, 0.9, 0.99};
  const auto multi = exact_quantiles(v, qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(multi[i], exact_quantile(v, qs[i]));
  }
}

TEST(BoxStats, FiveNumberSummary) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(static_cast<double>(i));
  const auto box = box_stats(v);
  EXPECT_DOUBLE_EQ(box.min, 1.0);
  EXPECT_DOUBLE_EQ(box.q1, 26.0);
  EXPECT_DOUBLE_EQ(box.median, 51.0);
  EXPECT_DOUBLE_EQ(box.q3, 76.0);
  EXPECT_DOUBLE_EQ(box.max, 101.0);
}

TEST(P2Quantile, RejectsBadQ) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
}

TEST(P2Quantile, ExactForFewSamples) {
  P2Quantile q(0.5);
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);
  q.add(1.0);
  q.add(2.0);
  EXPECT_DOUBLE_EQ(q.value(), 2.0);
}

TEST(P2Quantile, ApproximatesUniformMedian) {
  P2Quantile q(0.5);
  Rng rng(31);
  for (int i = 0; i < 100000; ++i) q.add(rng.uniform());
  EXPECT_NEAR(q.value(), 0.5, 0.02);
}

TEST(P2Quantile, ApproximatesNormalTail) {
  P2Quantile q(0.95);
  Rng rng(37);
  for (int i = 0; i < 200000; ++i) q.add(rng.normal(0.0, 1.0));
  EXPECT_NEAR(q.value(), 1.6449, 0.08);
}

TEST(P2Quantile, ThrowsWithoutSamples) {
  P2Quantile q(0.5);
  EXPECT_THROW(q.value(), std::logic_error);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BinsAndClampsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-5.0);   // underflow -> bin 0
  h.add(25.0);   // overflow -> last bin
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.bin_count(0), 2);
  EXPECT_EQ(h.bin_count(9), 2);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 1);
}

TEST(Histogram, NanLandsInLastBinWithoutUnderOrOverflow) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_EQ(h.bin_of(std::nan("")), 9u);
  h.add(std::nan(""));
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.bin_count(9), 1);
  EXPECT_EQ(h.underflow(), 0);
  EXPECT_EQ(h.overflow(), 0);
}

TEST(Histogram, QuantileInterpolatesWithinBin) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(0.5);  // all mass in bin [0,1)
  const double median = h.quantile(0.5);
  EXPECT_GE(median, 0.0);
  EXPECT_LE(median, 1.0);
}

TEST(Histogram, MeanTracksInputs) {
  Histogram h(0.0, 100.0, 10);
  h.add(10.0);
  h.add(30.0);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, QuantileOfUniformMassIsLinear) {
  Histogram h(0.0, 1.0, 100);
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform());
  EXPECT_NEAR(h.quantile(0.25), 0.25, 0.01);
  EXPECT_NEAR(h.quantile(0.75), 0.75, 0.01);
}

TEST(Histogram, RenderMentionsEveryBin) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  const auto text = h.render(10);
  EXPECT_NE(text.find("[0, 1)"), std::string::npos);
  EXPECT_NE(text.find("[1, 2)"), std::string::npos);
}

TEST(Pearson, PerfectCorrelationIsOne) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(*pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectAnticorrelationIsMinusOne) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{5, 4, 3, 2, 1};
  EXPECT_NEAR(*pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesIsUndefined) {
  const std::vector<double> x{1, 1, 1, 1};
  const std::vector<double> y{1, 2, 3, 4};
  EXPECT_FALSE(pearson(x, y).has_value());
}

TEST(Pearson, MismatchedSizesThrow) {
  const std::vector<double> x{1, 2};
  const std::vector<double> y{1, 2, 3};
  EXPECT_THROW(pearson(x, y), std::invalid_argument);
}

TEST(Pearson, IndependentSeriesNearZero) {
  Rng rng(41);
  std::vector<double> x, y;
  for (int i = 0; i < 20000; ++i) {
    x.push_back(rng.normal(0, 1));
    y.push_back(rng.normal(0, 1));
  }
  EXPECT_NEAR(*pearson(x, y), 0.0, 0.03);
}

TEST(LaggedPearson, FindsKnownLag) {
  // y is x delayed by 3 ticks: best lag should be +3 with corr ~ 1.
  Rng rng(43);
  std::vector<double> x(500);
  for (auto& v : x) v = rng.normal(0, 1);
  std::vector<double> y(500, 0.0);
  for (std::size_t i = 3; i < y.size(); ++i) y[i] = x[i - 3];
  const auto best = best_lag_correlation(x, y, 8);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->lag, 3);
  EXPECT_GT(best->corr, 0.95);
}

TEST(LaggedPearson, RespectsMinOverlap) {
  const std::vector<double> x{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_FALSE(lagged_pearson(x, x, 7, 8).has_value());
  EXPECT_TRUE(lagged_pearson(x, x, 0, 8).has_value());
}

TEST(RollingCorrelation, TracksRecentWindowOnly) {
  RollingCorrelation rc(50);
  // First 50: anticorrelated. Then 50: correlated. Window must forget.
  for (int i = 0; i < 50; ++i) rc.add(i, -i);
  EXPECT_LT(*rc.current(), -0.99);
  for (int i = 0; i < 50; ++i) rc.add(i, i);
  EXPECT_GT(*rc.current(), 0.99);
}

}  // namespace
}  // namespace volley
