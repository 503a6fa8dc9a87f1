// Unit tests for the stochastic-process building blocks (src/trace/
// generators.h) and the TimeSeries container.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "trace/generators.h"
#include "trace/trace.h"

namespace volley {
namespace {

TEST(DiurnalCurve, PeaksAtPhaseAndBottomsOppositely) {
  DiurnalCurve curve(100, 0.8, 25);
  EXPECT_NEAR(curve.multiplier(25), 1.0, 1e-12);
  EXPECT_NEAR(curve.multiplier(75), 0.2, 1e-12);  // 1 - depth
}

TEST(DiurnalCurve, StaysWithinBand) {
  DiurnalCurve curve(1440, 0.9, 0);
  for (Tick t = 0; t < 3000; ++t) {
    const double m = curve.multiplier(t);
    EXPECT_GE(m, 0.1 - 1e-12);
    EXPECT_LE(m, 1.0 + 1e-12);
  }
}

TEST(DiurnalCurve, IsPeriodic) {
  DiurnalCurve curve(720, 0.5, 100);
  for (Tick t = 0; t < 720; t += 37) {
    EXPECT_NEAR(curve.multiplier(t), curve.multiplier(t + 720), 1e-12);
  }
}

TEST(DiurnalCurve, ZeroDepthIsFlat) {
  DiurnalCurve curve(100, 0.0);
  for (Tick t = 0; t < 200; ++t) EXPECT_DOUBLE_EQ(curve.multiplier(t), 1.0);
}

TEST(DiurnalCurve, Validation) {
  EXPECT_THROW(DiurnalCurve(0, 0.5), std::invalid_argument);
  EXPECT_THROW(DiurnalCurve(100, 1.0), std::invalid_argument);
  EXPECT_THROW(DiurnalCurve(100, -0.1), std::invalid_argument);
}

TEST(OuProcess, StaysInBounds) {
  OuProcess::Options o;
  o.lo = 0.0;
  o.hi = 1.0;
  o.sigma = 0.5;  // aggressive noise to stress the clamp
  OuProcess p(o);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const double x = p.next(rng);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(OuProcess, RevertsTowardMean) {
  OuProcess::Options o;
  o.mean = 0.8;
  o.theta = 0.2;
  o.sigma = 0.01;
  o.start = 0.1;
  OuProcess p(o);
  Rng rng(5);
  double x = 0.0;
  for (int i = 0; i < 500; ++i) x = p.next(rng);
  EXPECT_NEAR(x, 0.8, 0.15);
}

TEST(OuProcess, NoNoiseConvergesExactly) {
  OuProcess::Options o;
  o.mean = 0.5;
  o.theta = 0.5;
  o.sigma = 0.0;
  o.start = 0.0;
  OuProcess p(o);
  Rng rng(7);
  double x = 0.0;
  for (int i = 0; i < 100; ++i) x = p.next(rng);
  EXPECT_NEAR(x, 0.5, 1e-9);
}

TEST(OuProcess, Validation) {
  OuProcess::Options o;
  o.theta = 0.0;
  EXPECT_THROW(OuProcess{o}, std::invalid_argument);
  o = OuProcess::Options{};
  o.lo = 1.0;
  o.hi = 0.0;
  EXPECT_THROW(OuProcess{o}, std::invalid_argument);
}

TEST(BurstProcess, ZeroOutsideEpisodes) {
  BurstProcess::Options o;
  o.mean_gap = 1e9;  // effectively never
  Rng rng(9);
  BurstProcess p(o, rng);
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(p.next(rng), 0.0);
}

TEST(BurstProcess, EpisodesRampHoldAndDecay) {
  BurstProcess::Options o;
  o.mean_gap = 50;
  o.ramp = 5;
  o.plateau = 5;
  o.decay = 5;
  o.peak_lo = o.peak_hi = 1.0;  // deterministic peak
  Rng rng(11);
  BurstProcess p(o, rng);
  // Find an episode and check its shape.
  std::vector<double> intensities;
  for (int i = 0; i < 5000 && intensities.empty(); ++i) {
    if (p.next(rng) > 0.0) {
      // Re-collect the remainder of this episode.
      intensities.push_back(0.2);  // the first ramp step we just consumed
      for (int j = 0; j < 14; ++j) intensities.push_back(p.next(rng));
    }
  }
  ASSERT_EQ(intensities.size(), 15u);
  // Ramp increases...
  for (int i = 1; i < 5; ++i) EXPECT_GE(intensities[i], intensities[i - 1]);
  // ...plateau at peak...
  for (int i = 5; i < 10; ++i) EXPECT_NEAR(intensities[i], 1.0, 1e-12);
  // ...decay decreases.
  for (int i = 11; i < 15; ++i) EXPECT_LE(intensities[i], intensities[i - 1]);
}

TEST(BurstProcess, MeanGapRoughlyRespected) {
  BurstProcess::Options o;
  o.mean_gap = 200;
  o.ramp = 2;
  o.plateau = 2;
  o.decay = 2;
  Rng rng(13);
  BurstProcess p(o, rng);
  int episodes = 0;
  bool in_episode = false;
  const int ticks = 200000;
  for (int i = 0; i < ticks; ++i) {
    const bool active = p.next(rng) > 0.0;
    if (active && !in_episode) ++episodes;
    in_episode = active;
  }
  // Expected roughly ticks / (gap + length) episodes.
  const double expected = ticks / 206.0;
  EXPECT_NEAR(episodes, expected, expected * 0.2);
}

TEST(BurstProcess, Validation) {
  BurstProcess::Options o;
  Rng rng(1);
  o.mean_gap = 0;
  EXPECT_THROW(BurstProcess(o, rng), std::invalid_argument);
  o = BurstProcess::Options{};
  o.ramp = o.plateau = o.decay = 0;
  EXPECT_THROW(BurstProcess(o, rng), std::invalid_argument);
  o = BurstProcess::Options{};
  o.peak_lo = 0.8;
  o.peak_hi = 0.5;
  EXPECT_THROW(BurstProcess(o, rng), std::invalid_argument);
}

TEST(TimeSeries, SumAggregatesElementwise) {
  std::vector<TimeSeries> series;
  series.emplace_back(std::vector<double>{1, 2, 3});
  series.emplace_back(std::vector<double>{10, 20, 30});
  const auto total = TimeSeries::sum(series);
  EXPECT_DOUBLE_EQ(total[0], 11);
  EXPECT_DOUBLE_EQ(total[1], 22);
  EXPECT_DOUBLE_EQ(total[2], 33);
}

TEST(TimeSeries, SumRejectsMismatchedLengths) {
  std::vector<TimeSeries> series;
  series.emplace_back(std::vector<double>{1, 2});
  series.emplace_back(std::vector<double>{1});
  EXPECT_THROW(TimeSeries::sum(series), std::invalid_argument);
}

TEST(TimeSeries, ThresholdForSelectivityIsPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  TimeSeries ts(std::move(v));
  // k = 10% -> 90th percentile.
  EXPECT_NEAR(ts.threshold_for_selectivity(10.0), 90.1, 0.2);
  EXPECT_THROW(ts.threshold_for_selectivity(-1.0), std::invalid_argument);
}

TEST(TimeSeries, SelectivityControlsAlertFraction) {
  Rng rng(17);
  std::vector<double> v;
  for (int i = 0; i < 100000; ++i) v.push_back(rng.normal(0, 1));
  TimeSeries ts(std::move(v));
  for (double k : {0.5, 2.0, 10.0}) {
    const double threshold = ts.threshold_for_selectivity(k);
    std::size_t above = 0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts[i] > threshold) ++above;
    }
    EXPECT_NEAR(static_cast<double>(above) / static_cast<double>(ts.size()),
                k / 100.0, 0.002)
        << "k=" << k;
  }
}

TEST(TimeSeries, BasicStats) {
  TimeSeries ts(std::vector<double>{3.0, -1.0, 4.0});
  EXPECT_DOUBLE_EQ(ts.min(), -1.0);
  EXPECT_DOUBLE_EQ(ts.max(), 4.0);
  EXPECT_DOUBLE_EQ(ts.mean(), 2.0);
}

TEST(SeriesSource, ServesValuesAndCosts) {
  TimeSeries values(std::vector<double>{1, 2, 3});
  TimeSeries costs(std::vector<double>{10, 20, 30});
  SeriesSource source(values, costs);
  EXPECT_DOUBLE_EQ(source.value_at(1), 2);
  EXPECT_DOUBLE_EQ(source.sampling_cost(2), 30);
  EXPECT_EQ(source.length(), 3);
}

TEST(SeriesSource, DefaultCostIsOne) {
  SeriesSource source(TimeSeries(std::vector<double>{5}));
  EXPECT_DOUBLE_EQ(source.sampling_cost(0), 1.0);
}

TEST(SeriesSource, CostLengthMismatchThrows) {
  EXPECT_THROW(SeriesSource(TimeSeries(std::vector<double>{1, 2}),
                            TimeSeries(std::vector<double>{1})),
               std::invalid_argument);
}

}  // namespace
}  // namespace volley
