// Unit tests for the violation-likelihood estimator (paper Section III-A):
// the Chebyshev per-step bound (Inequality 1), beta(I) (Inequality 3), the
// conservative edge handling, the delta statistics update rules (including
// the gap-normalized delta-hat and the 1000-sample restart), and the
// Gaussian ablation estimator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/likelihood.h"

namespace volley {
namespace {

TEST(ChebyshevStepBound, MatchesClosedForm) {
  // k = (T - v - i*mu) / (i*sigma) = (10 - 0 - 1*1)/(1*3) = 3.
  const DeltaStats stats{1.0, 3.0};
  const double expected = 1.0 / (1.0 + 9.0);
  EXPECT_NEAR(chebyshev_step_bound(0.0, 10.0, stats, 1), expected, 1e-12);
}

TEST(ChebyshevStepBound, GrowsWithHorizon) {
  const DeltaStats stats{0.5, 1.0};
  double prev = 0.0;
  for (Tick i = 1; i <= 10; ++i) {
    const double p = chebyshev_step_bound(0.0, 10.0, stats, i);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(ChebyshevStepBound, GrowsAsValueApproachesThreshold) {
  const DeltaStats stats{0.0, 1.0};
  double prev = 0.0;
  for (double v = 0.0; v < 9.5; v += 1.0) {
    const double p = chebyshev_step_bound(v, 10.0, stats, 1);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(ChebyshevStepBound, NonPositiveKGivesOne) {
  // Mean drift alone crosses the threshold: no information, bound = 1.
  const DeltaStats stats{5.0, 1.0};
  EXPECT_DOUBLE_EQ(chebyshev_step_bound(8.0, 10.0, stats, 1), 1.0);
  EXPECT_DOUBLE_EQ(chebyshev_step_bound(5.0, 10.0, stats, 1), 1.0);
}

TEST(ChebyshevStepBound, ZeroSigmaIsDeterministic) {
  const DeltaStats stats{1.0, 0.0};
  EXPECT_DOUBLE_EQ(chebyshev_step_bound(0.0, 10.0, stats, 5), 0.0);
  EXPECT_DOUBLE_EQ(chebyshev_step_bound(0.0, 10.0, stats, 15), 1.0);
}

TEST(ChebyshevStepBound, RejectsNonPositiveHorizon) {
  const DeltaStats stats{0.0, 1.0};
  EXPECT_THROW(chebyshev_step_bound(0.0, 1.0, stats, 0),
               std::invalid_argument);
}

TEST(GaussianStepBound, TighterThanChebyshevInTheTail) {
  // For k >= ~2 the exact normal tail is far below 1/(1+k^2); this is why
  // the Chebyshev choice is the conservative one (paper Section III-B).
  const DeltaStats stats{0.0, 1.0};
  for (double v : {0.0, 2.0, 5.0}) {
    const double cheb = chebyshev_step_bound(v, 10.0, stats, 1);
    const double gauss = gaussian_step_bound(v, 10.0, stats, 1);
    EXPECT_LT(gauss, cheb);
  }
}

TEST(GaussianStepBound, HalfAtThreshold) {
  const DeltaStats stats{0.0, 1.0};
  EXPECT_NEAR(gaussian_step_bound(10.0, 10.0, stats, 1), 0.5, 1e-12);
}

TEST(BetaBound, OneStepEqualsStepBound) {
  const DeltaStats stats{0.2, 1.5};
  const double direct = chebyshev_step_bound(3.0, 10.0, stats, 1);
  const double beta =
      beta_bound_with(3.0, 10.0, stats, 1, chebyshev_step_bound);
  EXPECT_NEAR(beta, direct, 1e-12);
}

TEST(BetaBound, MonotoneInInterval) {
  const DeltaStats stats{0.1, 1.0};
  double prev = 0.0;
  for (Tick interval = 1; interval <= 20; ++interval) {
    const double beta =
        beta_bound_with(0.0, 20.0, stats, interval, chebyshev_step_bound);
    EXPECT_GE(beta, prev - 1e-15);
    prev = beta;
  }
}

TEST(BetaBound, MatchesProductForm) {
  const DeltaStats stats{0.0, 2.0};
  const Tick interval = 5;
  double survive = 1.0;
  for (Tick i = 1; i <= interval; ++i) {
    survive *= 1.0 - chebyshev_step_bound(1.0, 15.0, stats, i);
  }
  const double beta =
      beta_bound_with(1.0, 15.0, stats, interval, chebyshev_step_bound);
  EXPECT_NEAR(beta, 1.0 - survive, 1e-12);
}

TEST(Estimator, ColdStartIsConservative) {
  ViolationLikelihoodEstimator est;
  EXPECT_DOUBLE_EQ(est.beta_bound(10.0, 1), 1.0);
  est.observe(1.0, 1);  // first sample only seeds the previous value
  EXPECT_DOUBLE_EQ(est.beta_bound(10.0, 1), 1.0);
  est.observe(1.1, 1);  // first delta
  EXPECT_DOUBLE_EQ(est.beta_bound(10.0, 1), 1.0);  // < min_observations
  est.observe(1.2, 1);
  EXPECT_LT(est.beta_bound(10.0, 1), 1.0);  // statistics now available
}

TEST(Estimator, LearnsDeltaStatistics) {
  ViolationLikelihoodEstimator est;
  double v = 0.0;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    v += rng.normal(0.5, 0.1);
    est.observe(v, 1);
  }
  const auto stats = est.delta_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NEAR(stats->mean, 0.5, 0.05);
  EXPECT_NEAR(stats->stddev, 0.1, 0.05);
}

TEST(Estimator, GapNormalizesDelta) {
  // Values observed every 4 ticks with total change 4.0 per gap must yield
  // delta-hat = 1.0 per tick (paper III-B: delta-hat = (v(t)-v(t-I))/I).
  ViolationLikelihoodEstimator est;
  double v = 0.0;
  for (int i = 0; i < 20; ++i) {
    v += 4.0;
    est.observe(v, 4);
  }
  const auto stats = est.delta_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NEAR(stats->mean, 1.0, 1e-9);
  EXPECT_NEAR(stats->stddev, 0.0, 1e-9);
}

TEST(Estimator, FarFromThresholdMeansLowLikelihood) {
  ViolationLikelihoodEstimator est;
  Rng rng(7);
  double v = 0.0;
  for (int i = 0; i < 200; ++i) {
    v = rng.normal(0.0, 1.0);
    est.observe(v, 1);
  }
  EXPECT_LT(est.beta_bound(1000.0, 4), 0.01);
}

TEST(Estimator, NearThresholdMeansHighLikelihood) {
  ViolationLikelihoodEstimator est;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) est.observe(rng.normal(9.5, 1.0), 1);
  EXPECT_GT(est.beta_bound(10.0, 1), 0.2);
}

TEST(Estimator, RestartForgetsOldRegime) {
  ViolationLikelihoodEstimator::Options options;
  options.stats_window = 100;
  options.stats_warmup = 4;
  ViolationLikelihoodEstimator est(options);
  // Regime 1: huge volatility. Regime 2: tiny volatility near zero.
  Rng rng(11);
  for (int i = 0; i < 100; ++i) est.observe(rng.normal(0.0, 50.0), 1);
  for (int i = 0; i < 150; ++i) est.observe(rng.normal(0.0, 0.01), 1);
  const auto stats = est.delta_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_LT(stats->stddev, 1.0);  // old sigma=50 regime forgotten
}

TEST(Estimator, GaussianOptionGivesSmallerBeta) {
  ViolationLikelihoodEstimator::Options cheb_opt;
  ViolationLikelihoodEstimator::Options gauss_opt;
  gauss_opt.bound = ViolationLikelihoodEstimator::Bound::kGaussian;
  ViolationLikelihoodEstimator cheb(cheb_opt), gauss(gauss_opt);
  Rng rng(13);
  double v = 0.0;
  for (int i = 0; i < 100; ++i) {
    v = rng.normal(0.0, 1.0);
    cheb.observe(v, 1);
    gauss.observe(v, 1);
  }
  EXPECT_LT(gauss.beta_bound(8.0, 4), cheb.beta_bound(8.0, 4));
}

TEST(Estimator, RejectsBadArguments) {
  ViolationLikelihoodEstimator est;
  EXPECT_THROW(est.observe(1.0, 0), std::invalid_argument);
  EXPECT_THROW(est.beta_bound(1.0, 0), std::invalid_argument);
  ViolationLikelihoodEstimator::Options bad;
  bad.min_observations = 0;
  EXPECT_THROW(ViolationLikelihoodEstimator{bad}, std::invalid_argument);
}

TEST(Estimator, ResetReturnsToColdStart) {
  ViolationLikelihoodEstimator est;
  for (int i = 0; i < 10; ++i) est.observe(static_cast<double>(i), 1);
  est.reset();
  EXPECT_FALSE(est.has_statistics());
  EXPECT_DOUBLE_EQ(est.beta_bound(100.0, 1), 1.0);
}

// Empirical soundness: the Chebyshev beta bound must upper-bound the true
// mis-detection probability measured by Monte Carlo on iid normal deltas —
// for every horizon and for several value/threshold margins.
TEST(Estimator, BoundIsSoundOnSimulatedWalks) {
  const double mu = 0.1, sigma = 1.0, threshold = 12.0;
  const DeltaStats stats{mu, sigma};
  Rng mc(19);
  const int trials = 20000;

  for (double v0 : {2.0, 6.0, 9.0}) {
    for (Tick interval : {1, 2, 4, 8}) {
      const double bound =
          beta_bound_with(v0, threshold, stats, interval,
                          chebyshev_step_bound);
      int violations = 0;
      for (int trial = 0; trial < trials; ++trial) {
        double x = v0;
        for (Tick i = 0; i < interval; ++i) {
          x += mc.normal(mu, sigma);
          if (x > threshold) {
            ++violations;
            break;
          }
        }
      }
      const double true_rate = static_cast<double>(violations) / trials;
      EXPECT_GE(bound + 0.01, true_rate)
          << "v0=" << v0 << " interval=" << interval;
    }
  }
}

}  // namespace
}  // namespace volley
