// Identity tests for the β̄ likelihood kernel (DESIGN.md §11): every fast
// path — zero-β̄ certificate, incremental prefix memo, blocked/SIMD loop —
// must return the double that the baseline
// `beta_bound_with(..., chebyshev_step_bound)` loop returns, compared
// *bitwise*, across a property sweep that covers σ = 0, k ≤ 0, cold
// start, saturation early-exits, and the AIMD access pattern. The
// baseline is called directly: it is the literal Inequality 3 loop
// (likelihood.h). A whole-run regression checks every β̄ decision a
// coordinator makes — scheduled steps and poll samples — against the same
// direct call.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/adaptive_sampler.h"
#include "core/coordinator.h"
#include "core/likelihood.h"
#include "core/likelihood_kernel.h"
#include "core/threshold_split.h"
#include "sim/runner.h"
#include "trace/trace.h"

namespace volley {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Bitwise equality — EXPECT_DOUBLE_EQ would pass 0.0 == -0.0 and fail on
/// NaN == NaN; the kernel's contract is stricter than either.
#define EXPECT_BITEQ(a, b) EXPECT_EQ(bits(a), bits(b))
#define ASSERT_BITEQ(a, b) ASSERT_EQ(bits(a), bits(b))

double scalar_reference(double v, double t, const DeltaStats& s, Tick i) {
  return beta_bound_with(v, t, s, i, chebyshev_step_bound);
}

// --- beta_bound_chebyshev vs the baseline loop ------------------------

TEST(KernelIdentity, GridSweepIsBitwiseIdentical) {
  // Deliberately spans every regime: far-below-threshold (certificate),
  // near-threshold (full loop), mean drift crossing T (k <= 0, survive
  // hits 0), negative mean (margin grows with i), sigma = 0 (deterministic
  // drift), and tiny sigma (huge k without the drift ever crossing).
  const double values[] = {0.0, 1.0, 9.5, 10.0, 11.0, -3.0};
  const double thresholds[] = {10.0, 1e6, 0.5};
  const double means[] = {0.0, 0.1, -0.2, 5.0, 1e-9};
  const double stddevs[] = {0.0, 1e-12, 0.05, 1.0, 50.0};
  const Tick intervals[] = {1, 2, 3, 7, 15, 16, 17, 40, 128, 1000};

  for (double v : values)
    for (double t : thresholds)
      for (double mu : means)
        for (double sigma : stddevs)
          for (Tick i : intervals) {
            const DeltaStats s{mu, sigma};
            ASSERT_BITEQ(beta_bound_chebyshev(v, t, s, i),
                         scalar_reference(v, t, s, i))
                << "v=" << v << " T=" << t << " mu=" << mu
                << " sigma=" << sigma << " I=" << i;
          }
}

TEST(KernelIdentity, RandomSweepIsBitwiseIdentical) {
  Rng rng(2024);
  for (int trial = 0; trial < 5000; ++trial) {
    const double v = rng.normal(0.0, 100.0);
    const double t = v + rng.normal(5.0, 50.0);  // margins of both signs
    const DeltaStats s{rng.normal(0.0, 2.0),
                       std::fabs(rng.normal(0.0, 3.0))};
    const auto i = static_cast<Tick>(1 + (trial % 200));
    ASSERT_BITEQ(beta_bound_chebyshev(v, t, s, i),
                 scalar_reference(v, t, s, i))
        << "v=" << v << " T=" << t << " mu=" << s.mean
        << " sigma=" << s.stddev << " I=" << i;
  }
}

TEST(KernelIdentity, CertificateRegimeIsExactZero) {
  // A quiet metric far below its threshold: every survival factor rounds
  // to exactly 1.0, so the certificate may answer 0.0 in O(1) — and the
  // baseline loop must agree it is exactly +0.0, not merely tiny. The
  // regime needs k_I = (T - v - I*mu)/(I*sigma) >= 2^28 at the far
  // endpoint: T = 1e12 over I = 128 steps of sigma = 0.5 gives k ~ 1.6e10.
  const DeltaStats s{0.001, 0.5};
  const double beta = beta_bound_chebyshev(1.0, 1e12, s, 128);
  EXPECT_BITEQ(beta, 0.0);
  EXPECT_BITEQ(beta, scalar_reference(1.0, 1e12, s, 128));
}

TEST(KernelIdentity, SaturationRegimesMatch) {
  // survive hits exactly 0 (a k <= 0 step)...
  const DeltaStats drift{5.0, 1.0};
  ASSERT_BITEQ(beta_bound_chebyshev(8.0, 10.0, drift, 4),
               scalar_reference(8.0, 10.0, drift, 4));
  EXPECT_BITEQ(beta_bound_chebyshev(8.0, 10.0, drift, 4), 1.0);
  // ...and the 1 - survive == 1.0 early-exit (tiny positive k: each factor
  // ~k^2, the product underflows the 2^-53 threshold within a few steps).
  const DeltaStats noisy{0.0, 1e6};
  ASSERT_BITEQ(beta_bound_chebyshev(0.0, 1.0, noisy, 64),
               scalar_reference(0.0, 1.0, noisy, 64));
  EXPECT_BITEQ(beta_bound_chebyshev(0.0, 1.0, noisy, 64), 1.0);
}

TEST(KernelIdentity, RejectsNonPositiveInterval) {
  const DeltaStats s{0.0, 1.0};
  EXPECT_THROW(beta_bound_chebyshev(0.0, 1.0, s, 0), std::invalid_argument);
}

// --- the multiplicative certificate test --------------------------------

TEST(KernelCertificate, MultiplicativeTestPassesOnlyWhereTheDivisionDoes) {
  // certificate_k_passes(margin, d) replaces `margin / d >= 2^28` at each
  // endpoint, with d = fl(i·σ). It may fail where the division passes (the
  // certificate then falls back to the exact loop), never the reverse.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const auto division = [](double margin, double d) {
    return margin / d >= kCertMinK;
  };
  std::int64_t checked = 0, passed = 0;
  const auto check = [&](double margin, double d) {
    const bool mult = certificate_k_passes(margin, d);
    ++checked;
    passed += mult ? 1 : 0;
    ASSERT_TRUE(!mult || division(margin, d))
        << "margin=" << margin << " d=" << d;
  };
  const double sigmas[] = {kTiny,   3 * kTiny, 1e-310, 1e-308,
                           2.2e-308, 1e-300,  1e-20,  0.37,
                           1.0,     3.7,       1e150,  1e290,
                           1e300,   kMax / 4,  kMax};
  const double steps[] = {1, 2, 3, 7, 40, 1000, 0x1p40};
  for (const double sigma : sigmas) {
    for (const double di : steps) {
      const double d = di * sigma;  // subnormal, normal or overflowed
      const double target = kCertMinK * d;
      // Margins within a few ulps of 2^28·d, where the two forms can
      // round apart.
      if (std::isfinite(target)) {
        double below = target, above = target;
        for (int u = 0; u < 8; ++u) {
          check(below, d);
          check(above, d);
          below = std::nextafter(below, 0.0);
          above = std::nextafter(above, kInf);
        }
      }
      // Margins spread over the whole range, including where 2^28·d
      // overflows (the multiplicative form then fails for every finite
      // margin) and where margin / d overflows to inf.
      for (const double scale : {1e-300, 1e-20, 1.0, 0x1p27, 0x1p28, 0x1p29,
                                 1e20, 1e300}) {
        const double margin = scale * (std::isfinite(d) ? d : kMax);
        if (std::isfinite(margin) && margin > 0.0) check(margin, d);
      }
      for (const double margin : {kTiny, 1.0, 1e300, kMax, -1.0, -kMax,
                                  std::nan("")}) {
        check(margin, d);
      }
    }
  }
  // d underflowing to 0 (it cannot, for σ > 0 and i ≥ 1, but the test
  // must still hold): margin / +0 is +inf for a positive margin, so both
  // forms pass exactly there.
  for (const double margin : {kTiny, 1.0, kMax}) {
    check(margin, 0.0);
    EXPECT_TRUE(certificate_k_passes(margin, 0.0));
  }
  EXPECT_GT(passed, 0);
  EXPECT_LT(passed, checked);
}

// --- β̄(1), the one-step path --------------------------------------------

TEST(KernelIdentity, IntervalOneMatchesTheLiteralLoop) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    double v, t;
    DeltaStats s;
    const char* what;
  };
  const Case cases[] = {
      {1.0, 10.0, {0.1, 1.0}, "k > 0, a fraction"},
      {0.0, 1e12, {0.0, 0.5}, "certificate regime, factor exactly 1"},
      {9.0, 10.0, {2.0, 1.0}, "k < 0: survive 0, first exit"},
      {9.0, 10.0, {1.0, 1.0}, "k = 0: survive 0, first exit"},
      {0.0, 1.0, {0.0, 1e9}, "tiny k: 1 + k² rounds to 1, survive 0"},
      // One factor is never below about 2^-53, so the second exit
      // (1 - survive == 1 with survive > 0) needs two: it fires at step 2
      // of the memo's extension below.
      {0.0, 3e-5, {0.0, 1.0}, "k ≈ 3e-5: second exit at I = 2"},
      {1.0, 10.0, {0.5, 0.0}, "σ = 0, drift below T"},
      {9.0, 10.0, {1.5, 0.0}, "σ = 0, drift crosses T"},
      {9.0, 10.0, {1.0, 0.0}, "σ = 0, margin exactly 0"},
      {nan, 10.0, {0.1, 1.0}, "NaN value"},
      {1.0, 10.0, {nan, 1.0}, "NaN mean"},
      {1.0, 10.0, {0.1, nan}, "NaN σ"},
      {1.0, inf, {0.1, 1.0}, "infinite threshold"},
      {-inf, 10.0, {0.1, 1.0}, "value at −inf"},
      {1.0, 10.0, {0.1, 1e-310}, "subnormal σ"},
  };
  for (const Case& c : cases) {
    const double expected = scalar_reference(c.v, c.t, c.s, 1);
    EXPECT_BITEQ(beta_bound_chebyshev(c.v, c.t, c.s, 1), expected) << c.what;
    // Through the memo: the one-step path stores what the loop (or the
    // certificate) stored, so every later interval extends it exactly.
    BetaBoundCache cache;
    EXPECT_BITEQ(beta_bound_chebyshev(c.v, c.t, c.s, 1, &cache), expected)
        << c.what;
    for (Tick i : {Tick{1}, Tick{2}, Tick{17}, Tick{40}}) {
      EXPECT_BITEQ(beta_bound_chebyshev(c.v, c.t, c.s, i, &cache),
                   scalar_reference(c.v, c.t, c.s, i))
          << c.what << " I=" << i;
    }
  }
  // A random sweep around the threshold, where β̄(1) takes every regime.
  Rng rng(25);
  for (int n = 0; n < 20000; ++n) {
    const double v = rng.normal(0.0, 5.0);
    const DeltaStats s{rng.normal(0.0, 2.0),
                       n % 10 == 0 ? 0.0 : std::fabs(rng.normal(0.0, 3.0))};
    ASSERT_BITEQ(beta_bound_chebyshev(v, 4.0, s, 1),
                 scalar_reference(v, 4.0, s, 1))
        << "v=" << v << " mean=" << s.mean << " sigma=" << s.stddev;
  }
}

// --- e_i at a zero bound --------------------------------------------------

TEST(SamplerAllowance, ZeroBoundIsReturnedBitForBit) {
  for (const double gamma : {0.0, 0.2, 0.5, 0.999, 1.0 - 0x1p-53}) {
    for (const double beta : {0.0, -0.0}) {
      EXPECT_BITEQ(AdaptiveSampler::allowance_for(beta, gamma),
                   beta / (1.0 - gamma))
          << "beta=" << beta << " gamma=" << gamma;
      EXPECT_BITEQ(AdaptiveSampler::allowance_for(beta, gamma), beta);
    }
    for (const double beta : {1e-300, 0.004, 0.5, 1.0}) {
      EXPECT_BITEQ(AdaptiveSampler::allowance_for(beta, gamma),
                   beta / (1.0 - gamma));
    }
  }
  // Through a sampler whose bound is certified zero.
  AdaptiveSamplerOptions options;
  AdaptiveSampler sampler(options, 1e12);
  for (int i = 0; i < 4; ++i) sampler.observe(1.0, 1);
  ASSERT_BITEQ(sampler.last_beta(), 0.0);
  EXPECT_BITEQ(sampler.allowance_to_grow(), 0.0 / (1.0 - options.slack_ratio));
}

// --- the incremental memo ---------------------------------------------

TEST(KernelCache, AimdAccessPatternStaysIdentical) {
  // The sampler's real access pattern: same key, interval grows by one,
  // occasionally resets to 1, occasionally re-asks the same interval.
  const DeltaStats s{0.01, 0.8};
  const double v = 2.0, t = 60.0;
  BetaBoundCache cache;
  for (int round = 0; round < 3; ++round) {
    for (Tick i = 1; i <= 128; ++i) {
      ASSERT_BITEQ(beta_bound_chebyshev(v, t, s, i, &cache),
                   scalar_reference(v, t, s, i))
          << "round=" << round << " I=" << i;
      // Same-interval re-evaluation (a pure memo hit) must also agree.
      ASSERT_BITEQ(beta_bound_chebyshev(v, t, s, i, &cache),
                   scalar_reference(v, t, s, i));
    }
  }
}

TEST(KernelCache, ShrinkingIntervalRecomputes) {
  const DeltaStats s{0.05, 1.2};
  BetaBoundCache cache;
  for (Tick i : {Tick{100}, Tick{3}, Tick{40}, Tick{1}, Tick{99}}) {
    ASSERT_BITEQ(beta_bound_chebyshev(4.0, 80.0, s, i, &cache),
                 scalar_reference(4.0, 80.0, s, i))
        << "I=" << i;
  }
}

TEST(KernelCache, KeyChangeInvalidates) {
  BetaBoundCache cache;
  const DeltaStats a{0.1, 1.0}, b{0.1, 1.5};
  ASSERT_BITEQ(beta_bound_chebyshev(1.0, 30.0, a, 20, &cache),
               scalar_reference(1.0, 30.0, a, 20));
  // stddev changed under the same pointer: stale reuse would be visible.
  ASSERT_BITEQ(beta_bound_chebyshev(1.0, 30.0, b, 21, &cache),
               scalar_reference(1.0, 30.0, b, 21));
  // value changed:
  ASSERT_BITEQ(beta_bound_chebyshev(2.0, 30.0, b, 22, &cache),
               scalar_reference(2.0, 30.0, b, 22));
  // threshold changed:
  ASSERT_BITEQ(beta_bound_chebyshev(2.0, 29.0, b, 23, &cache),
               scalar_reference(2.0, 29.0, b, 23));
}

TEST(KernelCache, SaturatedThenShorterInterval) {
  // Saturate the memo at a long interval, then ask for a shorter one whose
  // true result is NOT saturated: the memo must not round-trip the 1.0.
  const DeltaStats s{0.4, 0.8};
  BetaBoundCache cache;
  const double v = 0.0, t = 20.0;
  ASSERT_BITEQ(beta_bound_chebyshev(v, t, s, 200, &cache),
               scalar_reference(v, t, s, 200));
  for (Tick i = 1; i <= 30; ++i) {
    ASSERT_BITEQ(beta_bound_chebyshev(v, t, s, i, &cache),
                 scalar_reference(v, t, s, i))
        << "I=" << i;
  }
}

TEST(KernelCache, CertificateExtensionKeepsResult) {
  // Quiet regime: first evaluation certifies 0.0, growing I extends via
  // the range certificate without touching the stored product.
  const DeltaStats s{0.0, 0.1};
  BetaBoundCache cache;
  for (Tick i = 1; i <= 128; ++i) {
    ASSERT_BITEQ(beta_bound_chebyshev(0.0, 1e11, s, i, &cache), 0.0);
  }
}

// --- estimator layer ----------------------------------------------------

/// Feeds both estimators the same walk; returns them warmed up.
void feed(ViolationLikelihoodEstimator& est, std::uint64_t seed, int n) {
  Rng rng(seed);
  double v = 0.0;
  for (int i = 0; i < n; ++i) {
    v += rng.normal(0.05, 0.4);
    est.observe(v, 1);
  }
}

TEST(KernelEstimator, BetaBoundMatchesScalarFlag) {
  // The name is kept for test-ID continuity; there is no scalar flag. The
  // estimator's kernel-backed beta_bound must equal the literal loop
  // (beta_bound_with + chebyshev_step_bound, called directly) over the same
  // estimator state, memo warm or cold.
  ViolationLikelihoodEstimator est;
  feed(est, 31, 300);
  const auto stats = est.delta_stats();
  ASSERT_TRUE(stats.has_value());
  for (Tick i : {Tick{1}, Tick{5}, Tick{40}, Tick{128}}) {
    for (double t : {5.0, 50.0, 1e6}) {
      ASSERT_BITEQ(est.beta_bound(t, i),
                   scalar_reference(*est.last_value(), t, *stats, i))
          << "T=" << t << " I=" << i;
    }
  }
}

TEST(KernelEstimator, GaussianPathUnaffected) {
  ViolationLikelihoodEstimator::Options options;
  options.bound = ViolationLikelihoodEstimator::Bound::kGaussian;
  ViolationLikelihoodEstimator est(options);
  feed(est, 47, 200);
  const auto stats = est.delta_stats();
  ASSERT_TRUE(stats.has_value());
  const double direct = beta_bound_with(*est.last_value(), 25.0, *stats, 12,
                                        gaussian_step_bound);
  EXPECT_BITEQ(est.beta_bound(25.0, 12), direct);
}

TEST(KernelEstimator, EveryLaneMatchesTheLiteralLoop) {
  // A fleet of estimator states as a coordinator's sample tick meets them:
  // warm Chebyshev estimators at assorted intervals, one cold estimator
  // and one Gaussian ablation estimator. Each one's beta_bound must be its
  // bound's literal loop, called directly, or the cold-start 1.0.
  ViolationLikelihoodEstimator::Options gauss_opt;
  gauss_opt.bound = ViolationLikelihoodEstimator::Bound::kGaussian;

  std::vector<std::unique_ptr<ViolationLikelihoodEstimator>> ests;
  for (int m = 0; m < 12; ++m) {
    ests.push_back(std::make_unique<ViolationLikelihoodEstimator>());
    feed(*ests.back(), 100 + static_cast<std::uint64_t>(m), 50 + 20 * m);
  }
  ests.push_back(std::make_unique<ViolationLikelihoodEstimator>());  // cold
  ests.push_back(std::make_unique<ViolationLikelihoodEstimator>(gauss_opt));
  feed(*ests.back(), 999, 120);

  const double threshold = 40.0;
  for (std::size_t m = 0; m < ests.size(); ++m) {
    const auto interval = static_cast<Tick>(1 + 11 * m % 64);
    const double beta = ests[m]->beta_bound(threshold, interval);
    const auto stats = ests[m]->delta_stats();
    if (m == 12) {
      EXPECT_BITEQ(beta, 1.0);  // cold start: the conservative bound
    } else if (m == ests.size() - 1) {
      ASSERT_BITEQ(beta, beta_bound_with(*ests[m]->last_value(), threshold,
                                         *stats, interval,
                                         gaussian_step_bound));
    } else {
      ASSERT_BITEQ(beta, scalar_reference(*ests[m]->last_value(), threshold,
                                          *stats, interval))
          << "estimator " << m;
    }
  }
}

// --- whole-run regression: every decision against the literal loop -----

std::vector<TimeSeries> walk_series(int monitors, Tick ticks,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TimeSeries> series;
  for (int m = 0; m < monitors; ++m) {
    TimeSeries s(static_cast<std::size_t>(ticks));
    double x = 0.0;
    for (Tick t = 0; t < ticks; ++t) {
      x = 0.85 * x + rng.normal(0.0, 0.4);
      s[static_cast<std::size_t>(t)] = x;
    }
    series.push_back(std::move(s));
  }
  return series;
}

TEST(ScalarBetaRegression, WholeRunIsByteIdenticalEitherWay) {
  // The name is kept for test-ID continuity; there is no scalar switch to
  // flip, the run is checked against the literal loop called directly.
  // 16 monitors: scheduled steps drain whole ticks at first and sparse
  // ones later, and polls force-sample through the estimator. Each
  // sample evaluates β̄ exactly once, at the interval the
  // sampler held before the sample, over the estimator state right after
  // it; that value must be the literal loop's, bit for bit.
  const Tick ticks = 4000;
  const auto series = walk_series(16, ticks, 321);
  TaskSpec spec;
  spec.global_threshold =
      TimeSeries::sum(series).threshold_for_selectivity(2.0);
  spec.error_allowance = 0.02;
  spec.max_interval = 12;
  spec.updating_period = 500;
  const auto locals = split_threshold(spec.global_threshold, series.size());

  std::vector<std::unique_ptr<SeriesSource>> sources;
  std::vector<std::unique_ptr<Monitor>> monitors;
  for (std::size_t i = 0; i < series.size(); ++i) {
    sources.push_back(std::make_unique<SeriesSource>(series[i]));
    monitors.push_back(std::make_unique<Monitor>(
        static_cast<MonitorId>(i), *sources.back(),
        spec.sampler_options(spec.error_allowance), locals[i]));
  }
  Coordinator coordinator(spec, std::move(monitors),
                          std::make_unique<AdaptiveAllocation>());

  std::vector<Tick> interval(series.size());
  std::vector<std::int64_t> ops(series.size(), 0);
  std::int64_t checked = 0;
  for (Tick t = 0; t < ticks; ++t) {
    for (std::size_t i = 0; i < series.size(); ++i)
      interval[i] = coordinator.monitor(i).interval();
    coordinator.run_tick(t);
    for (std::size_t i = 0; i < series.size(); ++i) {
      const Monitor& m = coordinator.monitor(i);
      if (m.total_ops() == ops[i]) continue;  // not sampled (or cached)
      ops[i] = m.total_ops();
      const auto& est = m.sampler().estimator();
      const double expected =
          est.has_statistics()
              ? scalar_reference(*est.last_value(), m.local_threshold(),
                                 *est.delta_stats(), interval[i])
              : 1.0;  // cold start
      ASSERT_BITEQ(m.sampler().last_beta(), expected)
          << "monitor " << i << " tick " << t;
      ++checked;
    }
  }
  ASSERT_GT(coordinator.global_polls(), 0);
  EXPECT_GT(checked, 4000);
}

}  // namespace
}  // namespace volley
