// Violation-likelihood estimation (paper Section III-A).
//
// This header is the single authoritative statement of the β̄ math; every
// other file (adaptive_sampler.h, likelihood_kernel.h, DESIGN.md §11)
// references it rather than restating the derivation.
//
// Model: delta, the change between two samples taken one default interval Id
// apart, is a time-independent random variable with (online-estimated) mean
// mu and standard deviation sigma. The probability that the value i default
// intervals after the current sample v exceeds the threshold T is bounded by
// the one-sided Chebyshev inequality (Inequality 1):
//
//     P[v + i*delta > T] = P[delta > (T - v)/i] <= 1 / (1 + k_i^2),
//     k_i = (T - v - i*mu) / (i*sigma),          valid only when k_i > 0.
//
// The mis-detection rate of sampling interval I (Definition 2) is the
// probability that at least one of the I skipped/next points violates;
// treating the per-step events through their individual bounds gives
// (Inequality 3):
//
//     beta(I) = 1 - prod_{i=1..I} (1 - P[v + i*delta > T])
//            <= 1 - prod_{i=1..I} k_i^2 / (1 + k_i^2)   =: beta_bound(I)
//
// Conservative edge handling (all err toward predicting a violation):
//  * k_i <= 0 (the mean drift alone reaches T)  -> per-step bound = 1.
//  * sigma == 0 (deterministic drift)           -> bound = 0 or 1 exactly.
//  * too few delta observations                 -> bound = 1 (cold start
//    pins the sampler at the default interval until statistics exist).
//
// Evaluation contract: `beta_bound_with` below — the literal product loop
// with its saturation early-exit — is the semantic *and bitwise* definition
// of β̄'s value. The fast paths in likelihood_kernel.h (zero-β̄ certificate,
// incremental prefix reuse, blocked/SIMD loop) are pure accelerations:
// they must return the identical double for every input,
// property-tested in tests/test_likelihood_kernel.cpp against direct calls
// of this loop. Numerics notes, including why the incremental form keeps a
// product prefix rather than a log-space sum, live in DESIGN.md §11.
//
// `GaussianLikelihoodEstimator` is the ablation comparator (bench_ablation_
// estimator): identical interface but assumes delta ~ Normal(mu, sigma),
// giving much tighter (riskier) per-step probabilities than Chebyshev.
//
// Units: values and thresholds are in the monitored metric's own unit
// (requests/s, % CPU, ...); intervals and gaps are integer multiples of the
// default sampling interval Id (type Tick); all probabilities/bounds are
// dimensionless in [0, 1].
//
// Thread-safety: none. An estimator belongs to one monitor and is driven
// from that monitor's sampling loop; confine each instance to one thread.
// The embedded BetaBoundCache memo inherits that confinement.
#pragma once

#include <cstdint>
#include <optional>

#include "common/clock.h"
#include "stats/online_stats.h"

namespace volley {

/// Statistics snapshot used for one bound evaluation.
struct DeltaStats {
  double mean{0.0};
  double stddev{0.0};
};

/// Memo of the most recent Chebyshev β̄ evaluation for one estimator
/// state (the kernel's incremental layer, DESIGN.md §11). Valid while the
/// (value, threshold, mean, stddev) key is bitwise unchanged; `interval`
/// == 0 means empty. `survive` is the running survival product after
/// `interval` factors; `saturated` records that the baseline's early-exit
/// fired at step `interval` (every larger I then yields exactly 1.0).
struct BetaBoundCache {
  double value{0.0};
  double threshold{0.0};
  DeltaStats stats{};
  Tick interval{0};
  double survive{1.0};
  double result{1.0};
  bool saturated{false};

  void invalidate() { interval = 0; }
  bool matches(double v, double t, const DeltaStats& s) const {
    return interval > 0 && value == v && threshold == t &&
           stats.mean == s.mean && stats.stddev == s.stddev;
  }
};

/// One-sided Chebyshev bound on P[v + i*delta > T]. Pure function — the
/// estimator classes supply the delta statistics.
double chebyshev_step_bound(double value, double threshold,
                            const DeltaStats& stats, Tick i);

/// Exact per-step probability under delta ~ Normal(mean, stddev^2).
double gaussian_step_bound(double value, double threshold,
                           const DeltaStats& stats, Tick i);

/// beta_bound(I) given a per-step bound function.
template <typename StepFn>
double beta_bound_with(double value, double threshold, const DeltaStats& stats,
                       Tick interval, StepFn&& step) {
  double survive = 1.0;  // probability that no step violates
  for (Tick i = 1; i <= interval; ++i) {
    const double p = step(value, threshold, stats, i);
    survive *= (1.0 - p);
    if (survive <= 0.0) return 1.0;
    // Saturation early-exit: every remaining factor is in [0, 1], so
    // `survive` can only shrink further — once `1.0 - survive` already
    // rounds to exactly 1.0 in double precision, the final result is
    // determined and the remaining (interval - i) step evaluations are
    // pure waste. Bit-identical to the full product by construction.
    if (1.0 - survive == 1.0) return 1.0;
  }
  return 1.0 - survive;
}

/// Online violation-likelihood estimator: maintains the delta statistics
/// (with the paper's 1000-sample restart policy) and evaluates beta_bound.
class ViolationLikelihoodEstimator {
 public:
  enum class Bound { kChebyshev, kGaussian };

  struct Options {
    std::int64_t stats_window{1000};  // restart n when it exceeds this
    std::int64_t stats_warmup{8};     // see WindowedStats
    std::int64_t min_observations{2}; // below this, beta_bound == 1
    Bound bound{Bound::kChebyshev};

    bool operator==(const Options&) const = default;
  };

  ViolationLikelihoodEstimator() : ViolationLikelihoodEstimator(Options{}) {}
  explicit ViolationLikelihoodEstimator(const Options& options);

  /// Feeds one observation. `value` was sampled `gap` ticks after the
  /// previous sample; the update uses the per-Id normalized change
  /// delta_hat = (value - previous) / gap (Section III-B). The first call
  /// only seeds the previous value.
  void observe(double value, Tick gap);

  /// Upper bound on the mis-detection rate beta(I) for the given sampling
  /// interval, from the most recent observation. Returns 1 while fewer than
  /// `min_observations` delta values have been seen. Chebyshev evaluations
  /// go through the likelihood kernel (certificate + incremental memo +
  /// SIMD loop), bitwise identical to the literal loop (the kernel's
  /// identity contract).
  double beta_bound(double threshold, Tick interval) const;

  /// P[next value at +i ticks exceeds threshold] bound (Definition 1 for a
  /// horizon of i ticks).
  double violation_likelihood(double threshold, Tick i) const;

  bool has_statistics() const;
  std::optional<DeltaStats> delta_stats() const;
  std::optional<double> last_value() const { return last_value_; }
  std::int64_t delta_count() const { return stats_.total_count(); }

  void reset();

 private:
  /// One delta-statistics resolution for a whole bound evaluation: checks
  /// the cold-start guards and snapshots mean/stddev from a single pass
  /// over the windowed estimator (beta_bound and violation_likelihood call
  /// this exactly once per evaluation).
  std::optional<DeltaStats> snapshot_stats() const;

  // Only the options nothing else keeps: the window and warm-up live in
  // stats_, so the estimator stores its configuration once.
  std::int64_t min_observations_;
  Bound bound_;
  WindowedStats stats_;
  std::optional<double> last_value_;
  // Kernel memo; logically state of the evaluation, not of the estimate,
  // hence mutable behind the const beta_bound.
  mutable BetaBoundCache cache_;
};

}  // namespace volley
