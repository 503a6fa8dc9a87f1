// Monitor-level violation-likelihood based sampling adaptation
// (paper Section III-B, Figure 2).
//
// The sampler owns a ViolationLikelihoodEstimator and applies the paper's
// AIMD-like rule after every sampling operation. The mis-detection bound
// beta = beta_bound(I) is defined — mathematically and bitwise — in
// likelihood.h (Inequalities 1 and 3); this header deliberately does not
// restate that derivation. The rule itself:
//
//   if beta > err:                  // unsafe -> multiplicative decrease
//       I <- 1 (the default interval), streak <- 0
//   elif beta <= (1 - gamma) * err: // comfortably safe
//       if ++streak >= p: I <- min(I + 1, Im), streak <- 0   // additive inc.
//   else:                           // safe but within the slack band
//       streak <- 0
//
// Defaults gamma = 0.2 and p = 20 are the paper's recommended practice.
// All intervals are integer multiples of the default interval Id (Tick).
//
// The sampler also exports the two statistics the distributed coordination
// layer needs (Section IV-B):
//   r_i = 1/I - 1/(I+1)   cost-reduction gain of growing the interval by one
//                          (zero when already at Im — no growth possible);
//   e_i = beta / (1-gamma) error allowance that growth would require
//                          (inverts the increase rule above).
//
// Units: values/thresholds are in the monitored metric's unit; intervals
// are integer multiples of Id (Tick); err, gamma, beta are dimensionless
// probabilities in [0, 1].
//
// Thread-safety: none — one sampler per monitor, driven from one thread.
// Every observe() also feeds the process-global obs/ registry (counters
// volley_sampler_*, histograms of chosen interval and beta bound); those
// instruments are thread-safe, so concurrent monitors can share them.
#pragma once

#include <cstdint>

#include "core/likelihood.h"
#include "core/types.h"

namespace volley {

struct AdaptiveSamplerOptions {
  double error_allowance{0.01};  // err, in [0, 1]
  double slack_ratio{0.2};       // gamma, in [0, 1)
  int patience{20};              // p, consecutive safe checks before growth
  Tick max_interval{40};         // Im, in default intervals
  ViolationLikelihoodEstimator::Options estimator{};

  void validate() const;
};

class AdaptiveSampler {
 public:
  AdaptiveSampler(const AdaptiveSamplerOptions& options, double threshold);

  /// Records a sampled value observed `gap` ticks after the previous sample
  /// and applies the adaptation rule. Returns the interval (ticks) to wait
  /// before the next scheduled sample.
  Tick observe(double value, Tick gap);

  /// Current sampling interval in ticks.
  Tick interval() const { return interval_; }

  /// beta_bound(I) computed at the most recent observe() call; 1 before any.
  double last_beta() const { return last_beta_; }

  double threshold() const { return threshold_; }
  void set_threshold(double threshold) { threshold_ = threshold; }

  /// Im: the hard cap on the sampling interval, in default intervals. The
  /// coordinator's due-index sizes its bucket ring from this.
  Tick max_interval() const { return max_interval_; }

  double error_allowance() const { return error_allowance_; }
  /// Used by the coordinator when reallocating the task-level allowance.
  void set_error_allowance(double err);

  /// r_i of Section IV-B; zero when the interval is pinned at Im.
  double cost_reduction_gain() const;
  /// e_i of Section IV-B.
  double allowance_to_grow() const {
    return allowance_for(last_beta_, slack_ratio_);
  }
  /// β̄ / (1 − γ). A zero β̄ is returned as it is: 1 − γ is in (0, 1], so
  /// ±0 / (1 − γ) is the same ±0, and the quiet regime skips the division.
  static double allowance_for(double beta, double slack_ratio) {
    if (beta == 0.0) return beta;
    return beta / (1.0 - slack_ratio);
  }

  const ViolationLikelihoodEstimator& estimator() const { return estimator_; }
  int safe_streak() const { return safe_streak_; }

  /// Resets interval, streak and statistics (threshold and options remain).
  void reset();

 private:
  // The rule's own knobs; the estimator keeps its options itself, so each
  // monitor stores its configuration once.
  double error_allowance_;
  double slack_ratio_;
  Tick max_interval_;
  double threshold_;
  int patience_;
  int safe_streak_{0};
  ViolationLikelihoodEstimator estimator_;
  Tick interval_{1};
  double last_beta_{1.0};
};

}  // namespace volley
