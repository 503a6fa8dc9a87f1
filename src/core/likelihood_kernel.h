// Fast evaluation kernel for the Chebyshev mis-detection bound β̄(I)
// (DESIGN.md §11; the derivation itself lives in likelihood.h and is not
// repeated here).
//
// `beta_bound_with(value, threshold, stats, I, chebyshev_step_bound)` in
// likelihood.h is the *identity baseline*: an O(I) loop with two divisions
// per step. After the due index (DESIGN.md §10) made idle ticks O(1), that
// loop dominated every sample tick (ROADMAP "kill the β̄ bottleneck"). This
// kernel removes it with three layers, every one of which returns the
// **bitwise-identical** double the baseline would have returned:
//
//  1. Zero-β̄ certificate (O(1)). When every per-step survival factor
//     fl(1 - p_i) rounds to exactly 1.0 — the common case for a quiet
//     metric far below its threshold, which is precisely when adaptive
//     sampling has stretched I to Im — the whole product is exactly 1.0
//     and β̄ is exactly 0.0. Two endpoint evaluations of k_i certify this
//     (k is monotone in i), with a 2× headroom over the rounding threshold
//     and a conditioning guard on the margin subtraction; DESIGN.md §11
//     gives the ulp argument.
//
//  2. Incremental prefix reuse (O(ΔI)). A small per-estimator memo
//     (`BetaBoundCache`) keeps the survive product after the last
//     evaluation. While (value, threshold, mean, stddev) are bitwise
//     unchanged, re-evaluating at the same I is a lookup and at a larger I
//     extends the product from the cached prefix — the same multiply
//     sequence the baseline performs, hence bitwise identical. (A log-space
//     running sum Σ log(k_i²/(1+k_i²)) was considered and rejected:
//     exp(Σlog) is not the FP product, so it cannot meet the identity
//     contract; the prefix-product memo gives the same O(1)/O(ΔI)
//     re-evaluation for the AIMD access pattern. See DESIGN.md §11.)
//
//  3. Blocked/SIMD step loop. When the loop must run, per-step factors are
//     computed block-wise in a branch-light form the compiler can
//     vectorize (`#pragma omp simd` when built with -fopenmp-simd; plain
//     scalar code otherwise — selected at build time, no runtime dispatch),
//     then folded serially in i order so the product and its saturation
//     early-exits match the baseline step for step.
//
// `beta_bound_batch` evaluates a structure-of-arrays fleet of lanes in one
// call — the coordinator's sample-tick drain feeds every due monitor into
// it, so a phase-locked fleet is one kernel invocation instead of 50k
// virtual-call chains. Lanes carry the estimator options that matter
// (cold start, Gaussian ablation bound) so a batch evaluation is exactly
// `ViolationLikelihoodEstimator::beta_bound` per lane.
//
// Identity baseline: tests/test_likelihood_kernel.cpp calls
// `beta_bound_with(..., chebyshev_step_bound)` — the literal Inequality 3
// loop — directly and asserts kernel == baseline bitwise across a property
// sweep.
//
// Thread-safety: a `BetaBoundCache` belongs to one estimator and inherits its confinement
// (one monitor, one thread). A `BetaBatch` is scratch owned by one
// coordinator; concurrent coordinator shards must each own their batch —
// the kernel itself keeps no mutable global state, so shards never
// contend (the contract the sharding work in ROADMAP relies on).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "core/likelihood.h"

namespace volley {

/// Chebyshev β̄(I), bitwise identical to
/// `beta_bound_with(value, threshold, stats, interval, chebyshev_step_bound)`.
/// `cache` may be null (no reuse across calls).
double beta_bound_chebyshev(double value, double threshold,
                            const DeltaStats& stats, Tick interval,
                            BetaBoundCache* cache = nullptr);

/// Structure-of-arrays lane set for one batch evaluation. Vectors are
/// parallel; `clear()` keeps capacity so a reused batch allocates nothing
/// in steady state (same discipline as the due index's scratch).
struct BetaBatch {
  std::vector<double> value;
  std::vector<double> threshold;
  std::vector<double> mean;
  std::vector<double> stddev;
  std::vector<Tick> interval;
  std::vector<std::uint8_t> cold;      // 1: no statistics yet -> β̄ = 1
  std::vector<std::uint8_t> gaussian;  // 1: kGaussian ablation bound
  std::vector<BetaBoundCache*> cache;  // per-lane memo, entries may be null
  std::vector<double> beta;            // output, sized by beta_bound_batch

  void clear();
  std::size_t size() const { return value.size(); }
  void push_lane(double v, double t, const DeltaStats& s, Tick i,
                 bool is_cold, bool is_gaussian, BetaBoundCache* memo);
};

/// Evaluates every lane: per lane the result is bitwise identical to what
/// `ViolationLikelihoodEstimator::beta_bound` would return for that
/// estimator state — including the cold-start 1.0 and the Gaussian
/// ablation path.
void beta_bound_batch(BetaBatch& batch);

}  // namespace volley
