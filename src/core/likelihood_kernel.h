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
// Identity baseline: tests/test_likelihood_kernel.cpp calls
// `beta_bound_with(..., chebyshev_step_bound)` — the literal Inequality 3
// loop — directly and asserts kernel == baseline bitwise across a property
// sweep.
//
// Thread-safety: a `BetaBoundCache` belongs to one estimator and inherits
// its confinement (one monitor, one thread). The kernel itself keeps no
// mutable global state, so coordinator shards never contend.
#pragma once

#include "common/clock.h"
#include "core/likelihood.h"

namespace volley {

/// The certificate's bound on k. Every certified k satisfies k² ≥ 2^56, so
/// p = fl(1/fl(1+fl(k²))) ≤ 2^-55.9 < 2^-54, and fl(1 - p) is exactly 1.0
/// under round-to-nearest (ties at 2^-54 round to even, i.e. to 1.0). The
/// 2× headroom over the 2^27 the rounding argument needs absorbs every
/// intermediate rounding of k itself; see DESIGN.md §11 for the full ulp
/// budget.
inline constexpr double kCertMinK = 0x1p28;

/// The certificate's k test at one endpoint, k = margin / d ≥ kCertMinK
/// with d = fl(i·σ) > 0, in multiplicative form: kCertMinK·d is an exact
/// power-of-two scaling, so a pass implies fl(margin / d) ≥ kCertMinK by
/// monotone rounding, and an overflow to inf fails (DESIGN.md §11).
inline bool certificate_k_passes(double margin, double d) {
  return margin >= kCertMinK * d;
}

/// Chebyshev β̄(I), bitwise identical to
/// `beta_bound_with(value, threshold, stats, interval, chebyshev_step_bound)`.
/// `cache` may be null (no reuse across calls).
double beta_bound_chebyshev(double value, double threshold,
                            const DeltaStats& stats, Tick interval,
                            BetaBoundCache* cache = nullptr);

}  // namespace volley
