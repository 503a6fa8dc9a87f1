#include "core/likelihood_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace volley {

namespace {

// `#pragma omp simd` when the build passes -fopenmp-simd (top-level CMake
// probes the flag and defines VOLLEY_OPENMP_SIMD); expands to nothing
// otherwise, leaving the identical scalar loop. No runtime dispatch: both
// variants execute the same expression sequence per element, so the
// selection cannot change results, only speed (DESIGN.md §11).
#if defined(VOLLEY_OPENMP_SIMD)
#define VOLLEY_SIMD _Pragma("omp simd")
#else
#define VOLLEY_SIMD
#endif

/// Factor block size: long enough to fill 2–8-wide double vectors and
/// amortize the loop overhead, short enough that the work thrown away
/// when a saturation early-exit lands mid-block stays negligible.
constexpr std::size_t kBlock = 16;

/// Every certified k satisfies k² ≥ 2^56, so p = fl(1/fl(1+fl(k²))) ≤
/// 2^-55.9 < 2^-54, and fl(1 - p) is exactly 1.0 under round-to-nearest
/// (ties at 2^-54 round to even, i.e. to 1.0). The 2× headroom over the
/// 2^27 the rounding argument needs absorbs every intermediate rounding
/// of k itself; see DESIGN.md §11 for the full ulp budget.
constexpr double kCertMinK = 0x1p28;

/// Conditioning floor for the margin subtraction T − v − i·μ: the margin
/// must carry at least 2^-20 of the subtraction's magnitude at both
/// endpoints. Margins are linear in i, so interior margins are bounded by
/// the endpoints and keep relative rounding error ≲ 2^-32 — far inside
/// the certificate's headroom. A cancellation-degenerate margin (smaller
/// than this floor) fails the certificate and takes the exact loop.
constexpr double kCertCondition = 0x1p-20;

/// True when fl(1 − p_i) == 1.0 for every step i in [lo, hi], making the
/// survive product over that range — and hence β̄'s value — bitwise
/// unchanged by those steps. k_i and the margin are monotone in i (their
/// derivatives have constant sign), so two endpoint checks bound the
/// interior. σ == 0 qualifies via the margin checks alone: each
/// deterministic-drift step with margin > 0 contributes an exact 1.0.
bool unit_factor_certificate(double tv, const DeltaStats& s, Tick lo,
                             Tick hi) {
  if (s.stddev < 0.0) return false;  // never produced by OnlineStats
  const Tick ends[2] = {lo, hi};
  for (const Tick e : ends) {
    const double di = static_cast<double>(e);
    const double drift = di * s.mean;
    const double margin = tv - drift;
    // Written as positive conditions so a NaN anywhere fails the
    // certificate and falls back to the exact loop.
    if (!(margin > kCertCondition * (std::fabs(tv) + std::fabs(drift))))
      return false;
    if (s.stddev > 0.0 && !(margin / (di * s.stddev) >= kCertMinK))
      return false;
  }
  return true;
}

/// Per-step survival factors fl(1 − chebyshev_step_bound(v, T, s, i)) for
/// i in [i0, i0+n), σ > 0 case. Mirrors chebyshev_step_bound's expression
/// sequence exactly — including NaN behavior: a NaN k fails `k <= 0`
/// there and falls through to the division, so the select keys on k <= 0.
void chebyshev_factors(double tv, const DeltaStats& s, Tick i0,
                       std::size_t n, double* out) {
  VOLLEY_SIMD
  for (std::size_t j = 0; j < n; ++j) {
    const double di = static_cast<double>(i0 + static_cast<Tick>(j));
    const double margin = tv - di * s.mean;
    const double k = margin / (di * s.stddev);
    const double p = 1.0 / (1.0 + k * k);
    out[j] = k <= 0.0 ? 0.0 : 1.0 - p;
  }
}

/// σ ≤ 0 (deterministic drift): per-step bound is 0 or 1 exactly, so the
/// factor is 1.0 or 0.0.
void deterministic_factors(double tv, const DeltaStats& s, Tick i0,
                           std::size_t n, double* out) {
  VOLLEY_SIMD
  for (std::size_t j = 0; j < n; ++j) {
    const double di = static_cast<double>(i0 + static_cast<Tick>(j));
    const double margin = tv - di * s.mean;
    out[j] = margin > 0.0 ? 1.0 : 0.0;
  }
}

struct LoopOutcome {
  double result{1.0};
  double survive{1.0};
  Tick reached{0};     // last step folded into `survive`
  bool saturated{false};
};

/// The baseline product loop, factors computed block-wise then folded
/// serially in i order with the baseline's two early-exit checks after
/// every multiply. Factors computed past an early-exit are discarded
/// (they have no side effects), so results match step for step.
LoopOutcome beta_loop(double tv, const DeltaStats& s, Tick from,
                      double survive0, Tick interval) {
  double factors[kBlock];
  LoopOutcome out;
  out.survive = survive0;
  Tick i = from;
  while (i <= interval) {
    const auto n = static_cast<std::size_t>(
        std::min<Tick>(static_cast<Tick>(kBlock), interval - i + 1));
    if (s.stddev <= 0.0) {
      deterministic_factors(tv, s, i, n, factors);
    } else {
      chebyshev_factors(tv, s, i, n, factors);
    }
    for (std::size_t j = 0; j < n; ++j) {
      out.survive *= factors[j];
      if (out.survive <= 0.0 || 1.0 - out.survive == 1.0) {
        out.result = 1.0;
        out.reached = i + static_cast<Tick>(j);
        out.saturated = true;
        return out;
      }
    }
    i += static_cast<Tick>(n);
  }
  out.result = 1.0 - out.survive;
  out.reached = interval;
  return out;
}

void store(BetaBoundCache* cache, double value, double threshold,
           const DeltaStats& stats, const LoopOutcome& out) {
  if (cache == nullptr) return;
  cache->value = value;
  cache->threshold = threshold;
  cache->stats = stats;
  cache->interval = out.reached;
  cache->survive = out.survive;
  cache->result = out.result;
  cache->saturated = out.saturated;
}

}  // namespace

double beta_bound_chebyshev(double value, double threshold,
                            const DeltaStats& stats, Tick interval,
                            BetaBoundCache* cache) {
  if (interval < 1)
    throw std::invalid_argument("beta_bound_chebyshev: interval >= 1");
  const double tv = threshold - value;

  if (cache != nullptr && cache->matches(value, threshold, stats)) {
    if (cache->saturated) {
      // The early-exit fired at step cache->interval; any I at or past it
      // exits at the same step with the same 1.0.
      if (interval >= cache->interval) return 1.0;
    } else if (interval == cache->interval) {
      return cache->result;
    } else if (interval > cache->interval) {
      // Extend the cached prefix: same multiply sequence the baseline
      // runs from scratch, continued from term cache->interval + 1. If
      // the remaining factors are certifiably all 1.0 the product — and
      // the already-rounded β̄ — is unchanged bit for bit.
      if (unit_factor_certificate(tv, stats, cache->interval + 1,
                                  interval)) {
        cache->interval = interval;
        return cache->result;
      }
      const LoopOutcome ext =
          beta_loop(tv, stats, cache->interval + 1, cache->survive, interval);
      store(cache, value, threshold, stats, ext);
      return ext.result;
    }
    // interval < cache->interval: the prefix cannot be un-multiplied;
    // fall through to a fresh evaluation (which refreshes the memo).
  }

  if (unit_factor_certificate(tv, stats, 1, interval)) {
    if (cache != nullptr) {
      cache->value = value;
      cache->threshold = threshold;
      cache->stats = stats;
      cache->interval = interval;
      cache->survive = 1.0;
      cache->result = 0.0;
      cache->saturated = false;
    }
    return 0.0;
  }

  const LoopOutcome full = beta_loop(tv, stats, 1, 1.0, interval);
  store(cache, value, threshold, stats, full);
  return full.result;
}

}  // namespace volley
