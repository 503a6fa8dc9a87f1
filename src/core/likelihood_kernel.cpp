#include "core/likelihood_kernel.h"

#include <cmath>
#include <stdexcept>

namespace volley {

namespace {

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
/// deterministic-drift step with margin > 0 contributes an exact 1.0. A
/// NaN σ fails: its factors are NaN, not 1.0.
bool unit_factor_certificate(double tv, const DeltaStats& s, Tick lo,
                             Tick hi) {
  // σ < 0 is never produced by OnlineStats; a NaN σ is, from a NaN or
  // infinite sample.
  if (!(s.stddev >= 0.0)) return false;
  const Tick ends[2] = {lo, hi};
  for (const Tick e : ends) {
    const double di = static_cast<double>(e);
    const double drift = di * s.mean;
    const double margin = tv - drift;
    // Written as positive conditions so a NaN anywhere fails the
    // certificate and falls back to the exact loop.
    if (!(margin > kCertCondition * (std::fabs(tv) + std::fabs(drift))))
      return false;
    if (s.stddev > 0.0 && !certificate_k_passes(margin, di * s.stddev))
      return false;
  }
  return true;
}

/// The survival factor fl(1 − chebyshev_step_bound(v, T, s, i)) at
/// di = i, with the same expression sequence: σ ≤ 0 (deterministic drift)
/// gives exactly 1.0 or 0.0; a k ≤ 0 gives 0.0; a NaN k fails `k <= 0`
/// there too and yields a NaN factor.
inline double survival_factor(double tv, const DeltaStats& s, double di) {
  const double margin = tv - di * s.mean;
  if (s.stddev <= 0.0) return margin > 0.0 ? 1.0 : 0.0;
  const double k = margin / (di * s.stddev);
  return k <= 0.0 ? 0.0 : 1.0 - 1.0 / (1.0 + k * k);
}

struct LoopOutcome {
  double result{1.0};
  double survive{1.0};
  Tick reached{0};     // last step folded into `survive`
  bool saturated{false};
};

/// The baseline product loop over steps [from, interval], continuing the
/// prefix product `survive`, with the baseline's two early-exit checks.
LoopOutcome beta_loop(double tv, const DeltaStats& s, Tick from,
                      double survive, Tick interval) {
  LoopOutcome out;
  out.survive = survive;
  for (Tick i = from; i <= interval; ++i) {
    out.survive *= survival_factor(tv, s, static_cast<double>(i));
    if (out.survive <= 0.0 || 1.0 - out.survive == 1.0) {
      out.reached = i;
      out.saturated = true;  // result keeps its 1.0
      return out;
    }
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

  // One step costs less than the certificate's two endpoint checks; a
  // factor the certificate would have passed is exactly 1.0, which leaves
  // the memo the certificate stores (survive 1, result 0).
  if (interval > 1 && unit_factor_certificate(tv, stats, 1, interval)) {
    store(cache, value, threshold, stats, LoopOutcome{0.0, 1.0, interval});
    return 0.0;
  }

  const LoopOutcome full = beta_loop(tv, stats, 1, 1.0, interval);
  store(cache, value, threshold, stats, full);
  return full.result;
}

}  // namespace volley
