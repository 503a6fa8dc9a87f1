#include "trace/generators.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace volley {

DiurnalCurve::DiurnalCurve(Tick period, double depth, Tick phase)
    : period_(period), depth_(depth), phase_(phase) {
  if (period < 1) throw std::invalid_argument("DiurnalCurve: period >= 1");
  if (depth < 0.0 || depth >= 1.0)
    throw std::invalid_argument("DiurnalCurve: depth in [0,1)");
}

double DiurnalCurve::multiplier(Tick t) const {
  const double angle = 2.0 * std::numbers::pi *
                       static_cast<double>(t - phase_) /
                       static_cast<double>(period_);
  return 1.0 - depth_ * (0.5 - 0.5 * std::cos(angle));
}

OuProcess::OuProcess(const Options& options)
    : options_(options), x_(options.start) {
  if (options.theta <= 0.0 || options.theta > 1.0)
    throw std::invalid_argument("OuProcess: theta in (0,1]");
  if (options.sigma < 0.0) throw std::invalid_argument("OuProcess: sigma >= 0");
  if (!(options.lo < options.hi))
    throw std::invalid_argument("OuProcess: lo < hi");
  x_ = std::clamp(x_, options_.lo, options_.hi);
}

double OuProcess::next(Rng& rng) {
  x_ += options_.theta * (options_.mean - x_) +
        rng.normal(0.0, options_.sigma);
  x_ = std::clamp(x_, options_.lo, options_.hi);
  return x_;
}

BurstProcess::BurstProcess(const Options& options, Rng& rng)
    : options_(options) {
  if (options.mean_gap <= 0.0)
    throw std::invalid_argument("BurstProcess: mean_gap > 0");
  if (options.ramp < 0 || options.plateau < 0 || options.decay < 0)
    throw std::invalid_argument("BurstProcess: non-negative phases");
  if (options.ramp + options.plateau + options.decay < 1)
    throw std::invalid_argument("BurstProcess: episode length >= 1");
  if (options.peak_lo < 0.0 || options.peak_hi < options.peak_lo)
    throw std::invalid_argument("BurstProcess: 0 <= peak_lo <= peak_hi");
  schedule_next(rng);
}

void BurstProcess::schedule_next(Rng& rng) {
  until_start_ =
      1 + static_cast<Tick>(rng.exponential(1.0 / options_.mean_gap));
}

double BurstProcess::next(Rng& rng) {
  if (remaining_ > 0) {
    const Tick elapsed = episode_len_ - remaining_;
    double intensity;
    if (elapsed < options_.ramp) {
      intensity = peak_ * static_cast<double>(elapsed + 1) /
                  static_cast<double>(options_.ramp);
    } else if (elapsed < options_.ramp + options_.plateau) {
      intensity = peak_;
    } else {
      const Tick into_decay = elapsed - options_.ramp - options_.plateau;
      intensity = peak_ * static_cast<double>(options_.decay - into_decay) /
                  static_cast<double>(std::max<Tick>(options_.decay, 1));
    }
    --remaining_;
    if (remaining_ == 0) schedule_next(rng);
    return std::max(intensity, 0.0);
  }
  if (--until_start_ <= 0) {
    episode_len_ = options_.ramp + options_.plateau + options_.decay;
    remaining_ = episode_len_;
    peak_ = rng.uniform(options_.peak_lo, options_.peak_hi);
  }
  return 0.0;
}

}  // namespace volley
