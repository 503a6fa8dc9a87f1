#include "core/adaptive_sampler.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "obs/metrics.h"

namespace volley {

namespace {

/// The calling thread's cells in the current registry, re-resolved
/// whenever a scoped registry is installed (registration locks; the
/// per-observe bumps below are relaxed loads and stores on cells only this
/// thread writes).
struct SamplerMetrics {
  obs::CounterCell* observations;
  obs::CounterCell* resets;
  obs::CounterCell* growths;
  obs::HistogramCell* beta;

  static SamplerMetrics make(obs::MetricsRegistry& m) {
    return SamplerMetrics{
        &m.counter("volley_sampler_observations_total",
                   "Adaptation-rule evaluations (one per sampling operation)")
             .cell(),
        &m.counter("volley_sampler_interval_resets_total",
                   "Multiplicative decreases: beta_bound exceeded err, "
                   "interval reset to Id")
             .cell(),
        &m.counter("volley_sampler_interval_growths_total",
                   "Additive increases: p consecutive safe checks grew the "
                   "interval by one Id")
             .cell(),
        &m.histogram("volley_sampler_beta_bound", 0.0, 1.0, 20,
                     "Violation-likelihood bound beta_bound(I) at each "
                     "adaptation decision")
             .cell(),
    };
  }

  static const SamplerMetrics& get() { return obs::scoped_handles(&make); }
};

/// The chosen-interval histogram, with the upper bound derived from the
/// first-registering sampler's Im instead of the former hard cap of 64
/// (which silently funneled every interval of a large-Im configuration
/// into the overflow bucket). The bound is Im+1 rounded up to a multiple
/// of 64, one unit-width bin per interval (bins capped at 1024): rounding
/// keeps every configuration with Im <= 63 on the exact legacy 0-64x64
/// shape, so run-private registries with heterogeneous small Im stay
/// merge-compatible with their parent (Histogram::merge requires matching
/// shapes). Per MetricsRegistry semantics the shape is fixed by the first
/// registration in each registry; later samplers with a larger Im in the
/// same registry spill into overflow (visible in the snapshot's overflow
/// count). Documented in DESIGN.md's metric catalog. Returns the calling
/// thread's cell, like SamplerMetrics.
obs::HistogramCell& interval_histogram(Tick max_interval) {
  thread_local std::uint64_t owner_uid = 0;  // no registry has uid 0
  thread_local obs::HistogramCell* handle = nullptr;
  obs::MetricsRegistry& m = obs::metrics();
  if (m.uid() != owner_uid) {
    const Tick hi = (max_interval / 64 + 1) * 64;
    const auto bins =
        static_cast<std::size_t>(std::min<Tick>(hi, 1024));
    handle = &m.histogram("volley_sampler_interval_ticks", 0.0,
                          static_cast<double>(hi), bins,
                          "Sampling interval chosen after each observation, "
                          "in default intervals Id (upper bound derived "
                          "from max_interval at first registration)")
                  .cell();
    owner_uid = m.uid();
  }
  return *handle;
}

}  // namespace

void AdaptiveSamplerOptions::validate() const {
  if (error_allowance < 0.0 || error_allowance > 1.0)
    throw std::invalid_argument("AdaptiveSampler: err in [0,1]");
  if (slack_ratio < 0.0 || slack_ratio >= 1.0)
    throw std::invalid_argument("AdaptiveSampler: gamma in [0,1)");
  if (patience < 1)
    throw std::invalid_argument("AdaptiveSampler: patience >= 1");
  if (max_interval < 1)
    throw std::invalid_argument("AdaptiveSampler: max_interval >= 1");
}

AdaptiveSampler::AdaptiveSampler(const AdaptiveSamplerOptions& options,
                                 double threshold)
    : options_(options), threshold_(threshold),
      estimator_(options.estimator) {
  options_.validate();
}

Tick AdaptiveSampler::observe(double value, Tick gap) {
  estimator_.observe(value, gap);
  last_beta_ = estimator_.beta_bound(threshold_, interval_);

  const auto& om = SamplerMetrics::get();
  om.observations->inc();
  om.beta->observe(last_beta_);

  const double err = options_.error_allowance;
  if (last_beta_ > err) {
    // Estimated mis-detection rate exceeds the allowance: fall back to the
    // default interval immediately (multiplicative-decrease step).
    if (interval_ != 1) om.resets->inc();
    interval_ = 1;
    safe_streak_ = 0;
  } else if (last_beta_ <= (1.0 - options_.slack_ratio) * err) {
    if (++safe_streak_ >= options_.patience) {
      if (interval_ < options_.max_interval) {
        ++interval_;
        om.growths->inc();
      }
      safe_streak_ = 0;
    }
  } else {
    // Inside the slack band: acceptable, but growing would be risky.
    safe_streak_ = 0;
  }
  interval_histogram(options_.max_interval)
      .observe(static_cast<double>(interval_));
  return interval_;
}

void AdaptiveSampler::set_error_allowance(double err) {
  if (err < 0.0 || err > 1.0)
    throw std::invalid_argument("set_error_allowance: err in [0,1]");
  options_.error_allowance = err;
}

double AdaptiveSampler::cost_reduction_gain() const {
  if (interval_ >= options_.max_interval) return 0.0;
  const double i = static_cast<double>(interval_);
  return 1.0 / i - 1.0 / (i + 1.0);
}

double AdaptiveSampler::allowance_to_grow() const {
  return last_beta_ / (1.0 - options_.slack_ratio);
}

void AdaptiveSampler::reset() {
  estimator_.reset();
  interval_ = 1;
  safe_streak_ = 0;
  last_beta_ = 1.0;
}

}  // namespace volley
