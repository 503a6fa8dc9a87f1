// Online mean/variance estimation (Welford / Knuth TAOCP vol. 2), as used by
// the violation-likelihood estimator of Section III-B:
//
//   mu_n    = mu_{n-1} + (delta - mu_{n-1}) / n
//   sigma^2_n = ((n-1) sigma^2_{n-1} + (delta - mu_n)(delta - mu_{n-1})) / n
//
// The paper additionally *restarts* the statistics (n = 0) whenever n exceeds
// a window (1000 samples) so the estimate tracks the recent delta
// distribution; `WindowedStats` implements that policy on top of
// `OnlineStats`. To avoid the cold-start where a freshly restarted estimator
// has seen 0-1 samples, the windowed variant keeps serving the *previous*
// window's statistics until the new window has a configurable warm-up count.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>

namespace volley {

/// Numerically stable streaming mean/variance.
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double d1 = x - mean_;
    mean_ += d1 / static_cast<double>(n_);
    const double d2 = x - mean_;
    m2_ += d1 * d2;
  }

  /// Removes nothing; restart from scratch.
  void reset();

  std::int64_t count() const { return n_; }
  /// Mean of the observed samples; 0 when empty (matches the paper's
  /// convention of starting mu at 0).
  double mean() const { return mean_; }
  /// Population variance (divide by n, per the paper's update rule).
  double variance() const {
    if (n_ == 0) return 0.0;
    return m2_ / static_cast<double>(n_);
  }
  double stddev() const { return std::sqrt(variance()); }

  /// Merge another estimator's samples into this one (parallel Welford).
  void merge(const OnlineStats& other);

 private:
  std::int64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};  // sum of squared deviations from the mean
};

/// OnlineStats with the paper's periodic-restart policy.
///
/// `window` is the restart threshold (paper: 1000). `warmup` is the number
/// of samples the new window must accumulate before its statistics replace
/// the previous window's (we use 8 by default; the paper restarts abruptly,
/// which briefly leaves mu/sigma undefined — the warm-up is our documented
/// smoothing of that edge and is ablatable by setting warmup = 0).
class WindowedStats {
 public:
  explicit WindowedStats(std::int64_t window = 1000, std::int64_t warmup = 8);

  void add(double x) {
    if (current_.count() >= window_) {
      previous_ = current_;
      has_previous_ = true;
      current_.reset();
    }
    current_.add(x);
    ++total_;
  }
  void reset();

  /// Statistics of the active window, falling back to the previous window
  /// during warm-up. Empty optional when no data has ever been seen.
  std::optional<double> mean() const;
  std::optional<double> stddev() const;

  /// Both statistics from one resolution of the active window — the
  /// hot-path form (beta_bound evaluates this once per call chain instead
  /// of resolving mean and stddev independently).
  struct Snapshot {
    double mean{0.0};
    double stddev{0.0};
  };
  std::optional<Snapshot> snapshot() const {
    const OnlineStats& s = active();
    if (s.count() == 0) return std::nullopt;
    return Snapshot{s.mean(), s.stddev()};
  }

  std::int64_t window() const { return window_; }
  /// Samples in the currently accumulating window.
  std::int64_t current_count() const { return current_.count(); }
  /// Total samples ever observed.
  std::int64_t total_count() const { return total_; }

 private:
  const OnlineStats& active() const {
    if (has_previous_ && current_.count() < warmup_) return previous_;
    return current_;
  }

  std::int64_t window_;
  std::int64_t warmup_;
  OnlineStats current_;
  OnlineStats previous_;
  bool has_previous_{false};
  std::int64_t total_{0};
};

}  // namespace volley
