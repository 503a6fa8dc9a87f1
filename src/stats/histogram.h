// Fixed-width binned histogram over a closed value range.
//
// Used by experiment accounting (distribution of sampling intervals chosen
// by the adaptive sampler, distribution of Dom0 CPU utilisation samples) and
// by tests that assert distributional properties of the trace generators.
// Out-of-range values are clamped into the edge bins and counted separately
// so callers can detect mis-sized ranges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace volley {

class Histogram {
 public:
  /// [lo, hi) split into `bins` equal-width bins.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add_n(double x, std::int64_t n);

  /// Adds every observation of `other` into this histogram. Both must share
  /// the same [lo, hi) range and bin count (throws otherwise); counts,
  /// under/overflow, and the running sum combine exactly, so merging K
  /// shard histograms equals observing the concatenated stream.
  void merge(const Histogram& other);

  /// Adds tallies kept outside a Histogram: one count per bin (`bins` must
  /// have bins() entries), plus the under/overflow counts and the value sum
  /// that add() would have kept for the same observations. How
  /// obs::HistogramMetric folds its per-thread cells into a snapshot.
  void merge_tallies(std::span<const std::int64_t> bins,
                     std::int64_t underflow, std::int64_t overflow,
                     double sum);

  /// The bin add(x) counts x in (out-of-range values clamp to the edge
  /// bins; add() also tallies them as under/overflow). NaN lands in the
  /// last bin and is tallied as neither.
  std::size_t bin_of(double x) const {
    if (x < lo_) return 0;
    if (!(x < hi_)) return counts_.size() - 1;  // x >= hi_, or NaN
    const auto bin = static_cast<std::size_t>((x - lo_) / bin_width_);
    return std::min(bin, counts_.size() - 1);  // guard x just below hi_
  }

  std::int64_t count() const { return total_; }
  std::int64_t bin_count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t bins() const { return counts_.size(); }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::int64_t underflow() const { return underflow_; }
  std::int64_t overflow() const { return overflow_; }

  double mean() const;

  /// Value below which `q` of the mass lies, interpolated within a bin.
  double quantile(double q) const;

  /// Multi-line ASCII rendering (for example programs), widest bin = width.
  std::string render(std::size_t width = 50) const;

 private:
  double lo_, hi_, bin_width_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_{0};
  std::int64_t underflow_{0};
  std::int64_t overflow_{0};
  double sum_{0.0};
};

}  // namespace volley
