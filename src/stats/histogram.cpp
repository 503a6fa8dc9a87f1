#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace volley {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bin_width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must be > lo");
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
}

void Histogram::add(double x) { add_n(x, 1); }

void Histogram::add_n(double x, std::int64_t n) {
  if (n <= 0) throw std::invalid_argument("Histogram: n must be > 0");
  if (x < lo_) {
    underflow_ += n;
  } else if (x >= hi_) {
    overflow_ += n;
  }
  counts_[bin_of(x)] += n;
  total_ += n;
  sum_ += x * static_cast<double>(n);
}

void Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_)
    throw std::invalid_argument("Histogram::merge: shape mismatch");
  merge_tallies(other.counts_, other.underflow_, other.overflow_, other.sum_);
}

void Histogram::merge_tallies(std::span<const std::int64_t> bins,
                              std::int64_t underflow, std::int64_t overflow,
                              double sum) {
  if (bins.size() != counts_.size())
    throw std::invalid_argument("Histogram::merge: shape mismatch");
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += bins[b];
    total_ += bins[b];
  }
  underflow_ += underflow;
  overflow_ += overflow;
  sum_ += sum;
}

double Histogram::bin_lo(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram::bin_lo");
  return lo_ + static_cast<double>(bin) * bin_width_;
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin) + bin_width_; }

double Histogram::mean() const {
  if (total_ == 0) throw std::logic_error("Histogram::mean: empty");
  return sum_ / static_cast<double>(total_);
}

double Histogram::quantile(double q) const {
  if (total_ == 0) throw std::logic_error("Histogram::quantile: empty");
  if (q < 0.0 || q > 1.0)
    throw std::invalid_argument("Histogram::quantile: q in [0,1]");
  const double target = q * static_cast<double>(total_);
  std::int64_t cum = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (static_cast<double>(cum + counts_[b]) >= target) {
      if (counts_[b] == 0) return bin_lo(b);
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(counts_[b]);
      return bin_lo(b) + frac * bin_width_;
    }
    cum += counts_[b];
  }
  return hi_;
}

std::string Histogram::render(std::size_t width) const {
  std::ostringstream os;
  const std::int64_t peak =
      *std::max_element(counts_.begin(), counts_.end());
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const std::size_t bar =
        peak == 0 ? 0
                  : static_cast<std::size_t>(
                        std::llround(static_cast<double>(width) *
                                     static_cast<double>(counts_[b]) /
                                     static_cast<double>(peak)));
    os << "[" << bin_lo(b) << ", " << bin_hi(b) << ") "
       << std::string(bar, '#') << " " << counts_[b] << "\n";
  }
  return os.str();
}

}  // namespace volley
