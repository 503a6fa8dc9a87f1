#include "stats/online_stats.h"

#include <stdexcept>

namespace volley {

void OnlineStats::reset() {
  n_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
}

WindowedStats::WindowedStats(std::int64_t window, std::int64_t warmup)
    : window_(window), warmup_(warmup) {
  if (window <= 0) throw std::invalid_argument("WindowedStats: window > 0");
  if (warmup < 0) throw std::invalid_argument("WindowedStats: warmup >= 0");
}

void WindowedStats::reset() {
  current_.reset();
  previous_.reset();
  has_previous_ = false;
  total_ = 0;
}

std::optional<double> WindowedStats::mean() const {
  const OnlineStats& s = active();
  if (s.count() == 0) return std::nullopt;
  return s.mean();
}

std::optional<double> WindowedStats::stddev() const {
  const OnlineStats& s = active();
  if (s.count() == 0) return std::nullopt;
  return s.stddev();
}

}  // namespace volley
