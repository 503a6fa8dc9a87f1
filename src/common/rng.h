// Seeded random number generation for deterministic experiments.
//
// Every stochastic component of the library takes an explicit seed (or an
// Rng&) so that traces, simulations and benches are exactly reproducible.
// Besides the std distributions we provide the Zipf sampler used by the
// netflow/http generators and by the Figure 8 skew sweep (the paper cites
// Zipf [21] for skewed local-violation-rate distributions).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace volley {

/// Thin wrapper over a 64-bit Mersenne Twister with convenience samplers.
/// Not thread-safe; use one Rng per thread/component.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  /// Normal with the given mean and standard deviation; stddev = 0 returns
  /// mean. Scales a standard normal by hand (libstdc++'s own expression),
  /// because the library distribution requires stddev > 0; the engine is
  /// consumed the same way for every stddev.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>()(engine_) * stddev + mean;
  }
  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }
  /// Log-normal parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }
  /// Poisson with the given mean.
  std::int64_t poisson(double mean) {
    return std::poisson_distribution<std::int64_t>(mean)(engine_);
  }
  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }
  std::mt19937_64& engine() { return engine_; }

  /// Derive an independent child generator (for per-component seeding).
  Rng fork() { return Rng(engine_()); }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

/// Samples ranks 1..n with P(rank = r) proportional to 1/r^skew.
/// skew = 0 degenerates to the uniform distribution; larger skew
/// concentrates mass on low ranks. Used for address popularity in the
/// netflow generator, object popularity in the HTTP generator, and the
/// local-violation-rate skew sweep of Figure 8.
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double skew);

  /// Returns a rank in [1, n].
  std::size_t sample(Rng& rng) const;

  /// Probability mass of a given rank in [1, n].
  double pmf(std::size_t rank) const;

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cumulative masses, cdf_.back() == 1
};

}  // namespace volley
