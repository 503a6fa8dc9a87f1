// Stochastic-process building blocks shared by the three workload
// generators (netflow, sysmetrics, httplog).
//
//  * DiurnalCurve  — smooth day/night multiplier: datacenter traffic and web
//    request volume follow a 24h cycle with a deep night-time valley (the
//    paper attributes the network/application savings partly to stable
//    night-time traffic and off-peak periods).
//  * OuProcess     — mean-reverting Ornstein-Uhlenbeck / AR(1) sampler used
//    for jittery system metrics (CPU, memory, vmstat...).
//  * BurstProcess  — Poisson-arriving episodes with ramp-up/plateau/decay,
//    used for flash crowds and DDoS attack intensity envelopes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"

namespace volley {

/// Smooth daily cycle: multiplier(t) in [1-depth, 1], peaking at
/// t == phase (mod period) and bottoming half a period later:
/// multiplier = 1 - depth * (0.5 - 0.5*cos(2*pi*(t - phase)/period)).
class DiurnalCurve {
 public:
  /// `period` ticks per day; `depth` in [0,1) is the relative depth of the
  /// night-time valley; `phase` shifts the peak.
  DiurnalCurve(Tick period, double depth, Tick phase = 0);

  double multiplier(Tick t) const;

 private:
  Tick period_;
  double depth_;
  Tick phase_;
};

/// Mean-reverting process: x' = x + theta*(mean - x) + sigma*N(0,1),
/// clamped to [lo, hi]. theta in (0,1] controls reversion speed.
class OuProcess {
 public:
  struct Options {
    double mean{0.5};
    double theta{0.05};
    double sigma{0.02};
    double lo{0.0};
    double hi{1.0};
    double start{0.5};
  };

  explicit OuProcess(const Options& options);

  double next(Rng& rng);
  double current() const { return x_; }

 private:
  Options options_;
  double x_;
};

/// Episode envelope: 0 outside episodes; within an episode the intensity
/// ramps linearly to peak, holds, then decays linearly. Episode arrivals
/// are Poisson with the given mean inter-arrival gap (in ticks).
class BurstProcess {
 public:
  struct Options {
    double mean_gap{2000};     // mean ticks between episode starts
    Tick ramp{10};             // ticks from 0 to peak
    Tick plateau{20};          // ticks at peak
    Tick decay{20};            // ticks from peak back to 0
    double peak_lo{0.5};       // per-episode peak drawn uniformly
    double peak_hi{1.0};
  };

  BurstProcess(const Options& options, Rng& rng);

  /// Intensity in [0, peak_hi] at the next tick. Must be called once per
  /// tick, in order.
  double next(Rng& rng);

  bool in_episode() const { return remaining_ > 0; }

 private:
  void schedule_next(Rng& rng);

  Options options_;
  Tick until_start_{0};   // ticks until the next episode begins
  Tick remaining_{0};     // ticks left in the current episode
  Tick episode_len_{0};
  double peak_{0.0};
};

}  // namespace volley
