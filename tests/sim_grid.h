// The fixed seed grid of the sim golden digests (test_golden_runs.cpp),
// shared with tests that compare two runtime shapes over the same inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/task.h"
#include "sim/runner.h"
#include "trace/trace.h"

namespace volley::grid {

// n monitors of low noise, one fleet-wide violation window per 1000 ticks
// and, on every fourth monitor, a local spike train that stays under T.
inline std::vector<TimeSeries> series(std::size_t n, Tick ticks,
                                      std::uint64_t seed) {
  std::vector<TimeSeries> out;
  for (std::size_t m = 0; m < n; ++m) {
    Rng rng(seed * 1000 + m);
    TimeSeries s(static_cast<std::size_t>(ticks));
    for (Tick t = 0; t < ticks; ++t) {
      double v =
          0.1 + rng.normal(0.0, 0.004 + 0.002 * static_cast<double>(m % 5));
      if (t % 1000 >= 700 && t % 1000 < 730) v += 0.45;
      if (m % 4 == 0 && (t + 97 * static_cast<Tick>(m)) % 900 < 4) v += 1.0;
      s[static_cast<std::size_t>(t)] = v;
    }
    out.push_back(std::move(s));
  }
  return out;
}

inline TaskSpec spec(std::size_t n) {
  TaskSpec out;
  out.global_threshold = 0.5 * static_cast<double>(n);
  out.error_allowance = 0.2;
  out.max_interval = 16;
  out.patience = 5;
  out.updating_period = 400;
  return out;
}

inline std::vector<double> thresholds(std::size_t n) {
  return std::vector<double>(n, 0.5);
}

constexpr std::size_t kChurnMonitors = 6;
constexpr Tick kChurnTicks = 5000;

/// The churn run's series: kChurnMonitors monitors over kChurnTicks.
inline std::vector<TimeSeries> churn_series() {
  return series(kChurnMonitors, kChurnTicks, 16);
}

/// Seven seed-derived task instances (ids 100..106, T raised 10%) over a
/// standing task 0 that arrives at tick 0.
inline std::vector<TaskChurnEvent> churn_events() {
  ChurnScheduleOptions schedule;
  schedule.seed = 21;
  schedule.ticks = kChurnTicks;
  schedule.arrivals = 7;
  schedule.hold_min = 300;
  schedule.hold_max = 1800;
  schedule.spec = spec(kChurnMonitors);
  schedule.spec.global_threshold *= 1.1;
  auto events = make_churn_schedule(schedule);
  events.push_back(
      {TaskChurnEvent::Kind::kArrive, 0, 0, spec(kChurnMonitors)});
  return events;
}

}  // namespace volley::grid
