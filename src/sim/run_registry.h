// Per-run metrics-registry scoping for the sim drivers (sim/driver.cpp and
// the loops of sim/runner.cpp).
#pragma once

#include <utility>

#include "obs/metrics.h"

namespace volley {

/// Per-run registry scope: instrumentation inside `body` records into a
/// fresh registry (so the RunResult's metrics_json is run-scoped), which is
/// then folded into the registry that was current at entry — cumulative
/// totals survive, and parallel runs never share counter cache lines.
template <typename Body>
auto with_run_registry(Body&& body) {
  obs::MetricsRegistry& parent = obs::metrics();
  obs::MetricsRegistry run_registry;
  decltype(body()) result;
  {
    obs::ScopedMetricsRegistry scope(run_registry);
    result = std::forward<Body>(body)();
  }
  parent.merge_from(run_registry);
  return result;
}

}  // namespace volley
