// Local-threshold decomposition (paper Section II-A: choose T_1..T_n with
// sum T_i = T so that "as long as v_i < T_i, no violation is possible" —
// monitors then communicate only on local violations).
//
// How T is split determines how often local violations (and the global
// polls they trigger) happen. The even split (`split_threshold`,
// core/task.h) is fine for homogeneous monitors; a high-volume monitor
// under a Zipf workload violates constantly. `split_by_spread` splits in
// proportion to a robust scale estimate (inter-percentile spread, default
// p90-p10, immune to rare anomaly ticks): every monitor gets the same
// margin in its own sigma units, which minimizes the worst per-monitor
// violation rate for roughly Gaussian noise.
//
// The thresholds sum to T exactly (up to floating error); the
// ThresholdSplit tests in tests/test_faults.cpp check it.
#pragma once

#include <span>
#include <vector>

#include "core/task.h"
#include "trace/trace.h"

namespace volley {

/// Proportional to each series' inter-percentile spread.
std::vector<double> split_by_spread(double global_threshold,
                                    std::span<const TimeSeries> series,
                                    double lo_percentile = 10.0,
                                    double hi_percentile = 90.0);

}  // namespace volley
