// Shared identifiers and small value types of the Volley core.
#pragma once

#include <cstdint>

#include "common/clock.h"

namespace volley {

using MonitorId = std::uint32_t;
using TaskId = std::uint32_t;

/// The task every daemon seeds from its command-line options at startup
/// (registry epoch 1). Dynamically added tasks use any other id.
inline constexpr TaskId kBootTaskId = 0;

/// The boot task's registry epoch on a fresh (non-restored) deployment.
inline constexpr std::uint64_t kBootTaskEpoch = 1;

/// One sampling observation made by a monitor.
struct Sample {
  Tick tick{0};
  double value{0.0};
};

/// Why a sampling operation happened — monitors schedule their own samples;
/// the coordinator forces extra ones during global polls.
enum class SampleReason { kScheduled, kGlobalPoll };

/// Per-monitor statistics the coordinator collects once per updating period
/// to drive the error-allowance reallocation of Section IV-B.
struct CoordStats {
  double avg_gain{0.0};       // average r_i over the period
  double avg_allowance{0.0};  // average e_i over the period
  std::int64_t observations{0};

  CoordStats& operator+=(const CoordStats& o) {
    avg_gain += o.avg_gain;
    avg_allowance += o.avg_allowance;
    observations += o.observations;
    return *this;
  }
};

}  // namespace volley
