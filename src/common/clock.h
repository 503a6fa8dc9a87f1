// Time types shared across the Volley library.
//
// The monitoring algorithms (src/core) operate in units of the task's
// *default sampling interval* Id — the paper measures every interval I as an
// integer count of Id (Section III-A). We make that unit a strong type,
// `Tick`, so interval arithmetic cannot be accidentally mixed with seconds.
//
// The socket runtime (src/net) works in seconds (`SimTime`); conversion
// happens only at the task layer, where each task knows its Id in seconds.
#pragma once

#include <cstdint>

namespace volley {

/// A count of default sampling intervals (Id). Tick 0 is the task start.
using Tick = std::int64_t;

/// Simulated (or wall-clock) time in seconds.
using SimTime = double;

}  // namespace volley
