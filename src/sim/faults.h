// Fault plans for distributed monitoring runs.
//
// FaultPlan is the constant-rate plan of the sim fault experiments
// (bench_faults): report loss, response loss and monitor outages with the
// semantics of core/fault_model.h, which it builds. NetFaultPlan carries the
// same message semantics onto the wire runtime's chaos proxy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/fault_model.h"
#include "core/task.h"
#include "sim/experiment.h"

namespace volley {

struct FaultPlan {
  double violation_report_loss{0.0};  // in [0, 1)
  double poll_response_loss{0.0};     // in [0, 1)
  std::vector<MonitorOutage> outages;
  std::uint64_t seed{99};

  /// Throws std::invalid_argument on probabilities outside [0,1) and on
  /// inverted/empty (`end <= start`) or overlapping same-monitor outage
  /// windows.
  void validate() const;

  /// The sim fault model: the rates as one window over the whole run.
  FaultModel model() const;
};

/// Fault plan for the *wire* runtime (net/chaos_proxy.h): the same message
/// semantics as FaultPlan, applied per decoded frame by a chaos proxy
/// interposed on the TCP path, plus the transport-level faults a simulator
/// tick loop cannot express (delay, partial writes, mid-stream disconnects).
///
/// Mapping onto FaultPlan: `message_loss.violation_report_loss` drops
/// LocalViolation frames (monitor->coordinator) and
/// `message_loss.poll_response_loss` drops PollResponse frames, each with
/// the same independent-Bernoulli semantics the simulator uses;
/// `message_loss.outages` are ignored — real outages are produced by
/// killing nodes or cutting connections (`disconnect_after_frames`).
struct NetFaultPlan {
  FaultPlan message_loss;        // frame-type-targeted drop probabilities
  double heartbeat_loss{0.0};    // drop Heartbeat/HeartbeatAck frames, [0,1)
  double delay_prob{0.0};        // hold a surviving frame for delay_ms
  int delay_ms{0};
  double partial_write_prob{0.0};  // forward a frame in two delayed chunks
  /// Cut the proxied connection (both sides) after this many forwarded
  /// frames; -1 = never. Applies per accepted connection, so a reconnecting
  /// monitor can be cut repeatedly (bounded by max_disconnects).
  std::int64_t disconnect_after_frames{-1};
  int max_disconnects{0};  // total mid-stream cuts across the proxy's life

  void validate() const;
};

struct FaultyRunResult {
  RunResult run;                      // the usual cost/accuracy accounting
  std::int64_t lost_reports{0};       // violation reports dropped
  std::int64_t lost_responses{0};     // poll responses dropped
  std::int64_t outage_monitor_ticks{0};
  std::int64_t stale_polls{0};        // polls that used >= 1 stale value
};

/// Like run_volley, but under the fault plan. Uses the adaptive allowance
/// allocator (the paper's default scheme). The run is scoped like run_volley:
/// metrics_json covers this run only.
FaultyRunResult run_volley_faulty(const TaskSpec& spec,
                                  std::span<const TimeSeries> monitor_series,
                                  std::span<const double> local_thresholds,
                                  const FaultPlan& plan);

}  // namespace volley
