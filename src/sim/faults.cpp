#include "sim/faults.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/driver.h"

namespace volley {

void FaultPlan::validate() const {
  if (violation_report_loss < 0.0 || violation_report_loss >= 1.0)
    throw std::invalid_argument("FaultPlan: report loss in [0,1)");
  if (poll_response_loss < 0.0 || poll_response_loss >= 1.0)
    throw std::invalid_argument("FaultPlan: response loss in [0,1)");
  for (const auto& outage : outages) {
    if (outage.start < 0 || outage.end <= outage.start)
      throw std::invalid_argument("FaultPlan: bad outage window");
  }
  // Overlapping windows for one monitor are almost certainly a plan bug
  // (double-counted outage ticks); reject them.
  auto sorted = outages;
  std::sort(sorted.begin(), sorted.end(),
            [](const MonitorOutage& a, const MonitorOutage& b) {
              return a.monitor != b.monitor ? a.monitor < b.monitor
                                            : a.start < b.start;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].monitor == sorted[i - 1].monitor &&
        sorted[i].start < sorted[i - 1].end)
      throw std::invalid_argument("FaultPlan: overlapping outage windows");
  }
}

void NetFaultPlan::validate() const {
  message_loss.validate();
  if (heartbeat_loss < 0.0 || heartbeat_loss >= 1.0)
    throw std::invalid_argument("NetFaultPlan: heartbeat loss in [0,1)");
  if (delay_prob < 0.0 || delay_prob > 1.0)
    throw std::invalid_argument("NetFaultPlan: delay_prob in [0,1]");
  if (delay_prob > 0.0 && delay_ms <= 0)
    throw std::invalid_argument("NetFaultPlan: delay_ms > 0 when delaying");
  if (partial_write_prob < 0.0 || partial_write_prob > 1.0)
    throw std::invalid_argument("NetFaultPlan: partial_write_prob in [0,1]");
  if (disconnect_after_frames == 0)
    throw std::invalid_argument(
        "NetFaultPlan: disconnect_after_frames > 0 (or -1 to disable)");
  if (max_disconnects < 0)
    throw std::invalid_argument("NetFaultPlan: max_disconnects >= 0");
}

FaultModel FaultPlan::model() const {
  return FaultModel({{0, std::numeric_limits<Tick>::max(),
                      violation_report_loss, poll_response_loss}},
                    outages, seed);
}

FaultyRunResult run_volley_faulty(const TaskSpec& spec,
                                  std::span<const TimeSeries> monitor_series,
                                  std::span<const double> local_thresholds,
                                  const FaultPlan& plan) {
  spec.validate();
  plan.validate();
  if (monitor_series.empty())
    throw std::invalid_argument("run_volley_faulty: no monitors");
  if (monitor_series.size() != local_thresholds.size())
    throw std::invalid_argument("run_volley_faulty: thresholds mismatch");
  for (const auto& outage : plan.outages) {
    if (outage.monitor >= monitor_series.size())
      throw std::invalid_argument("run_volley_faulty: outage monitor id");
  }

  FaultModel faults = plan.model();
  SimDriver driver(monitor_series, RunOptions{}, local_thresholds, &faults);
  FaultyRunResult result;
  result.run = driver.run_task(
      spec, GroundTruth::from_series(TimeSeries::sum(monitor_series),
                                     spec.global_threshold));
  const SimTotals totals = driver.totals();
  result.lost_reports = totals.lost_reports;
  result.lost_responses = totals.lost_responses;
  result.outage_monitor_ticks = totals.outage_monitor_ticks;
  result.stale_polls = totals.stale_polls;
  return result;
}

}  // namespace volley
