// Message loss and monitor outages injected into in-process runs.
//
// The Volley paper assumes reliable messaging; its companion work
// ("Reliable state monitoring in cloud datacenters", IEEE CLOUD 2012,
// cited as [22]) studies what message loss and node outages do to state
// monitoring accuracy. A Coordinator given a FaultModel (coordinator.h)
// runs the unchanged protocol under these semantics:
//
//  * report loss   — each local-violation report independently fails to
//    reach the coordinator; if no report of a tick survives, no global
//    poll happens that tick.
//  * response loss — each polled, up monitor's response independently
//    fails; the coordinator then uses that monitor's last known value
//    (stale data, exactly what a timeout fallback does).
//  * outages       — a down monitor neither samples nor answers polls; the
//    coordinator keeps using its last known value.
//
// Loss rates are windowed: each LossWindow applies over [start, end) and
// overlapping windows compose as independent drops. A constant rate is one
// window over the whole run (sim/faults.h FaultPlan::model). Monitors are
// named by their task-wide (global) id, whichever shard polls them.
//
// Every draw comes from the model's own Rng stream, consumed in the order
// the coordinators ask, so a run is a pure function of its inputs and
// seed. Tasks run in the order their ticks run. Within one task's tick a
// coordinator draws report losses as its due monitors sample, then, if it
// polls, response losses in ascending monitor id. A two-tier task
// (shard/sharded_coordinator.h, S > 1) runs that shard by shard in
// ascending shard id, then the root's forced polls of the shards that did
// not poll, in shard order; the shard → root escalation is in-process and
// takes no draws. At S = 1 this is the flat coordinator's order.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"

namespace volley {

struct MonitorOutage {
  std::size_t monitor{0};
  Tick start{0};
  Tick end{0};  // exclusive
};

class FaultModel {
 public:
  struct LossWindow {
    Tick start{0};
    Tick end{0};  // exclusive
    double report_loss{0.0};
    double response_loss{0.0};
  };

  FaultModel(std::vector<LossWindow> loss,
             const std::vector<MonitorOutage>& outages, std::uint64_t seed);

  /// Effective drop probability at tick t over the covering windows.
  double report_loss_at(Tick t) const {
    return loss_at(t, &LossWindow::report_loss);
  }
  double response_loss_at(Tick t) const {
    return loss_at(t, &LossWindow::response_loss);
  }

  bool down(std::size_t monitor, Tick t) const;
  /// Ticks of [begin, end) the monitor is down. Overlapping windows of one
  /// monitor count once.
  std::int64_t outage_ticks(std::size_t monitor, Tick begin, Tick end) const;

  /// Draw whether a local-violation report sent at t is lost.
  bool lose_report(Tick t);
  /// Draw whether an up monitor's poll response at t is lost.
  bool lose_response(Tick t);
  void count_stale_poll() { ++stale_polls_; }

  std::int64_t lost_reports() const { return lost_reports_; }
  std::int64_t lost_responses() const { return lost_responses_; }
  /// Polls that used at least one stale value.
  std::int64_t stale_polls() const { return stale_polls_; }

 private:
  double loss_at(Tick t, double LossWindow::*rate) const;

  std::vector<LossWindow> loss_;
  // Per monitor: disjoint, ascending [start, end) outage spans.
  std::vector<std::vector<std::pair<Tick, Tick>>> down_;
  Rng rng_;
  std::int64_t lost_reports_{0};
  std::int64_t lost_responses_{0};
  std::int64_t stale_polls_{0};
};

}  // namespace volley
