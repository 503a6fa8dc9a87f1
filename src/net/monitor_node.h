// A runnable Volley monitor speaking the wire protocol (src/net/messages.h)
// to a coordinator over TCP. One MonitorNode corresponds to one monitor
// process in the paper's testbed (Figure 4: a monitor per VM inside Dom0).
//
// The node runs one core::Monitor — the exact same adaptation logic the
// simulation runs — *per live task*, and drives them on a compressed
// wall-clock timescale (`tick_micros` of real time per default sampling
// interval), so an end-to-end distributed run finishes in seconds on one
// machine.
//
// Task set: the node seeds a *boot task* (id 0, epoch 1) from its own
// options. Every other task arrives over the wire: the coordinator pushes
// TaskAttach (create or re-spec a sampler) and TaskDetach (retire one)
// frames as its registry changes. Epochs order the revisions: an attach or
// detach is applied only when its epoch is strictly newer than what the
// node already knows for that task id, so replayed or reordered pushes are
// no-ops and a removed task cannot be resurrected by a stale attach.
//
// Lifecycle: one reactor loop owns the node. Its UpstreamLink
// (net/upstream_link.h) connects, says Hello and heartbeats; per tick the
// node samples each task on schedule, reports LocalViolations and, once
// per task updating period, a StatsReport, then parks in the reactor for
// the rest of the tick, answering coordinator frames as they arrive. After
// the last tick: Bye, then keep answering polls until Shutdown.
//
// Resilience: while the link is down (send failure, orderly close, or
// coordinator_timeout_ms without any inbound traffic — heartbeat acks
// guarantee traffic on a healthy link) — and while a connect is in flight —
// the node runs in DEGRADED mode: it samples every task locally at the
// default interval every tick, so no violation window goes unobserved. The
// link reconnects in the background with capped, jittered backoff; a
// resumed session replays Hello{resume = true}, and the coordinator
// reattaches it and pushes the full task set (TaskAttach) plus per-task
// AllowanceUpdates that resync every sampler's error allowance.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/monitor.h"
#include "core/task.h"
#include "net/messages.h"
#include "net/reactor.h"
#include "net/upstream_link.h"
#include "storage/sample_log.h"

namespace volley::net {

struct MonitorNodeOptions {
  MonitorId id{0};
  std::string coordinator_host{"127.0.0.1"};
  std::uint16_t coordinator_port{0};
  double local_threshold{0.0};
  AdaptiveSamplerOptions sampler{};
  Tick ticks{0};             // run length in default intervals
  Tick updating_period{1000};
  int tick_micros{200};      // compressed wall time per tick
  int shutdown_grace_ms{2000};
  // --- resilience knobs -------------------------------------------------
  int heartbeat_interval_ms{500};    // liveness beacon cadence
  int coordinator_timeout_ms{2500};  // inbound silence -> assume dead link
  int connect_timeout_ms{1000};      // per connect() attempt deadline
  int reconnect_backoff_ms{50};      // initial backoff between attempts
  int reconnect_backoff_max_ms{1000};  // backoff cap (doubling, jittered)
  int max_reconnect_attempts{60};    // consecutive failures before giving up
  /// When non-empty, every sampling observation is appended to this
  /// sample log (storage/sample_log.h) for offline event analysis — the
  /// "sampling data persistence" cost component of Section III-B.
  std::string sample_log_path{};
};

class MonitorNode {
 public:
  /// The source must outlive the node. All tasks sample the same source
  /// (one node monitors one local metric stream; tasks differ in
  /// thresholds and allowances, the paper's per-task tuning).
  MonitorNode(const MonitorNodeOptions& options, const MetricSource& source);

  /// Blocking; returns when the coordinator shuts the session down (or the
  /// grace period after Bye expires). Safe to call from its own thread.
  void run();

  /// Asks a running node to stop at the next tick boundary.
  void request_stop() {
    stop_.store(true);
    reactor_.wakeup();
  }

  // Results, valid after run() returns. Op counts sum over every task the
  // node ever ran (detached tasks included).
  std::int64_t scheduled_ops() const;
  std::int64_t forced_ops() const;
  std::int64_t local_violations() const;
  /// Task id -> epoch for every task the node knows about, detached tasks
  /// included (their tombstone epoch).
  std::map<TaskId, std::uint64_t> task_epochs() const;
  /// Live (attached) task count.
  std::size_t live_tasks() const { return tasks_.size(); }
  /// Successful session resumes after a lost coordinator link.
  std::int64_t reconnects() const { return link_.reconnects(); }
  /// Ticks spent sampling locally (default interval) with no coordinator.
  std::int64_t degraded_ticks() const { return degraded_ticks_; }
  /// True when reconnection was abandoned (max_reconnect_attempts); the
  /// node then ran degraded to the end of its ticks.
  bool coordinator_lost() const { return link_.lost(); }

 private:
  /// One attached task: its sampler (a full core::Monitor) plus the
  /// revision it runs and its reporting schedule.
  struct TaskState {
    std::uint64_t epoch{0};
    Tick updating_period{1000};
    Tick next_report{0};
    std::unique_ptr<Monitor> monitor;
  };

  /// Handles one coordinator frame (the link's frame handler).
  void on_frame(const Message& message);
  /// Parks in the reactor for up to `wait` — coordinator frames are
  /// serviced the moment they arrive, so a PollRequest is answered mid-tick
  /// — and returns early on stop, Shutdown, or once `done()` holds.
  void park(std::chrono::nanoseconds wait, const std::function<bool()>& done);
  void apply_attach(const TaskAttach& attach, Tick t);
  void apply_detach(const TaskDetach& detach);
  /// Folds a retiring sampler's counters into the retired_* totals.
  void retire_monitor(const Monitor& monitor);

  void log_sample(const Monitor::Outcome& outcome);

  MonitorNodeOptions options_;
  const MetricSource* source_;
  std::map<TaskId, TaskState> tasks_;
  /// Highest epoch seen per task id — kept across detach (tombstones), so
  /// a stale attach cannot resurrect a removed task.
  std::map<TaskId, std::uint64_t> known_epochs_;
  // Counters of detached samplers, folded in so totals survive removal.
  std::int64_t retired_scheduled_{0};
  std::int64_t retired_forced_{0};
  std::int64_t retired_violations_{0};
  std::unique_ptr<SampleLogWriter> sample_log_;
  std::atomic<bool> stop_{false};

  // Loop state (only touched from run()'s thread).
  Reactor reactor_;
  UpstreamLink link_;
  Tick now_tick_{0};       // the tick a PollRequest is answered at
  bool shutdown_{false};   // the coordinator sent Shutdown
  std::int64_t degraded_ticks_{0};
};

}  // namespace volley::net
