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
// Lifecycle: connect() -> Hello -> per-tick loop {service coordinator
// messages; scheduled sampling per task; LocalViolation reports; StatsReport
// once per task updating period; Heartbeat every heartbeat_interval_ms} ->
// Bye -> service polls until Shutdown.
//
// Resilience: a dead coordinator link (send failure, orderly close, or
// coordinator_timeout_ms without any inbound traffic — heartbeat acks
// guarantee traffic on a healthy link) moves the node into DEGRADED mode:
// it samples every task locally at the default interval every tick, so no
// violation window goes unobserved, while reconnecting with capped
// exponential backoff + jitter. A successful reconnect replays
// Hello{resume = true}; the coordinator reattaches the session and pushes
// the full task set (TaskAttach) plus per-task AllowanceUpdates that resync
// every sampler's error allowance.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "core/monitor.h"
#include "core/task.h"
#include "net/framing.h"
#include "net/messages.h"
#include "net/reactor.h"
#include "net/socket.h"
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
  void request_stop() { stop_.store(true); }

  // Results, valid after run() returns. Op counts sum over every task the
  // node ever ran (detached tasks included).
  std::int64_t scheduled_ops() const;
  std::int64_t forced_ops() const;
  std::int64_t local_violations() const;
  /// The boot task's final error allowance (its last value when detached).
  double final_allowance() const;
  /// Task id -> epoch for every task the node knows about, detached tasks
  /// included (their tombstone epoch).
  std::map<TaskId, std::uint64_t> task_epochs() const;
  /// Live (attached) task count.
  std::size_t live_tasks() const { return tasks_.size(); }
  /// Local violations reported by one task (0 for unknown/detached ids).
  std::int64_t task_local_violations(TaskId task) const;
  /// Successful session resumes after a lost coordinator link.
  std::int64_t reconnects() const { return reconnects_; }
  /// Ticks spent sampling locally (default interval) with no coordinator.
  std::int64_t degraded_ticks() const { return degraded_ticks_; }
  /// True when reconnection was abandoned (max_reconnect_attempts); the
  /// node then ran degraded to the end of its ticks.
  bool coordinator_lost() const { return coordinator_lost_; }

 private:
  enum class ServiceResult { kOk, kDisconnected, kShutdown };

  /// One attached task: its sampler (a full core::Monitor) plus the
  /// revision it runs and its reporting schedule.
  struct TaskState {
    std::uint64_t epoch{0};
    Tick updating_period{1000};
    Tick next_report{0};
    std::unique_ptr<Monitor> monitor;
  };

  /// Handles every buffered coordinator message.
  ServiceResult service_messages(Tick t);
  /// Sleeps out the rest of tick `t`, parked in the reactor: coordinator
  /// frames are serviced the moment they arrive (a PollRequest is answered
  /// mid-tick instead of at the next boundary).
  ServiceResult wait_tick(Tick t, std::int64_t wait_ns);
  void apply_attach(const TaskAttach& attach, Tick t);
  void apply_detach(const TaskDetach& detach);
  /// Folds a retiring sampler's counters into the retired_* totals.
  void retire_monitor(TaskId task, const Monitor& monitor);
  bool send(const Message& m);
  /// Connects (with deadline) and sends Hello. True on success.
  bool try_attach_session(bool resume);
  void drop_connection();
  /// Runs one reconnect attempt when the backoff schedule allows it.
  void maybe_reconnect(std::int64_t now);
  void heartbeat_if_due(std::int64_t now);

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
  std::map<TaskId, std::int64_t> retired_task_violations_;
  double boot_allowance_{0.0};  // boot task's allowance, kept past detach
  std::unique_ptr<SampleLogWriter> sample_log_;
  std::atomic<bool> stop_{false};

  // Connection state (only touched from run()'s thread).
  Reactor reactor_;
  TcpConnection conn_;
  FrameReader reader_;
  bool connected_{false};
  bool ever_connected_{false};
  bool coordinator_lost_{false};
  std::int64_t last_rx_ms_{0};
  std::int64_t last_heartbeat_ms_{0};
  std::uint64_t heartbeat_seq_{0};
  int backoff_ms_{0};
  std::int64_t next_attempt_ms_{0};
  int failed_attempts_{0};
  std::int64_t reconnects_{0};
  std::int64_t degraded_ticks_{0};
  Rng jitter_rng_;
};

}  // namespace volley::net
