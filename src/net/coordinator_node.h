// A runnable Volley coordinator speaking the wire protocol over TCP.
//
// The coordinator accepts the expected number of monitors, then runs an
// event loop — the reactor (net/reactor.h: readiness dispatch, batched
// writev egress, ordered timer deadlines) — handling:
//  * LocalViolation  -> start a global poll for the violated task (coincident
//    violations while that task's poll is in flight are absorbed by it, as in
//    the paper: one global poll answers "is the global condition violated
//    right now");
//  * PollResponse    -> when every reachable monitor answered, aggregate and
//    compare against the task's global threshold T; record a state alert if
//    exceeded;
//  * StatsReport     -> once all reachable monitors reported for a task, run
//    the sim Coordinator's allowance round (core/error_allocation.h) for
//    that task and push AllowanceUpdates;
//  * Heartbeat       -> refresh the monitor's liveness deadline, echo an ack;
//  * StatsRequest    -> (from any pre-Hello client, e.g. tools/volley_stats)
//    answer with one StatsReply — session counters plus the obs/ metrics
//    snapshot and optional trace export — then drop the connection; stats
//    clients never count toward the expected monitors;
//  * AddTask / RemoveTask / UpdateTask / ListTasks -> (pre-Hello control
//    clients, e.g. tools/volleyctl) mutate the task registry: validate,
//    journal through the durable store, re-run the task's allowance
//    allocation, and push TaskAttach / TaskDetach to every live monitor;
//    answer with ControlReply / TaskListReply, then drop the connection;
//  * Bye             -> when all monitors said goodbye, broadcast Shutdown
//    and return.
//
// Task registry (src/control): the coordinator seeds a *boot task* (id 0,
// epoch 1) from its own options, so the legacy single-task deployment is
// just the registry's initial state. When `registry_path` is set, the
// registry is durable — restored from snapshot + journal on construction
// (a restarted coordinator resumes the full task set at its exact epochs)
// and journaled on every mutation. Monitors learn the task set through
// TaskAttach frames pushed on bind and on every registry change; epochs
// make the pushes idempotent (a monitor ignores revisions it already runs).
//
// Failure model (the companion paper [22]'s concern, mirrored from
// sim/faults.h): a monitor silent past heartbeat_timeout_ms — or whose
// connection drops without a Bye — becomes SUSPECT. An in-flight global
// poll no longer waits on suspects: it completes with the suspect's last
// known value for that task (the same stale-value fallback the simulator
// applies on poll_response_loss), and the poll is accounted as stale. A
// suspect that stays silent past staleness_bound_ms becomes DEAD: it is
// excluded from aggregation and its error allowance is reclaimed and
// redistributed to the survivors — per task
// (core/error_allocation's redistribute_allowance). A reconnecting monitor
// reattaches with Hello{resume}; the coordinator responds with TaskAttach
// and AllowanceUpdate frames so the monitor resyncs every task.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "control/registry_store.h"
#include "control/task_registry.h"
#include "core/error_allocation.h"
#include "net/framing.h"
#include "net/messages.h"
#include "net/reactor.h"
#include "net/socket.h"

namespace volley::net {

struct CoordinatorNodeOptions {
  std::uint16_t port{0};  // 0 = pick a free port; read back via port()
  std::size_t monitors{1};
  double global_threshold{0.0};
  double error_allowance{0.01};
  bool adaptive_allocation{true};
  int poll_timeout_ms{1000};       // settle a poll with whatever arrived
  int idle_timeout_ms{30000};      // abort a fully silent session
  int heartbeat_timeout_ms{2000};  // silence before a monitor is SUSPECT
  int staleness_bound_ms{6000};    // SUSPECT duration before DEAD (reclaim)
  /// When non-empty, the task registry persists to `<path>.snapshot` /
  /// `<path>.journal` and is restored from them on construction.
  std::string registry_path{};
  // --- shard tier (DESIGN.md §13) -----------------------------------------
  /// Total downstream weight behind this coordinator's sessions. A *root*
  /// coordinator over S aggregators sets monitors = S and total_weight = the
  /// fleet-wide monitor count, so threshold/allowance slices are
  /// T·w/W and err·w/W per shard (ShardHello carries each w). 0 means
  /// `monitors` — every session weighs 1, the flat fleet unchanged.
  std::size_t total_weight{0};
  /// Invoked from run()'s thread whenever a settled global poll exceeds the
  /// task's threshold (alongside the GlobalAlert record). An aggregator's
  /// embedded coordinator uses this to escalate a local violation upstream.
  std::function<void(TaskId task, Tick tick, double value)> on_alert{};
};

struct GlobalAlert {
  Tick tick{0};
  double value{0.0};
  TaskId task{0};
};

/// Liveness state of one monitor as the coordinator sees it.
enum class MonitorLiveness { kActive, kSuspect, kDead };

/// Fault accounting for a session, in the spirit of sim::FaultyRunResult.
struct NetFaultStats {
  std::int64_t heartbeats{0};          // heartbeats received (and acked)
  std::int64_t stale_polls{0};         // polls settled with >= 1 stale value
  std::int64_t stale_values{0};        // individual last-known fill-ins
  std::int64_t suspected{0};           // Active -> Suspect transitions
  std::int64_t recovered{0};           // Suspect/Dead -> Active transitions
  std::int64_t declared_dead{0};       // Suspect -> Dead transitions
  std::int64_t reconnects{0};          // resumed sessions (Hello{resume})
  std::int64_t allowance_reclaims{0};  // redistributions due to death/rejoin
};

class CoordinatorNode {
 public:
  explicit CoordinatorNode(const CoordinatorNodeOptions& options);

  /// The bound port (call after construction; useful with port = 0).
  std::uint16_t port() const { return listener_.port(); }

  /// Blocking: accepts monitors, runs the session, shuts monitors down.
  /// Returns when every monitor is done (Bye) or dead, on the idle guard,
  /// or on request_stop().
  void run();

  /// Asks a running coordinator to stop at the next loop turn *without*
  /// broadcasting Shutdown — connections are simply dropped, exactly like a
  /// coordinator crash. Monitors are expected to reconnect to a successor.
  void request_stop() {
    stop_.store(true);
    reactor_.wakeup();  // a sleeping loop re-checks stop_ now
  }

  // Live counters, readable from other threads while run() is in flight
  // (bench_net_scale samples them across its idle/load windows).
  std::int64_t loop_wakeups() const {
    return loop_wakeups_.load(std::memory_order_relaxed);
  }
  std::int64_t messages_received() const {
    return messages_received_.load(std::memory_order_relaxed);
  }
  /// Violation-report -> poll-settle latencies (ms), one entry per finished
  /// global poll.
  std::vector<double> poll_settle_ms() const {
    std::lock_guard<std::mutex> lock(poll_settle_mu_);
    return poll_settle_ms_;
  }

  // Results, valid after run() returns.
  std::int64_t global_polls() const { return global_polls_; }
  const std::vector<GlobalAlert>& alerts() const { return alerts_; }
  std::int64_t reallocations() const { return reallocations_; }
  const NetFaultStats& fault_stats() const { return fault_stats_; }
  /// Per-monitor op totals from Bye messages (monitor id -> ops).
  const std::map<MonitorId, std::int64_t>& reported_ops() const {
    return reported_ops_;
  }
  /// The live task registry (boot task included). Const access only; the
  /// run() thread owns mutations.
  const control::TaskRegistry& registry() const { return registry_; }
  /// What construction found on disk (all-false/zero without registry_path).
  const control::RegistryLoadStats& registry_load_stats() const {
    return registry_load_stats_;
  }

  /// Applies one control request — AddTask / UpdateTask / RemoveTask /
  /// ListTasks / ShardAllowance — and returns its reply (ControlReply or
  /// TaskListReply). Loop thread only: the pre-Hello path calls it for
  /// control clients, an embedding AggregatorNode for the root's pushes.
  Message control(const Message& request);

  /// The loop every fd and timer of this node lives on. An embedding
  /// AggregatorNode registers its upstream link here, so the shard runs on
  /// one thread.
  Reactor& reactor() { return reactor_; }

  // --- shard export (loop thread only; read by an embedding AggregatorNode)
  /// The latest settled poll aggregate for a task (0.0 before the first
  /// poll). An aggregator answers upstream PollRequests with this cached
  /// value — the net tier's stale-value semantics one level up: the root's
  /// poll settles with each quiet shard's last known subset aggregate.
  double shard_aggregate(TaskId task) const;
  /// Drains, per live task, the sums its allowance rounds returned since
  /// the last drain into upstream ShardSummary frames tagged `shard_id`.
  /// r/e/obs reset on drain; budget and aggregate persist.
  std::vector<ShardSummary> drain_shard_summaries(std::uint32_t shard_id);

 private:
  struct Session {
    TcpConnection conn;
    FrameReader reader;
    FrameWriter out;  // batched egress queue
    MonitorLiveness state{MonitorLiveness::kActive};
    bool done{false};
    bool connected{true};
    bool write_blocked{false};  // EPOLLOUT armed, waiting for drain
    bool dirty{false};          // queued frames awaiting post-dispatch flush
    std::int64_t last_seen_ms{0};
    std::int64_t suspect_since_ms{0};
    /// Freshest PollResponse per task (stale fallback).
    std::map<TaskId, double> last_values;
    // Shard sessions (bound via ShardHello): the aggregator's downstream
    // monitor count is its weight in threshold/allowance splits.
    bool shard{false};
    std::uint32_t weight{1};
    std::int64_t last_summary_ms{-1};  // -1: no ShardSummary yet
  };

  struct PendingConn {  // accepted, Hello not yet seen
    TcpConnection conn;
    FrameReader reader;
    std::int64_t since_ms{0};
  };

  /// Everything the coordinator tracks about one live task beyond the
  /// registry record: the per-monitor allowance split and the task's
  /// in-flight poll / stats-report state.
  struct TaskRuntime {
    control::TaskRecord record{};
    std::map<MonitorId, double> allowance;

    // Global-poll state (one in-flight poll per task).
    std::optional<std::uint64_t> active_poll;
    Tick active_poll_tick{0};
    std::map<MonitorId, double> poll_values;
    std::int64_t poll_started_ms{0};
    Reactor::TimerId poll_timer{0};         // timeout timer
    std::optional<Tick> pending_poll_tick;  // violation before full house

    // Stats-report state.
    std::map<MonitorId, CoordStats> pending_stats;

    // Upstream export for an embedding aggregator: the summed stats of the
    // reallocation rounds since the last drain, and the last settled poll
    // aggregate.
    CoordStats exported{};
    double last_aggregate{0.0};
  };

  void handle_message(MonitorId id, Session& session, const Message& message);
  /// Binds a pending connection to a session. `shard`/`weight` come from a
  /// ShardHello (an aggregator announcing its downstream monitor count);
  /// plain Hello binds a weight-1 monitor session.
  void bind_session(PendingConn&& pending, const Hello& hello,
                    bool shard = false, std::uint32_t weight = 1);
  /// Answers a StatsRequest on a (pre-Hello) connection with one StatsReply;
  /// the caller then drops the connection — stats clients are not monitors.
  void serve_stats(TcpConnection& conn, const StatsRequest& request);
  ControlReply apply_add(const AddTask& request);
  ControlReply apply_update(const UpdateTask& request);
  ControlReply apply_remove(const RemoveTask& request);
  /// Applies a task's new error budget *in place*: rescales the live
  /// allowance split proportionally and pushes allowance frames, without a
  /// registry epoch bump or TaskAttach churn (UpdateTask would restart every
  /// downstream sampler). Budgets are volatile — the root re-pushes them
  /// after every reallocation round — so the durable registry keeps the
  /// boot-time budget.
  ControlReply apply_shard_allowance(const ShardAllowance& request);
  TaskListReply build_task_list() const;
  /// Journals the op (durable mode) and records the trace event.
  void persist_and_trace(const control::RegistryOp& op);
  /// Installs runtime state for a (new or restored) registry record: even
  /// allowance split over the expected fleet.
  TaskRuntime& install_task_runtime(const control::TaskRecord& record);
  TaskAttach make_attach(const TaskRuntime& rt, MonitorId id) const;
  void push_attach_all(const TaskRuntime& rt);

  // Reactor plumbing.
  void on_accept();
  void on_pending(int fd, std::uint32_t events);
  void on_session(MonitorId id, std::uint32_t events);
  void flush_session(MonitorId id, Session& session);
  void flush_dirty();
  void liveness_sweep();
  /// (Re)arms the single coalesced liveness timer at the earliest
  /// suspect/dead deadline across all sessions.
  void schedule_liveness_timer();
  void schedule_pending_timer();
  void schedule_idle_timer();

  void start_poll(TaskId task, TaskRuntime& rt, Tick tick);
  void check_poll_completion(TaskId task, TaskRuntime& rt);
  void check_all_poll_completions();
  void finish_poll(TaskId task, TaskRuntime& rt);
  void maybe_reallocate(TaskId task, TaskRuntime& rt);
  /// Installs a session's allowance for `task` and pushes it when the
  /// session is connected, not done and not dead.
  void push_allowance(TaskId task, TaskRuntime& rt, MonitorId id,
                      double allowance);
  void mark_suspect(MonitorId id, Session& session);
  void declare_dead(MonitorId id, Session& session);
  void redistribute_and_push();
  void disconnect_session(MonitorId id, Session& session);
  void broadcast(const Message& message);
  void send_to(MonitorId id, Session& session, const Message& message);
  bool all_joined() const { return sessions_.size() >= options_.monitors; }
  std::size_t finished_sessions() const;
  /// Fleet weight: total_weight when configured (root over shards), else
  /// the expected monitor count (flat fleet, every session weighs 1).
  std::size_t total_weight() const {
    return options_.total_weight != 0 ? options_.total_weight
                                      : options_.monitors;
  }
  std::uint32_t session_weight(MonitorId id) const;
  /// The task's allowance slice for one session: err · w/W (w = 1 flat).
  double weighted_share(const TaskRuntime& rt, MonitorId id) const;

  CoordinatorNodeOptions options_;
  TcpListener listener_;
  std::map<MonitorId, Session> sessions_;

  Reactor reactor_;  // run()'s thread; every fd and timer lives here
  std::map<int, PendingConn> pending_;  // pre-Hello conns keyed by fd
  std::vector<MonitorId> dirty_sessions_;
  std::int64_t last_activity_ms_{0};
  bool idle_abort_{false};
  Reactor::TimerId liveness_timer_{0};
  bool liveness_timer_armed_{false};
  std::int64_t liveness_timer_due_{0};
  Reactor::TimerId pending_timer_{0};
  bool pending_timer_armed_{false};

  // Stateless (error_allocation.h), so every task's rounds share it.
  std::unique_ptr<AllowanceAllocator> allocator_;
  control::TaskRegistry registry_;
  std::unique_ptr<control::RegistryStore> store_;
  control::RegistryLoadStats registry_load_stats_;
  std::map<TaskId, TaskRuntime> tasks_;

  std::uint64_t next_poll_id_{1};  // unique across tasks

  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> loop_wakeups_{0};
  std::atomic<std::int64_t> messages_received_{0};
  mutable std::mutex poll_settle_mu_;
  std::vector<double> poll_settle_ms_;
  std::int64_t global_polls_{0};
  std::int64_t reallocations_{0};
  std::vector<GlobalAlert> alerts_;
  NetFaultStats fault_stats_;
  std::map<MonitorId, std::int64_t> reported_ops_;
};

}  // namespace volley::net
