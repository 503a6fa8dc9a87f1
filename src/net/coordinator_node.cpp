#include "net/coordinator_node.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"

namespace volley::net {

namespace {

struct NetCoordinatorMetrics {
  obs::CounterCell* heartbeats;
  obs::CounterCell* suspects;
  obs::CounterCell* deaths;
  obs::CounterCell* recoveries;
  obs::CounterCell* stale_polls;
  obs::CounterCell* alerts;
  obs::CounterCell* stats_requests;
  obs::CounterCell* control_requests;
  obs::CounterCell* registry_mutations;

  static NetCoordinatorMetrics make(obs::MetricsRegistry& m) {
    return NetCoordinatorMetrics{
        &m.counter("volley_net_heartbeats_total",
                   "Monitor heartbeats received and acked")
             .cell(),
        &m.counter("volley_net_suspects_total",
                   "Active -> Suspect liveness transitions")
             .cell(),
        &m.counter("volley_net_deaths_total",
                   "Suspect -> Dead liveness transitions")
             .cell(),
        &m.counter("volley_net_recoveries_total",
                   "Suspect/Dead -> Active liveness transitions")
             .cell(),
        &m.counter("volley_net_stale_polls_total",
                   "Global polls settled with at least one stale value")
             .cell(),
        &m.counter("volley_net_alerts_total",
                   "State alerts raised by the wire coordinator")
             .cell(),
        &m.counter("volley_net_stats_requests_total",
                   "StatsRequest introspection queries served")
             .cell(),
        &m.counter("volley_net_control_requests_total",
                   "Control-plane requests served (add/remove/update/list)")
             .cell(),
        &m.counter("volley_net_registry_mutations_total",
                   "Task registry mutations applied (add/update/remove)")
             .cell(),
    };
  }

  static const NetCoordinatorMetrics& get() {
    return obs::scoped_handles(&make);
  }
};

/// The allowance push for one session: monitors get AllowanceUpdate (their
/// sampler applies it directly); shard sessions get ShardAllowance (the
/// aggregator applies it to its embedded coordinator's budget).
Message allowance_frame(bool shard, TaskId task, double value) {
  if (shard) return ShardAllowance{task, value};
  return AllowanceUpdate{value, task};
}

/// Liveness states as recorded in kLivenessTransition trace events.
double liveness_code(MonitorLiveness s) {
  switch (s) {
    case MonitorLiveness::kActive:
      return 0.0;
    case MonitorLiveness::kSuspect:
      return 1.0;
    case MonitorLiveness::kDead:
      return 2.0;
  }
  return -1.0;
}
}  // namespace

CoordinatorNode::CoordinatorNode(const CoordinatorNodeOptions& options)
    : options_(options),
      listener_(options.port) {
  if (options.monitors == 0)
    throw std::invalid_argument("CoordinatorNode: monitors > 0");
  if (options.heartbeat_timeout_ms <= 0)
    throw std::invalid_argument("CoordinatorNode: heartbeat_timeout_ms > 0");
  if (options.staleness_bound_ms <= 0)
    throw std::invalid_argument("CoordinatorNode: staleness_bound_ms > 0");
  if (options.adaptive_allocation) {
    allocator_ = std::make_unique<AdaptiveAllocation>();
  } else {
    allocator_ = std::make_unique<EvenAllocation>();
  }
  if (!options.registry_path.empty()) {
    store_ = std::make_unique<control::RegistryStore>(options.registry_path);
    registry_load_stats_ = store_->load(registry_);
    if (registry_load_stats_.had_snapshot || registry_load_stats_.journal_ops)
      VLOG_INFO("coordinator", "registry restored: ", registry_.size(),
                " task(s) at version ", registry_.version());
  }
  if (registry_.version() == 0) {
    // Fresh registry (no durable state): seed the boot task from the
    // command-line options. Monitors seed the same task 0 at epoch 1 from
    // their own options, so the attach push is a no-op for them.
    TaskSpec boot;
    boot.global_threshold = options.global_threshold;
    boot.error_allowance = options.error_allowance;
    const auto result = registry_.add(kBootTaskId, boot);
    if (!result.ok())
      throw std::invalid_argument("CoordinatorNode: invalid boot task: " +
                                  result.error);
    if (store_) store_->append(*result.op);
  }
  for (const auto& record : registry_.list()) install_task_runtime(record);
  listener_.set_nonblocking(true);
}

std::uint32_t CoordinatorNode::session_weight(MonitorId id) const {
  const auto it = sessions_.find(id);
  return it != sessions_.end() ? it->second.weight : 1;
}

double CoordinatorNode::weighted_share(const TaskRuntime& rt,
                                       MonitorId id) const {
  return rt.record.spec.error_allowance *
         static_cast<double>(session_weight(id)) /
         static_cast<double>(total_weight());
}

CoordinatorNode::TaskRuntime& CoordinatorNode::install_task_runtime(
    const control::TaskRecord& record) {
  TaskRuntime& rt = tasks_[record.id];
  rt.record = record;
  rt.allowance.clear();
  for (const auto& [id, session] : sessions_)
    rt.allowance.emplace(id, weighted_share(rt, id));
  return rt;
}

TaskAttach CoordinatorNode::make_attach(const TaskRuntime& rt,
                                        MonitorId id) const {
  const TaskSpec& spec = rt.record.spec;
  TaskAttach attach;
  attach.task = rt.record.id;
  attach.epoch = rt.record.epoch;
  // The session's threshold slice T·w/W: a weight-1 monitor gets the flat
  // even split; a shard session gets the slice its subset sums to.
  attach.local_threshold = spec.global_threshold *
                           static_cast<double>(session_weight(id)) /
                           static_cast<double>(total_weight());
  const auto it = rt.allowance.find(id);
  attach.error_allowance = it != rt.allowance.end() ? it->second
                                                    : weighted_share(rt, id);
  attach.slack_ratio = spec.slack_ratio;
  attach.patience = spec.patience;
  attach.max_interval = spec.max_interval;
  attach.updating_period = spec.updating_period;
  return attach;
}

void CoordinatorNode::push_attach_all(const TaskRuntime& rt) {
  for (auto& [id, session] : sessions_) {
    if (session.connected && !session.done) {
      send_to(id, session, make_attach(rt, id));
    }
  }
}

void CoordinatorNode::send_to(MonitorId id, Session& session,
                              const Message& message) {
  if (!session.connected) return;
  // Queue; frames coalesce into one writev at the next flush_dirty() (or
  // the EPOLLOUT drain if the kernel buffer is full). Peer loss surfaces
  // there or on the read side — never a blocking write here.
  session.out.enqueue(frame_payload(encode(message)));
  if (!session.dirty) {
    session.dirty = true;
    dirty_sessions_.push_back(id);
  }
}

void CoordinatorNode::broadcast(const Message& message) {
  for (auto& [id, session] : sessions_) {
    if (session.connected) send_to(id, session, message);
  }
}

std::size_t CoordinatorNode::finished_sessions() const {
  std::size_t n = 0;
  for (const auto& [id, session] : sessions_) {
    if (session.done || session.state == MonitorLiveness::kDead) ++n;
  }
  return n;
}

void CoordinatorNode::start_poll(TaskId task, TaskRuntime& rt, Tick tick) {
  rt.active_poll = next_poll_id_++;
  rt.active_poll_tick = tick;
  rt.poll_values.clear();
  rt.poll_started_ms = Reactor::now_ms();
  ++global_polls_;
  // Poll deadline. The captured poll id guards against firing on a
  // later poll of the same task: finish_poll cancels, but a timer
  // mid-dispatch can still run.
  const std::uint64_t poll_id = *rt.active_poll;
  rt.poll_timer =
      reactor_.add_timer(options_.poll_timeout_ms, [this, task, poll_id] {
        auto it = tasks_.find(task);
        if (it == tasks_.end()) return;
        TaskRuntime& rt2 = it->second;
        if (!rt2.active_poll || *rt2.active_poll != poll_id) return;
        VLOG_WARN("coordinator", "global poll for task ", task,
                  " timed out with ", rt2.poll_values.size(), "/",
                  options_.monitors, " responses");
        finish_poll(task, rt2);
      });
  broadcast(PollRequest{tick, *rt.active_poll, task});
  check_poll_completion(task, rt);  // every reachable monitor may be gone
}

void CoordinatorNode::check_poll_completion(TaskId task, TaskRuntime& rt) {
  if (!rt.active_poll) return;
  for (const auto& [id, session] : sessions_) {
    if (!session.connected || session.state != MonitorLiveness::kActive)
      continue;
    if (!rt.poll_values.count(id)) return;  // waiting on a live monitor
  }
  finish_poll(task, rt);
}

void CoordinatorNode::check_all_poll_completions() {
  for (auto& [task, rt] : tasks_) check_poll_completion(task, rt);
}

void CoordinatorNode::finish_poll(TaskId task, TaskRuntime& rt) {
  double sum = 0.0;
  bool stale = false;
  for (const auto& [id, value] : rt.poll_values) sum += value;
  for (const auto& [id, session] : sessions_) {
    if (rt.poll_values.count(id)) continue;
    if (session.state == MonitorLiveness::kDead) continue;  // excluded
    const auto last = session.last_values.find(task);
    if (last != session.last_values.end()) {
      // Suspect or unreachable: settle with the last known value, exactly
      // the simulator's poll_response_loss fallback.
      sum += last->second;
      stale = true;
      ++fault_stats_.stale_values;
    }
  }
  if (stale) {
    ++fault_stats_.stale_polls;
    NetCoordinatorMetrics::get().stale_polls->inc();
  }
  // Exported before the alert fires, so an embedding aggregator answers
  // the root's escalation poll with this aggregate.
  rt.last_aggregate = sum;
  const double threshold = rt.record.spec.global_threshold;
  if (sum > threshold) {
    alerts_.push_back(GlobalAlert{rt.active_poll_tick, sum, task});
    NetCoordinatorMetrics::get().alerts->inc();
    obs::trace().record(obs::TraceKind::kAlertRaised, rt.active_poll_tick,
                        task, sum, threshold);
    if (options_.on_alert) options_.on_alert(task, rt.active_poll_tick, sum);
  }
  {
    std::lock_guard<std::mutex> lock(poll_settle_mu_);
    poll_settle_ms_.push_back(
        static_cast<double>(Reactor::now_ms() - rt.poll_started_ms));
  }
  if (rt.poll_timer != 0) {
    reactor_.cancel_timer(rt.poll_timer);
    rt.poll_timer = 0;
  }
  rt.active_poll.reset();
  rt.poll_values.clear();
}

void CoordinatorNode::maybe_reallocate(TaskId task, TaskRuntime& rt) {
  // A round needs a StatsReport (a ShardSummary from a shard session) from
  // every *reachable* monitor: dead monitors are excluded (their allowance
  // was reclaimed) and done monitors no longer report.
  if (!all_joined()) return;
  std::vector<MonitorId> lanes;
  std::vector<double> split;
  std::vector<CoordStats> stats;
  for (const auto& [id, session] : sessions_) {
    if (session.done || session.state == MonitorLiveness::kDead) continue;
    const auto report = rt.pending_stats.find(id);
    if (report == rt.pending_stats.end()) return;
    lanes.push_back(id);
    split.push_back(rt.allowance[id]);
    stats.push_back(report->second);
  }
  if (lanes.empty()) return;
  // The sim Coordinator's instruments; the wire coordinator has no tick
  // clock, so its trace events carry tick 0.
  rt.exported += run_allowance_round(
      *allocator_, rt.record.spec.error_allowance, split, stats,
      obs::scoped_handles(&AllowanceRoundMetrics::coordinator), 0,
      [&](std::size_t i, double a) { push_allowance(task, rt, lanes[i], a); },
      lanes);
  rt.pending_stats.clear();
  ++reallocations_;
}

void CoordinatorNode::push_allowance(TaskId task, TaskRuntime& rt,
                                     MonitorId id, double allowance) {
  rt.allowance[id] = allowance;
  auto& session = sessions_.at(id);
  if (session.connected && !session.done &&
      session.state != MonitorLiveness::kDead) {
    send_to(id, session, allowance_frame(session.shard, task, allowance));
  }
}

void CoordinatorNode::mark_suspect(MonitorId id, Session& session) {
  if (session.state != MonitorLiveness::kActive || session.done) return;
  session.state = MonitorLiveness::kSuspect;
  session.suspect_since_ms = Reactor::now_ms();
  ++fault_stats_.suspected;
  NetCoordinatorMetrics::get().suspects->inc();
  obs::trace().record(obs::TraceKind::kLivenessTransition, 0, id,
                      liveness_code(MonitorLiveness::kSuspect),
                      liveness_code(MonitorLiveness::kActive));
  VLOG_WARN("coordinator", "monitor ", id, " is suspect");
  check_all_poll_completions();
  // The new suspect's dead-deadline may now be the earliest liveness event.
  schedule_liveness_timer();
}

void CoordinatorNode::declare_dead(MonitorId id, Session& session) {
  session.state = MonitorLiveness::kDead;
  ++fault_stats_.declared_dead;
  NetCoordinatorMetrics::get().deaths->inc();
  obs::trace().record(obs::TraceKind::kLivenessTransition, 0, id,
                      liveness_code(MonitorLiveness::kDead),
                      liveness_code(MonitorLiveness::kSuspect));
  VLOG_WARN("coordinator", "monitor ", id,
            " declared dead; reclaiming its allowance");
  for (auto& [task, rt] : tasks_) rt.pending_stats.erase(id);
  redistribute_and_push();
  check_all_poll_completions();
  for (auto& [task, rt] : tasks_) maybe_reallocate(task, rt);
}

void CoordinatorNode::redistribute_and_push() {
  // Zero the dead monitors' shares and rescale the survivors to each task's
  // full allowance (core/error_allocation semantics).
  bool redistributed = false;
  for (auto& [task, rt] : tasks_) {
    std::vector<MonitorId> ids;
    std::vector<double> current;
    std::vector<std::size_t> excluded;
    for (const auto& [id, session] : sessions_) {
      if (session.state == MonitorLiveness::kDead)
        excluded.push_back(ids.size());
      ids.push_back(id);
      current.push_back(rt.allowance[id]);
    }
    if (ids.empty() || excluded.size() == ids.size()) continue;
    const auto next = redistribute_allowance(rt.record.spec.error_allowance,
                                             current, excluded);
    for (std::size_t i = 0; i < ids.size(); ++i)
      push_allowance(task, rt, ids[i], next[i]);
    redistributed = true;
  }
  if (redistributed) ++fault_stats_.allowance_reclaims;
}

void CoordinatorNode::serve_stats(TcpConnection& conn,
                                  const StatsRequest& request) {
  NetCoordinatorMetrics::get().stats_requests->inc();
  StatsReply reply;
  reply.global_polls = global_polls_;
  reply.reallocations = reallocations_;
  reply.alerts = static_cast<std::int64_t>(alerts_.size());
  reply.metrics = (request.flags & StatsRequest::kMetricsJson)
                      ? obs::metrics().to_json()
                      : obs::metrics().to_prometheus();
  if (request.flags & StatsRequest::kIncludeTrace) {
    // Newest events only: ~120 bytes/line keeps 2048 lines well under the
    // 1 MiB frame cap even with pathological payloads.
    reply.trace_jsonl = obs::trace().to_jsonl(2048);
  }
  if (request.flags & StatsRequest::kIncludeShards) {
    const std::int64_t now = Reactor::now_ms();
    const auto boot = tasks_.find(kBootTaskId);
    for (const auto& [id, session] : sessions_) {
      if (!session.shard) continue;
      ShardStatsRow row;
      row.shard = id;
      row.monitors = session.weight;
      if (boot != tasks_.end()) {
        const auto a = boot->second.allowance.find(id);
        if (a != boot->second.allowance.end()) row.allowance = a->second;
      }
      row.last_summary_age_ms =
          session.last_summary_ms < 0 ? -1 : now - session.last_summary_ms;
      reply.shards.push_back(row);
    }
  }
  conn.send_all(frame_payload(encode(Message{reply})));
}

void CoordinatorNode::persist_and_trace(const control::RegistryOp& op) {
  if (store_) {
    store_->append(op);
    store_->maybe_compact(registry_);
  }
  NetCoordinatorMetrics::get().registry_mutations->inc();
  obs::trace().record(obs::TraceKind::kTaskRegistryChange, 0, op.record.id,
                      static_cast<double>(op.record.epoch),
                      static_cast<double>(op.kind));
}

ControlReply CoordinatorNode::apply_add(const AddTask& request) {
  const auto result = registry_.add(request.task, request.spec);
  if (result.ok()) {
    persist_and_trace(*result.op);
    TaskRuntime& rt = install_task_runtime(result.op->record);
    push_attach_all(rt);
    VLOG_INFO("coordinator", "task ", request.task, " added at epoch ",
              result.epoch);
  }
  return ControlReply{result.status, result.epoch, registry_.version(),
                      result.error};
}

ControlReply CoordinatorNode::apply_update(const UpdateTask& request) {
  const auto result = registry_.update(request.task, request.spec);
  if (result.ok()) {
    persist_and_trace(*result.op);
    // Re-run the allowance allocation for the task: the new spec may carry
    // a different budget, so the split restarts even and re-adapts from
    // the monitors' next StatsReports.
    TaskRuntime& rt = install_task_runtime(result.op->record);
    rt.pending_stats.clear();
    push_attach_all(rt);
    VLOG_INFO("coordinator", "task ", request.task, " updated to epoch ",
              result.epoch);
  }
  return ControlReply{result.status, result.epoch, registry_.version(),
                      result.error};
}

ControlReply CoordinatorNode::apply_remove(const RemoveTask& request) {
  const auto result = registry_.remove(request.task);
  if (result.ok()) {
    persist_and_trace(*result.op);
    tasks_.erase(request.task);
    broadcast(TaskDetach{request.task, result.epoch});
    VLOG_INFO("coordinator", "task ", request.task, " removed at epoch ",
              result.epoch);
  }
  return ControlReply{result.status, result.epoch, registry_.version(),
                      result.error};
}

ControlReply CoordinatorNode::apply_shard_allowance(
    const ShardAllowance& request) {
  const auto it = tasks_.find(request.task);
  if (it == tasks_.end()) {
    return ControlReply{control::ControlStatus::kNotFound, 0,
                        registry_.version(), "unknown task"};
  }
  if (!(request.error_allowance >= 0.0 && request.error_allowance <= 1.0)) {
    return ControlReply{control::ControlStatus::kInvalid, 0,
                        registry_.version(), "error allowance in [0, 1]"};
  }
  TaskRuntime& rt = it->second;
  const double err = request.error_allowance;
  rt.record.spec.error_allowance = err;
  std::vector<MonitorId> lanes;
  std::vector<double> split, weights;
  for (const auto& [id, a] : rt.allowance) {
    lanes.push_back(id);
    split.push_back(a);
    weights.push_back(session_weight(id));
  }
  rescale_split(split, err, weights, static_cast<double>(total_weight()));
  for (std::size_t i = 0; i < lanes.size(); ++i)
    push_allowance(request.task, rt, lanes[i], split[i]);
  VLOG_INFO("coordinator", "task ", request.task, " budget set to ", err);
  return ControlReply{control::ControlStatus::kOk, rt.record.epoch,
                      registry_.version(), {}};
}

double CoordinatorNode::shard_aggregate(TaskId task) const {
  const auto it = tasks_.find(task);
  return it != tasks_.end() ? it->second.last_aggregate : 0.0;
}

std::vector<ShardSummary> CoordinatorNode::drain_shard_summaries(
    std::uint32_t shard_id) {
  std::vector<ShardSummary> out;
  out.reserve(tasks_.size());
  for (auto& [task, rt] : tasks_) {
    ShardSummary summary;
    summary.shard = shard_id;
    summary.task = task;
    summary.r = rt.exported.avg_gain;
    summary.e = rt.exported.avg_allowance;
    summary.yield = summary.e > 0.0 ? summary.r / summary.e : 0.0;
    summary.allowance_used = rt.record.spec.error_allowance;
    summary.observations = rt.exported.observations;
    out.push_back(summary);
    rt.exported = {};
  }
  return out;
}

TaskListReply CoordinatorNode::build_task_list() const {
  TaskListReply reply;
  reply.registry_version = registry_.version();
  for (const auto& [task, rt] : tasks_) {
    TaskEntry entry;
    entry.task = task;
    entry.epoch = rt.record.epoch;
    entry.global_threshold = rt.record.spec.global_threshold;
    entry.error_allowance = rt.record.spec.error_allowance;
    entry.updating_period = rt.record.spec.updating_period;
    entry.allowance_split.assign(rt.allowance.begin(), rt.allowance.end());
    reply.tasks.push_back(std::move(entry));
  }
  return reply;
}

Message CoordinatorNode::control(const Message& request) {
  NetCoordinatorMetrics::get().control_requests->inc();
  if (const auto* add = std::get_if<AddTask>(&request)) return apply_add(*add);
  if (const auto* update = std::get_if<UpdateTask>(&request))
    return apply_update(*update);
  if (const auto* remove = std::get_if<RemoveTask>(&request))
    return apply_remove(*remove);
  if (const auto* budget = std::get_if<ShardAllowance>(&request))
    return apply_shard_allowance(*budget);
  return build_task_list();
}

void CoordinatorNode::disconnect_session(MonitorId id, Session& session) {
  if (session.conn.valid()) reactor_.remove_fd(session.conn.fd());
  session.conn.close();
  session.out.clear();  // undeliverable now; a reconnect resyncs instead
  session.write_blocked = false;
  session.connected = false;
  if (!session.done) mark_suspect(id, session);
}

void CoordinatorNode::bind_session(PendingConn&& pending, const Hello& hello,
                                   bool shard, std::uint32_t weight) {
  const MonitorId id = hello.monitor;
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    if (sessions_.size() >= options_.monitors) {
      VLOG_WARN("coordinator", "unexpected extra monitor ", id,
                "; dropping connection");
      return;
    }
    Session session;
    session.conn = std::move(pending.conn);
    session.reader = std::move(pending.reader);
    session.last_seen_ms = Reactor::now_ms();
    session.shard = shard;
    session.weight = weight;
    it = sessions_.emplace(id, std::move(session)).first;
    // Teach the newcomer the full task set. Monitors dedupe by epoch, so
    // the boot task's attach (epoch 1, which they seeded themselves) is a
    // no-op while dynamically added tasks take effect.
    for (auto& [task, rt] : tasks_) {
      rt.allowance.emplace(id, weighted_share(rt, id));
      send_to(id, it->second, make_attach(rt, id));
    }
    if (hello.resume) {
      // A monitor resuming against a restarted coordinator: resync every
      // task's allowance.
      ++fault_stats_.reconnects;
      for (auto& [task, rt] : tasks_) {
        send_to(id, it->second,
                allowance_frame(shard, task, rt.allowance[id]));
      }
    }
    if (all_joined()) {
      for (auto& [task, rt] : tasks_) {
        if (rt.pending_poll_tick && !rt.active_poll) {
          const Tick tick = *rt.pending_poll_tick;
          rt.pending_poll_tick.reset();
          start_poll(task, rt, tick);
        }
      }
    }
  } else {
    Session& session = it->second;
    const bool was_dead = session.state == MonitorLiveness::kDead;
    const bool was_down = session.state != MonitorLiveness::kActive;
    if (session.conn.valid()) reactor_.remove_fd(session.conn.fd());
    session.out.clear();  // frames addressed to the old connection
    session.write_blocked = false;
    session.conn.close();
    session.conn = std::move(pending.conn);
    session.reader = std::move(pending.reader);
    session.connected = true;
    session.state = MonitorLiveness::kActive;
    session.last_seen_ms = Reactor::now_ms();
    session.shard = shard;
    session.weight = weight;
    ++fault_stats_.reconnects;
    if (was_down) {
      ++fault_stats_.recovered;
      NetCoordinatorMetrics::get().recoveries->inc();
      obs::trace().record(
          obs::TraceKind::kLivenessTransition, 0, id,
          liveness_code(MonitorLiveness::kActive),
          liveness_code(was_dead ? MonitorLiveness::kDead
                                 : MonitorLiveness::kSuspect));
    }
    if (was_dead) {
      // Re-admit: the monitor re-enters at the allowance floor and earns
      // its share back through StatsReports.
      VLOG_INFO("coordinator", "dead monitor ", id, " rejoined");
      redistribute_and_push();
    }
    // Resync handshake: full task set, then per-task allowance.
    for (auto& [task, rt] : tasks_) {
      send_to(id, session, make_attach(rt, id));
    }
    for (auto& [task, rt] : tasks_) {
      send_to(id, session, allowance_frame(shard, task, rt.allowance[id]));
    }
  }
  // Frames that followed Hello in the same burst are already buffered.
  Session& session = it->second;
  while (auto payload = session.reader.next()) {
    const auto message = decode(*payload);
    if (!message) continue;
    handle_message(id, session, *message);
  }
  if (session.reader.corrupt()) disconnect_session(id, session);
}

void CoordinatorNode::handle_message(MonitorId id, Session& session,
                                     const Message& message) {
  messages_received_.fetch_add(1, std::memory_order_relaxed);
  if (session.state == MonitorLiveness::kSuspect) {
    // Any traffic from a suspect proves it alive again.
    session.state = MonitorLiveness::kActive;
    ++fault_stats_.recovered;
    NetCoordinatorMetrics::get().recoveries->inc();
    obs::trace().record(obs::TraceKind::kLivenessTransition, 0, id,
                        liveness_code(MonitorLiveness::kActive),
                        liveness_code(MonitorLiveness::kSuspect));
  }
  if (const auto* heartbeat = std::get_if<Heartbeat>(&message)) {
    ++fault_stats_.heartbeats;
    NetCoordinatorMetrics::get().heartbeats->inc();
    send_to(id, session, HeartbeatAck{heartbeat->seq});
    return;
  }
  if (std::get_if<Hello>(&message) || std::get_if<ShardHello>(&message)) {
    return;  // duplicate Hello/ShardHello on an already-bound session
  }
  if (const auto* violation = std::get_if<LocalViolation>(&message)) {
    // One poll at a time per task: coincident local violations are answered
    // by the task's in-flight poll aggregate. Before the full house joined,
    // remember the violation and poll once everyone is in.
    const auto task_it = tasks_.find(violation->task);
    if (task_it == tasks_.end()) return;  // removed task's straggler
    TaskRuntime& rt = task_it->second;
    if (!all_joined()) {
      rt.pending_poll_tick = violation->tick;
    } else if (!rt.active_poll) {
      start_poll(violation->task, rt, violation->tick);
    }
    return;
  }
  if (const auto* response = std::get_if<PollResponse>(&message)) {
    session.last_values[response->task] = response->value;
    const auto task_it = tasks_.find(response->task);
    if (task_it == tasks_.end()) return;
    TaskRuntime& rt = task_it->second;
    if (rt.active_poll && response->poll_id == *rt.active_poll) {
      rt.poll_values[response->monitor] = response->value;
      check_poll_completion(response->task, rt);
    }
    return;
  }
  if (const auto* stats = std::get_if<StatsReport>(&message)) {
    const auto task_it = tasks_.find(stats->task);
    if (task_it == tasks_.end()) return;
    task_it->second.pending_stats[stats->monitor] = {
        stats->avg_gain, stats->avg_allowance, stats->observations};
    maybe_reallocate(stats->task, task_it->second);
    return;
  }
  if (const auto* summary = std::get_if<ShardSummary>(&message)) {
    // A shard's compressed coordination stats: feed (r, e) into the same
    // round a StatsReport drives, over shard sums instead of monitor
    // averages.
    // An empty summary (no downstream round finished since the last one)
    // keeps the session fresh but is no report: counting its zero yield
    // would move budget away from a shard whose round merely fell into
    // another summary window.
    session.last_summary_ms = Reactor::now_ms();
    if (summary->observations == 0) return;
    const auto task_it = tasks_.find(summary->task);
    if (task_it == tasks_.end()) return;
    task_it->second.pending_stats[summary->shard] = {summary->r, summary->e,
                                                     summary->observations};
    maybe_reallocate(summary->task, task_it->second);
    return;
  }
  if (const auto* bye = std::get_if<Bye>(&message)) {
    if (!session.done) {
      session.done = true;
      reported_ops_[bye->monitor] = bye->scheduled_ops + bye->forced_ops;
    }
    return;
  }
  (void)id;
}

// Event-driven dispatch: a quiet coordinator sleeps in epoll until the next
// frame or the next due deadline (liveness sweep, poll timeout,
// pending-Hello drop, idle guard).
void CoordinatorNode::run() {
  idle_abort_ = false;
  last_activity_ms_ = Reactor::now_ms();
  reactor_.enable_loop_stats(0);
  reactor_.add_fd(listener_.fd(),
                  [this](std::uint32_t) { on_accept(); });
  schedule_idle_timer();

  while (!stop_.load()) {
    if (all_joined() && finished_sessions() >= options_.monitors) break;
    if (idle_abort_) break;
    reactor_.run_once(-1);
    loop_wakeups_.fetch_add(1, std::memory_order_relaxed);
    // Deferred egress: every frame queued during this turn's dispatch
    // (acks, attaches, poll fan-out) coalesces into one writev per session.
    flush_dirty();
  }
  reactor_.remove_fd(listener_.fd());
  for (const auto& [fd, pending] : pending_) {
    (void)pending;
    reactor_.remove_fd(fd);
  }
  pending_.clear();

  if (!stop_.load()) {
    broadcast(Shutdown{});
    flush_dirty();
    // The loop is exiting, so drain the farewell synchronously.
    for (auto& [id, session] : sessions_) {
      (void)id;
      if (session.connected && !session.out.empty()) {
        session.out.flush_blocking(session.conn.fd(),
                                   options_.heartbeat_timeout_ms);
      }
    }
  }
  for (auto& [id, session] : sessions_) {
    (void)id;
    if (session.conn.valid()) reactor_.remove_fd(session.conn.fd());
  }
  dirty_sessions_.clear();
}

void CoordinatorNode::on_accept() {
  while (auto conn = listener_.accept()) {
    conn->set_nonblocking(true);
    const int fd = conn->fd();
    PendingConn pending;
    pending.conn = std::move(*conn);
    pending.since_ms = Reactor::now_ms();
    pending_.emplace(fd, std::move(pending));
    reactor_.add_fd(fd, [this, fd](std::uint32_t events) {
      on_pending(fd, events);
    });
    last_activity_ms_ = Reactor::now_ms();
  }
  schedule_pending_timer();
}

void CoordinatorNode::on_pending(int fd, std::uint32_t events) {
  if (!Reactor::readable(events)) return;
  auto it = pending_.find(fd);
  if (it == pending_.end()) return;
  PendingConn& pending = it->second;
  std::array<std::byte, 8192> buf;
  bool drop = false;
  bool bound = false;
  Hello hello{};
  bool shard_hello = false;
  std::uint32_t shard_weight = 1;
  while (!bound && !drop) {
    const auto n = pending.conn.recv_some(buf);
    if (!n) break;  // drained
    if (*n == 0) {
      drop = true;
      break;
    }
    last_activity_ms_ = Reactor::now_ms();
    pending.reader.feed(std::span<const std::byte>(buf.data(), *n));
    while (auto payload = pending.reader.next()) {
      const auto message = decode(*payload);
      if (!message) continue;
      if (const auto* h = std::get_if<Hello>(&*message)) {
        hello = *h;
        bound = true;
        break;
      }
      if (const auto* sh = std::get_if<ShardHello>(&*message)) {
        hello = Hello{sh->shard, sh->resume};
        shard_hello = true;
        shard_weight = sh->monitors;
        bound = true;
        break;
      }
      if (const auto* stats = std::get_if<StatsRequest>(&*message)) {
        serve_stats(pending.conn, *stats);
        drop = true;
        break;
      }
      if (is_control_request(*message)) {
        pending.conn.send_all(frame_payload(encode(control(*message))));
        drop = true;
        break;
      }
      VLOG_WARN("coordinator", "dropping pre-Hello frame");
    }
    if (pending.reader.corrupt()) drop = true;  // peer loss, like EOF
    if (*n < buf.size()) break;  // short read: the socket is empty for now
  }
  if (bound) {
    PendingConn taken = std::move(it->second);
    pending_.erase(it);
    bind_session(std::move(taken), hello, shard_hello, shard_weight);
    const auto sit = sessions_.find(hello.monitor);
    if (sit != sessions_.end() && sit->second.connected &&
        sit->second.conn.fd() == fd) {
      const MonitorId id = hello.monitor;
      reactor_.update_handler(fd, [this, id](std::uint32_t ev) {
        on_session(id, ev);
      });
      schedule_liveness_timer();
    } else if (reactor_.watching(fd)) {
      // bind_session refused (extra monitor) or tore the session down while
      // draining its buffered frames; the fd is gone either way.
      reactor_.remove_fd(fd);
    }
  } else if (drop) {
    reactor_.remove_fd(fd);
    pending_.erase(it);
  }
}

void CoordinatorNode::on_session(MonitorId id, std::uint32_t events) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  if (!session.connected) return;
  if (Reactor::writable(events) && !session.out.empty()) {
    flush_session(id, session);
    if (!session.connected) return;
  }
  if (!Reactor::readable(events)) return;
  // Batched ingress: read until a short read and decode every complete
  // frame in one dispatch, so a burst costs one wakeup instead of one per
  // frame. A short read means the socket is empty for now; stopping there
  // saves the recv that would only return EAGAIN, and the level-triggered
  // registration reports later bytes (or EOF) on the next turn.
  std::array<std::byte, 8192> buf;
  while (session.connected) {
    const auto n = session.conn.recv_some(buf);
    if (!n) break;  // EAGAIN
    if (*n == 0) {
      disconnect_session(id, session);
      return;
    }
    const std::int64_t now = Reactor::now_ms();
    last_activity_ms_ = now;
    session.last_seen_ms = now;
    session.reader.feed(std::span<const std::byte>(buf.data(), *n));
    while (auto payload = session.reader.next()) {
      const auto message = decode(*payload);
      if (!message) {
        VLOG_WARN("coordinator", "dropping malformed frame");
        continue;
      }
      handle_message(id, session, *message);
      if (!session.connected) return;
    }
    if (session.reader.corrupt()) {
      disconnect_session(id, session);  // peer loss, like EOF
      return;
    }
    if (*n < buf.size()) break;  // short read
  }
}

void CoordinatorNode::flush_session(MonitorId id, Session& session) {
  const int fd = session.conn.fd();
  switch (session.out.flush(fd)) {
    case FrameWriter::FlushResult::kDrained:
      if (session.write_blocked) {
        reactor_.set_want_write(fd, false);
        session.write_blocked = false;
      }
      break;
    case FrameWriter::FlushResult::kBlocked:
      if (!session.write_blocked) {
        reactor_.set_want_write(fd, true);  // EAGAIN backpressure
        session.write_blocked = true;
      }
      break;
    case FrameWriter::FlushResult::kPeerGone:
      disconnect_session(id, session);
      break;
  }
}

void CoordinatorNode::flush_dirty() {
  // send_to may mark more sessions dirty while flushing (disconnect ->
  // suspect -> reallocation pushes); index iteration covers appends.
  for (std::size_t i = 0; i < dirty_sessions_.size(); ++i) {
    const MonitorId id = dirty_sessions_[i];
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) continue;
    Session& session = it->second;
    session.dirty = false;
    if (!session.connected || session.out.empty()) continue;
    flush_session(id, session);
  }
  dirty_sessions_.clear();
}

void CoordinatorNode::liveness_sweep() {
  const std::int64_t now = Reactor::now_ms();
  for (auto& [id, session] : sessions_) {
    if (session.done) continue;
    if (session.state == MonitorLiveness::kActive &&
        now - session.last_seen_ms > options_.heartbeat_timeout_ms) {
      mark_suspect(id, session);
    } else if (session.state == MonitorLiveness::kSuspect &&
               now - session.suspect_since_ms > options_.staleness_bound_ms) {
      declare_dead(id, session);
    }
  }
  schedule_liveness_timer();
}

void CoordinatorNode::schedule_liveness_timer() {
  // ONE coalesced timer for the whole fleet, armed at the earliest
  // suspect/dead deadline — per-session timers would mean O(sessions)
  // wakeups per timeout window, which is exactly the idle-CPU cost the
  // reactor exists to kill. A heartbeat that arrives after arming merely
  // makes the sweep a no-op that re-arms later.
  std::optional<std::int64_t> min_due;
  for (const auto& [id, session] : sessions_) {
    (void)id;
    if (session.done || session.state == MonitorLiveness::kDead) continue;
    const std::int64_t due =
        session.state == MonitorLiveness::kActive
            ? session.last_seen_ms + options_.heartbeat_timeout_ms
            : session.suspect_since_ms + options_.staleness_bound_ms;
    if (!min_due || due < *min_due) min_due = due;
  }
  if (!min_due) {
    if (liveness_timer_armed_) {
      reactor_.cancel_timer(liveness_timer_);
      liveness_timer_armed_ = false;
    }
    return;
  }
  // An already-armed earlier (or equal) deadline only fires early — fine.
  if (liveness_timer_armed_ && liveness_timer_due_ <= *min_due) return;
  if (liveness_timer_armed_) reactor_.cancel_timer(liveness_timer_);
  const std::int64_t delay =
      std::max<std::int64_t>(*min_due - Reactor::now_ms(), 0) + 1;
  liveness_timer_ = reactor_.add_timer(delay, [this] {
    liveness_timer_armed_ = false;
    liveness_sweep();
  });
  liveness_timer_armed_ = true;
  liveness_timer_due_ = *min_due;
}

void CoordinatorNode::schedule_pending_timer() {
  if (pending_timer_armed_ || pending_.empty()) return;
  std::int64_t min_since = pending_.begin()->second.since_ms;
  for (const auto& [fd, pending] : pending_) {
    (void)fd;
    min_since = std::min(min_since, pending.since_ms);
  }
  const std::int64_t due = min_since + options_.heartbeat_timeout_ms;
  const std::int64_t delay =
      std::max<std::int64_t>(due - Reactor::now_ms(), 0) + 1;
  pending_timer_ = reactor_.add_timer(delay, [this] {
    pending_timer_armed_ = false;
    const std::int64_t now = Reactor::now_ms();
    for (auto it = pending_.begin(); it != pending_.end();) {
      // A connection silent for a whole heartbeat timeout never said Hello.
      if (now - it->second.since_ms > options_.heartbeat_timeout_ms) {
        reactor_.remove_fd(it->first);
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    schedule_pending_timer();
  });
  pending_timer_armed_ = true;
}

void CoordinatorNode::schedule_idle_timer() {
  const std::int64_t due = last_activity_ms_ + options_.idle_timeout_ms;
  const std::int64_t delay =
      std::max<std::int64_t>(due - Reactor::now_ms(), 0) + 1;
  reactor_.add_timer(delay, [this] {
    if (Reactor::now_ms() - last_activity_ms_ > options_.idle_timeout_ms) {
      VLOG_ERROR("coordinator", "session idle too long; aborting");
      idle_abort_ = true;
    } else {
      schedule_idle_timer();  // activity moved the deadline; chase it
    }
  });
}

}  // namespace volley::net
