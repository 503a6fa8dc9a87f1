#include "net/monitor_node.h"

#include <algorithm>
#include <array>
#include <chrono>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"

namespace volley::net {

namespace {
std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct MonitorNodeMetrics {
  obs::CounterCell* reconnect_attempts;
  obs::CounterCell* reconnects;
  obs::CounterCell* degraded_ticks;
  obs::CounterCell* task_attaches;
  obs::CounterCell* task_detaches;

  static MonitorNodeMetrics make(obs::MetricsRegistry& m) {
    return MonitorNodeMetrics{
        &m.counter("volley_net_reconnect_attempts_total",
                   "Coordinator reconnect attempts (successes and failures)")
             .cell(),
        &m.counter("volley_net_reconnects_total",
                   "Successful session resumes (Hello{resume} accepted)")
             .cell(),
        &m.counter("volley_net_degraded_ticks_total",
                   "Ticks spent sampling in degraded (coordinator-less) mode")
             .cell(),
        &m.counter("volley_net_task_attaches_total",
                   "TaskAttach frames applied (new or newer-epoch revisions)")
             .cell(),
        &m.counter("volley_net_task_detaches_total",
                   "TaskDetach frames applied (samplers retired)")
             .cell(),
    };
  }

  static const MonitorNodeMetrics& get() {
    return obs::scoped_handles(&make);
  }
};
}  // namespace

MonitorNode::MonitorNode(const MonitorNodeOptions& options,
                         const MetricSource& source)
    : options_(options),
      source_(&source),
      jitter_rng_(static_cast<std::uint64_t>(options.id) * 7919 + 17) {
  if (!options.sample_log_path.empty()) {
    sample_log_ = std::make_unique<SampleLogWriter>(options.sample_log_path);
  }
  if (options.ticks < 1)
    throw std::invalid_argument("MonitorNode: ticks >= 1");
  if (options.updating_period < 1)
    throw std::invalid_argument("MonitorNode: updating_period >= 1");
  if (options.heartbeat_interval_ms <= 0)
    throw std::invalid_argument("MonitorNode: heartbeat_interval_ms > 0");
  if (options.reconnect_backoff_ms <= 0 ||
      options.reconnect_backoff_max_ms < options.reconnect_backoff_ms)
    throw std::invalid_argument("MonitorNode: bad reconnect backoff");
  // Seed the boot task (id 0, epoch 1) from the node's own options; the
  // coordinator seeds the same record, so its attach push is a no-op here.
  TaskState boot;
  boot.epoch = kBootTaskEpoch;
  boot.updating_period = options.updating_period;
  boot.next_report = options.updating_period;
  boot.monitor = std::make_unique<Monitor>(options.id, source, options.sampler,
                                           options.local_threshold);
  boot_allowance_ = boot.monitor->error_allowance();
  tasks_.emplace(kBootTaskId, std::move(boot));
  known_epochs_[kBootTaskId] = kBootTaskEpoch;
}

std::int64_t MonitorNode::scheduled_ops() const {
  std::int64_t n = retired_scheduled_;
  for (const auto& [task, state] : tasks_) n += state.monitor->scheduled_ops();
  return n;
}

std::int64_t MonitorNode::forced_ops() const {
  std::int64_t n = retired_forced_;
  for (const auto& [task, state] : tasks_) n += state.monitor->forced_ops();
  return n;
}

std::int64_t MonitorNode::local_violations() const {
  std::int64_t n = retired_violations_;
  for (const auto& [task, state] : tasks_)
    n += state.monitor->local_violations();
  return n;
}

double MonitorNode::final_allowance() const {
  const auto it = tasks_.find(kBootTaskId);
  return it != tasks_.end() ? it->second.monitor->error_allowance()
                            : boot_allowance_;
}

std::map<TaskId, std::uint64_t> MonitorNode::task_epochs() const {
  return known_epochs_;
}

std::int64_t MonitorNode::task_local_violations(TaskId task) const {
  std::int64_t n = 0;
  const auto retired = retired_task_violations_.find(task);
  if (retired != retired_task_violations_.end()) n += retired->second;
  const auto it = tasks_.find(task);
  if (it != tasks_.end()) n += it->second.monitor->local_violations();
  return n;
}

bool MonitorNode::send(const Message& m) {
  if (!connected_) return false;
  const auto payload = encode(m);
  if (conn_.send_all(frame_payload(payload))) return true;
  drop_connection();
  return false;
}

void MonitorNode::drop_connection() {
  if (connected_) {
    VLOG_WARN("monitor", "lost coordinator link; entering degraded mode");
  }
  if (conn_.valid()) reactor_.remove_fd(conn_.fd());
  conn_.close();
  connected_ = false;
  reader_ = FrameReader{};
  backoff_ms_ = options_.reconnect_backoff_ms;
  next_attempt_ms_ = now_ms();  // first retry is immediate
}

bool MonitorNode::try_attach_session(bool resume) {
  auto conn = TcpConnection::try_connect(options_.coordinator_host,
                                         options_.coordinator_port,
                                         options_.connect_timeout_ms);
  if (!conn) return false;
  conn->set_nonblocking(true);
  conn_ = std::move(*conn);
  // Registered with a no-op handler: readiness only ends the tick wait;
  // wait_tick drains the socket through service_messages right after.
  reactor_.add_fd(conn_.fd(), [](std::uint32_t) {});
  reader_ = FrameReader{};
  connected_ = true;
  last_rx_ms_ = now_ms();
  last_heartbeat_ms_ = 0;  // heartbeat on the next loop turn
  if (!send(Hello{options_.id, resume})) return false;
  return true;
}

void MonitorNode::maybe_reconnect(std::int64_t now) {
  if (connected_ || coordinator_lost_) return;
  if (now < next_attempt_ms_) return;
  MonitorNodeMetrics::get().reconnect_attempts->inc();
  if (try_attach_session(/*resume=*/ever_connected_)) {
    failed_attempts_ = 0;
    if (ever_connected_) {
      ++reconnects_;
      MonitorNodeMetrics::get().reconnects->inc();
      VLOG_INFO("monitor", "reconnected to coordinator (resume)");
    }
    ever_connected_ = true;
    return;
  }
  ++failed_attempts_;
  if (failed_attempts_ >= options_.max_reconnect_attempts) {
    VLOG_ERROR("monitor", "giving up on coordinator after ",
               failed_attempts_, " attempts; running degraded to the end");
    coordinator_lost_ = true;
    return;
  }
  // Capped exponential backoff with +-25% jitter so a fleet of monitors
  // does not reconnect in lockstep after a coordinator restart.
  const double jitter = jitter_rng_.uniform(0.75, 1.25);
  next_attempt_ms_ =
      now + static_cast<std::int64_t>(backoff_ms_ * jitter);
  obs::trace().record(obs::TraceKind::kReconnectAttempt, 0, options_.id,
                      static_cast<double>(failed_attempts_),
                      static_cast<double>(next_attempt_ms_ - now));
  backoff_ms_ = std::min(backoff_ms_ * 2, options_.reconnect_backoff_max_ms);
}

void MonitorNode::heartbeat_if_due(std::int64_t now) {
  if (!connected_) return;
  if (now - last_heartbeat_ms_ < options_.heartbeat_interval_ms) return;
  if (send(Heartbeat{options_.id, ++heartbeat_seq_})) {
    last_heartbeat_ms_ = now;
  }
}

void MonitorNode::retire_monitor(TaskId task, const Monitor& monitor) {
  retired_scheduled_ += monitor.scheduled_ops();
  retired_forced_ += monitor.forced_ops();
  retired_violations_ += monitor.local_violations();
  retired_task_violations_[task] += monitor.local_violations();
  if (task == kBootTaskId) boot_allowance_ = monitor.error_allowance();
}

void MonitorNode::apply_attach(const TaskAttach& attach, Tick t) {
  auto& known = known_epochs_[attach.task];
  if (attach.epoch <= known) return;  // replayed / stale revision: no-op
  known = attach.epoch;
  const auto existing = tasks_.find(attach.task);
  if (existing != tasks_.end()) {
    // Re-spec: the sampler restarts with the new knobs (adaptation state
    // does not survive a revision — the new spec may change the rules it
    // adapted under). Its op counts fold into the retired totals.
    retire_monitor(attach.task, *existing->second.monitor);
    tasks_.erase(existing);
  }
  AdaptiveSamplerOptions sampler = options_.sampler;  // keep estimator knobs
  sampler.error_allowance = attach.error_allowance;
  sampler.slack_ratio = attach.slack_ratio;
  sampler.patience = attach.patience;
  sampler.max_interval = attach.max_interval;
  TaskState state;
  state.epoch = attach.epoch;
  state.updating_period = std::max<Tick>(attach.updating_period, 1);
  state.next_report = t + state.updating_period;
  state.monitor = std::make_unique<Monitor>(options_.id, *source_, sampler,
                                            attach.local_threshold);
  tasks_.emplace(attach.task, std::move(state));
  MonitorNodeMetrics::get().task_attaches->inc();
  VLOG_INFO("monitor", "attached task ", attach.task, " at epoch ",
            attach.epoch);
}

void MonitorNode::apply_detach(const TaskDetach& detach) {
  auto& known = known_epochs_[detach.task];
  if (detach.epoch <= known) return;
  known = detach.epoch;  // tombstone: older attaches cannot resurrect it
  const auto it = tasks_.find(detach.task);
  if (it == tasks_.end()) return;
  retire_monitor(detach.task, *it->second.monitor);
  tasks_.erase(it);
  MonitorNodeMetrics::get().task_detaches->inc();
  VLOG_INFO("monitor", "detached task ", detach.task, " at epoch ",
            detach.epoch);
}

MonitorNode::ServiceResult MonitorNode::service_messages(Tick t) {
  std::array<std::byte, 4096> buf;
  bool peer_closed = false;
  while (true) {
    const auto n = conn_.recv_some(buf);
    if (!n) break;  // no data ready (non-blocking)
    if (*n == 0) {  // peer closed; frames already received still count
      peer_closed = true;
      break;
    }
    last_rx_ms_ = now_ms();
    reader_.feed(std::span<const std::byte>(buf.data(), *n));
  }
  while (auto payload = reader_.next()) {
    const auto message = decode(*payload);
    if (!message) {
      VLOG_WARN("monitor", "dropping malformed frame");
      continue;
    }
    if (std::holds_alternative<Shutdown>(*message))
      return ServiceResult::kShutdown;
    if (std::holds_alternative<HeartbeatAck>(*message)) {
      continue;  // its arrival already refreshed last_rx_ms_
    }
    if (const auto* attach = std::get_if<TaskAttach>(&*message)) {
      apply_attach(*attach, t);
    } else if (const auto* detach = std::get_if<TaskDetach>(&*message)) {
      apply_detach(*detach);
    } else if (const auto* update = std::get_if<AllowanceUpdate>(&*message)) {
      // Initial allocation, periodic reallocation, and the post-reconnect
      // allowance resync all arrive through here.
      const auto it = tasks_.find(update->task);
      if (it != tasks_.end()) {
        it->second.monitor->set_error_allowance(update->error_allowance);
      }
    } else if (const auto* poll = std::get_if<PollRequest>(&*message)) {
      // Answer with the freshest value this node can produce for the task:
      // its state at the current local tick (cached when it already sampled
      // this tick). TaskAttach rides the same FIFO connection, so a poll
      // for an unknown task means the task was detached concurrently —
      // answer 0 so the coordinator's poll still completes.
      PollResponse resp;
      resp.monitor = options_.id;
      resp.poll_id = poll->poll_id;
      resp.tick = t;
      resp.task = poll->task;
      const auto it = tasks_.find(poll->task);
      if (it != tasks_.end()) {
        const auto outcome = it->second.monitor->force_sample(t);
        log_sample(outcome);
        resp.value = outcome.sample.value;
      }
      if (!send(resp)) return ServiceResult::kDisconnected;
    }
  }
  if (peer_closed || reader_.corrupt()) {
    drop_connection();
    return ServiceResult::kDisconnected;
  }
  return ServiceResult::kOk;
}

MonitorNode::ServiceResult MonitorNode::wait_tick(Tick t,
                                                  std::int64_t wait_ns) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(wait_ns);
  while (!stop_.load()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    reactor_.run_once_for(deadline - now);
    if (connected_) {
      // Drain whatever woke us (level-triggered: leaving bytes unread would
      // spin the wait loop). Poll answers go out mid-tick, not at t + 1.
      const ServiceResult r = service_messages(t);
      if (r != ServiceResult::kOk) return r;
    }
  }
  return ServiceResult::kOk;
}

void MonitorNode::run() {
  // One loop per monitor: it owns a single upstream connection, and the
  // same reactor drives the tick waits and socket dispatch alike.
  backoff_ms_ = options_.reconnect_backoff_ms;
  next_attempt_ms_ = now_ms();
  if (try_attach_session(/*resume=*/false)) {
    ever_connected_ = true;
  }

  for (Tick t = 0; t < options_.ticks && !stop_.load(); ++t) {
    const std::int64_t now = now_ms();
    if (connected_) {
      switch (service_messages(t)) {
        case ServiceResult::kShutdown:
          if (sample_log_) sample_log_->flush();
          return;
        case ServiceResult::kDisconnected:
        case ServiceResult::kOk:
          break;
      }
    }
    // A half-open link delivers nothing — not even heartbeat acks.
    if (connected_ && now - last_rx_ms_ > options_.coordinator_timeout_ms) {
      VLOG_WARN("monitor", "coordinator silent for too long");
      drop_connection();
    }
    heartbeat_if_due(now);
    maybe_reconnect(now);

    if (connected_) {
      for (auto& [task, state] : tasks_) {
        if (state.monitor->due(t)) {
          const auto outcome = state.monitor->step(t);
          log_sample(outcome);
          if (outcome.local_violation) {
            LocalViolation report;
            report.monitor = options_.id;
            report.tick = t;
            report.value = outcome.sample.value;
            report.task = task;
            send(report);  // failure flips to degraded mode; keep ticking
          }
          if (!connected_) break;
        }
      }
      for (auto& [task, state] : tasks_) {
        if (!connected_) break;
        if (t >= state.next_report) {
          const CoordStats stats = state.monitor->drain_coord_stats();
          StatsReport report;
          report.monitor = options_.id;
          report.avg_gain = stats.avg_gain;
          report.avg_allowance = stats.avg_allowance;
          report.observations = stats.observations;
          report.task = task;
          if (send(report)) state.next_report = t + state.updating_period;
        }
      }
    } else {
      // Degraded mode: fall back to periodic sampling at the default
      // interval — the conservative schedule — so the violation likelihood
      // of the unobserved window is zero while the coordinator is away.
      for (auto& [task, state] : tasks_) {
        const auto outcome = state.monitor->force_sample(t);
        log_sample(outcome);
      }
      ++degraded_ticks_;
      MonitorNodeMetrics::get().degraded_ticks->inc();
    }

    switch (wait_tick(t, static_cast<std::int64_t>(options_.tick_micros) *
                             1000)) {
      case ServiceResult::kShutdown:
        if (sample_log_) sample_log_->flush();
        return;
      case ServiceResult::kDisconnected:
      case ServiceResult::kOk:
        break;  // the next tick's service pass picks up from here
    }
  }

  if (sample_log_) sample_log_->flush();

  Bye bye;
  bye.monitor = options_.id;
  bye.scheduled_ops = scheduled_ops();
  bye.forced_ops = forced_ops();
  if (!send(bye)) return;

  // Keep answering polls (and heartbeating) for stragglers until Shutdown
  // or the grace timeout.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.shutdown_grace_ms);
  while (std::chrono::steady_clock::now() < deadline && !stop_.load()) {
    // Straggler polls are answered with the last in-range tick's state.
    if (service_messages(options_.ticks - 1) != ServiceResult::kOk) return;
    heartbeat_if_due(now_ms());
    // Park until a straggler frame, the next heartbeat, or the deadline.
    const auto now = std::chrono::steady_clock::now();
    const auto wait = std::min(
        deadline - now,
        std::chrono::steady_clock::duration(
            std::chrono::milliseconds(options_.heartbeat_interval_ms)));
    if (wait.count() > 0) {
      reactor_.run_once_for(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wait));
    }
  }
}

void MonitorNode::log_sample(const Monitor::Outcome& outcome) {
  if (!sample_log_) return;
  SampleRecord record;
  record.monitor = options_.id;
  record.tick = outcome.sample.tick;
  record.value = outcome.sample.value;
  record.reason = outcome.reason;
  sample_log_->append(record);
}

}  // namespace volley::net
