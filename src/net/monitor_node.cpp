#include "net/monitor_node.h"

#include <algorithm>
#include <chrono>

#include "common/log.h"
#include "obs/metrics.h"

namespace volley::net {

namespace {
struct MonitorNodeMetrics {
  obs::CounterCell* degraded_ticks;
  obs::CounterCell* task_attaches;
  obs::CounterCell* task_detaches;

  static MonitorNodeMetrics make(obs::MetricsRegistry& m) {
    return MonitorNodeMetrics{
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
      link_(reactor_,
            upstream_link_options(
                options, options.id,
                static_cast<std::uint64_t>(options.id) * 7919 + 17, "monitor"),
            [this](bool resume) { return Message{Hello{options_.id, resume}}; },
            [this](const Message& message) { on_frame(message); }) {
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

void MonitorNode::on_frame(const Message& message) {
  if (std::holds_alternative<Shutdown>(message)) {
    shutdown_ = true;
  } else if (const auto* attach = std::get_if<TaskAttach>(&message)) {
    apply_attach(*attach, now_tick_);
  } else if (const auto* detach = std::get_if<TaskDetach>(&message)) {
    apply_detach(*detach);
  } else if (const auto* update = std::get_if<AllowanceUpdate>(&message)) {
    // Initial allocation, periodic reallocation, and the post-reconnect
    // allowance resync all arrive through here.
    const auto it = tasks_.find(update->task);
    if (it != tasks_.end()) {
      it->second.monitor->set_error_allowance(update->error_allowance);
    }
  } else if (const auto* poll = std::get_if<PollRequest>(&message)) {
    // Answer with the freshest value this node can produce for the task:
    // its state at the current local tick (cached when it already sampled
    // this tick). TaskAttach rides the same FIFO connection, so a poll
    // for an unknown task means the task was detached concurrently —
    // answer 0 so the coordinator's poll still completes.
    PollResponse resp;
    resp.monitor = options_.id;
    resp.poll_id = poll->poll_id;
    resp.tick = now_tick_;
    resp.task = poll->task;
    const auto it = tasks_.find(poll->task);
    if (it != tasks_.end()) {
      const auto outcome = it->second.monitor->force_sample(now_tick_);
      log_sample(outcome);
      resp.value = outcome.sample.value;
    }
    link_.send(resp);
  }
  // HeartbeatAck: its arrival already refreshed the link's silence clock.
}

void MonitorNode::park(std::chrono::nanoseconds wait,
                       const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + wait;
  while (!stop_.load() && !shutdown_ && !done()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    reactor_.run_once_for(deadline - now);
  }
}

void MonitorNode::run() {
  // One loop per monitor: the same reactor drives the tick waits, the
  // upstream link's socket and its connect, heartbeat and retry timers.
  const std::chrono::nanoseconds tick =
      std::chrono::microseconds(options_.tick_micros);
  const auto never = [] { return false; };
  link_.start();
  // A reachable coordinator accepts within microseconds: give the first
  // connect up to one tick, so a healthy session is up for tick 0.
  park(tick, [this] { return !link_.connecting(); });

  for (Tick t = 0; t < options_.ticks && !stop_.load() && !shutdown_; ++t) {
    now_tick_ = t;
    if (link_.connected()) {
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
            link_.send(report);  // failure flips to degraded; keep ticking
          }
          if (!link_.connected()) break;
        }
      }
      for (auto& [task, state] : tasks_) {
        if (!link_.connected()) break;
        if (t >= state.next_report) {
          const CoordStats stats = state.monitor->drain_coord_stats();
          StatsReport report;
          report.monitor = options_.id;
          report.avg_gain = stats.avg_gain;
          report.avg_allowance = stats.avg_allowance;
          report.observations = stats.observations;
          report.task = task;
          if (link_.send(report)) state.next_report = t + state.updating_period;
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
    park(tick, never);
  }

  if (sample_log_) sample_log_->flush();
  if (shutdown_) return;

  Bye bye;
  bye.monitor = options_.id;
  bye.scheduled_ops = scheduled_ops();
  bye.forced_ops = forced_ops();
  if (!link_.send(bye)) return;
  // Keep answering straggler polls (at the last tick's state) and
  // heartbeating until Shutdown, a lost link, or the grace timeout.
  park(std::chrono::milliseconds(options_.shutdown_grace_ms),
       [this] { return !link_.connected(); });
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
