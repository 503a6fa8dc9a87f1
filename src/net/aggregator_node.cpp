#include "net/aggregator_node.h"

#include <chrono>
#include <utility>
#include <variant>

#include "common/log.h"
#include "core/task.h"
#include "obs/metrics.h"

namespace volley::net {

namespace {
struct AggregatorMetrics {
  obs::CounterCell* escalations;
  obs::CounterCell* summaries;

  static AggregatorMetrics make(obs::MetricsRegistry& m) {
    return AggregatorMetrics{
        &m.counter("volley_net_shard_escalations_total",
                   "Downstream subset alerts escalated upstream")
             .cell(),
        &m.counter("volley_net_shard_summaries_total",
                   "ShardSummary frames pushed to the root")
             .cell(),
    };
  }

  static const AggregatorMetrics& get() { return obs::scoped_handles(&make); }
};

CoordinatorNodeOptions downstream_options(
    const AggregatorNodeOptions& o,
    std::function<void(TaskId, Tick, double)> on_alert) {
  CoordinatorNodeOptions down;
  down.port = o.listen_port;
  down.monitors = o.monitors;
  down.global_threshold = o.global_threshold;
  down.error_allowance = o.error_allowance;
  down.adaptive_allocation = o.adaptive_allocation;
  down.poll_timeout_ms = o.poll_timeout_ms;
  down.idle_timeout_ms = o.idle_timeout_ms;
  down.heartbeat_timeout_ms = o.heartbeat_timeout_ms;
  down.staleness_bound_ms = o.staleness_bound_ms;
  down.registry_path = o.registry_path;
  down.on_alert = std::move(on_alert);
  return down;
}
}  // namespace

AggregatorNode::AggregatorNode(const AggregatorNodeOptions& options)
    : options_(options),
      downstream_(std::make_unique<CoordinatorNode>(downstream_options(
          options, [this](TaskId task, Tick tick, double value) {
            escalate(task, tick, value);
          }))),
      link_(downstream_->reactor(),
            upstream_link_options(
                options, options.shard_id,
                static_cast<std::uint64_t>(options.shard_id) * 7919 + 31,
                "aggregator"),
            [this](bool resume) {
              return Message{ShardHello{
                  options_.shard_id,
                  static_cast<std::uint32_t>(options_.monitors), resume}};
            },
            [this](const Message& message) { on_frame(message); }) {
  // Both ends seed the boot task (id 0) at epoch 1 from consistent configs,
  // exactly as monitors do: the root's first attach push is a no-op here.
  downstream_tasks_.insert(kBootTaskId);
  upstream_epochs_[kBootTaskId] = 1;
}

void AggregatorNode::request_stop() {
  stop_.store(true);
  downstream_->request_stop();  // wakes the loop
}

void AggregatorNode::escalate(TaskId task, Tick tick, double value) {
  // Without a root there is no one to escalate to; the subset alert is
  // already recorded downstream, which is the guarantee that matters.
  if (link_.send(LocalViolation{options_.shard_id, tick, value, task})) {
    ++escalations_;
    AggregatorMetrics::get().escalations->inc();
  }
}

void AggregatorNode::send_summaries() {
  // Drain only over a live link: the export accumulators keep aggregating
  // while disconnected, so a resumed session reports the full gap.
  if (link_.connected()) {
    for (const ShardSummary& summary :
         downstream_->drain_shard_summaries(options_.shard_id)) {
      if (!link_.send(summary)) break;
      ++summaries_sent_;
      AggregatorMetrics::get().summaries->inc();
    }
  }
  downstream_->reactor().add_timer(options_.summary_interval_ms,
                                   [this] { send_summaries(); });
}

void AggregatorNode::apply_attach(const TaskAttach& attach) {
  auto& known = upstream_epochs_[attach.task];
  if (attach.epoch <= known) return;  // replayed / stale revision: no-op
  known = attach.epoch;
  // The root's per-shard slice becomes the shard's own global task: its
  // local_threshold is this subset's T_s, its error_allowance the budget
  // err_s. The embedded coordinator re-slices both across the monitors.
  TaskSpec spec;
  spec.global_threshold = attach.local_threshold;
  spec.error_allowance = attach.error_allowance;
  spec.slack_ratio = attach.slack_ratio;
  spec.patience = attach.patience;
  spec.max_interval = attach.max_interval;
  spec.updating_period = attach.updating_period;
  const auto status = [this](const Message& request) {
    return std::get<ControlReply>(downstream_->control(request)).status;
  };
  auto result = downstream_tasks_.count(attach.task) != 0
                    ? status(UpdateTask{attach.task, spec})
                    : status(AddTask{attach.task, spec});
  if (result == control::ControlStatus::kExists) {
    // A durable downstream registry may already hold the task (restart
    // restore): re-spec it instead.
    result = status(UpdateTask{attach.task, spec});
  }
  if (result == control::ControlStatus::kOk) {
    downstream_tasks_.insert(attach.task);
    VLOG_INFO("aggregator", "shard ", options_.shard_id, " fanned task ",
              attach.task, " through at root epoch ", attach.epoch);
  }
}

void AggregatorNode::apply_detach(const TaskDetach& detach) {
  auto& known = upstream_epochs_[detach.task];
  if (detach.epoch <= known) return;
  known = detach.epoch;
  if (downstream_tasks_.erase(detach.task) == 0) return;
  downstream_->control(RemoveTask{detach.task});
}

void AggregatorNode::on_frame(const Message& message) {
  if (const auto* poll = std::get_if<PollRequest>(&message)) {
    // Cached-value semantics: answer with the latest settled subset
    // aggregate (see the header). 0.0 before the shard's first poll.
    link_.send(PollResponse{options_.shard_id, poll->poll_id, poll->tick,
                            downstream_->shard_aggregate(poll->task),
                            poll->task});
  } else if (const auto* attach = std::get_if<TaskAttach>(&message)) {
    apply_attach(*attach);
  } else if (const auto* detach = std::get_if<TaskDetach>(&message)) {
    apply_detach(*detach);
  } else if (const auto* budget = std::get_if<ShardAllowance>(&message)) {
    // Live split rescale in the embedded coordinator, no sampler restarts.
    downstream_->control(*budget);
  } else if (std::holds_alternative<Shutdown>(message)) {
    shutdown_received_ = true;
    link_.close();  // the root is done with this shard: no reconnects
  }
  // HeartbeatAck: its arrival already refreshed the link's silence clock.
}

void AggregatorNode::run() {
  Reactor& loop = downstream_->reactor();
  link_.start();
  loop.add_timer(options_.summary_interval_ms, [this] { send_summaries(); });
  downstream_->run();  // the shard, until its monitors are done

  // The shard is finished: report the subset's total op count (each
  // monitor's Bye, summed) and await the root's Shutdown on the same loop.
  std::int64_t ops = 0;
  for (const auto& [id, n] : downstream_->reported_ops()) ops += n;
  bool bye_sent = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.shutdown_grace_ms);
  while (!stop_.load() && !shutdown_received_ && !link_.lost()) {
    if (!bye_sent && link_.connected()) {
      bye_sent = link_.send(Bye{options_.shard_id, ops, 0});
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    loop.run_once_for(deadline - now);
  }
  link_.close();
}

}  // namespace volley::net
