#include "shard/sharded_coordinator.h"

#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace_events.h"

namespace volley::shard {

namespace {

// Root-tier instrumentation. Only ever touched on shards > 1 paths:
// registering these counters in a run-scoped registry would already change
// metrics_json, and the shards == 1 configuration must stay byte-identical
// to the flat coordinator.
struct ShardMetrics {
  obs::CounterCell* escalations;
  obs::CounterCell* alerts;
  AllowanceRoundMetrics root_round;  // the root's counter, nothing else

  static ShardMetrics make(obs::MetricsRegistry& m) {
    return ShardMetrics{
        &m.counter("volley_shard_escalations_total",
                   "Root polls triggered by a shard aggregate exceeding its "
                   "threshold slice T_s")
             .cell(),
        &m.counter("volley_shard_root_violations_total",
                   "Root escalations whose task aggregate exceeded T (state "
                   "alerts)")
             .cell(),
        {&m.counter("volley_shard_root_reallocations_total",
                    "Root budget reallocation rounds over shard summaries")
              .cell()},
    };
  }

  static const ShardMetrics& get() { return obs::scoped_handles(&make); }
};

}  // namespace

ShardedCoordinator::ShardedCoordinator(
    const TaskSpec& spec, std::vector<std::unique_ptr<Monitor>> monitors,
    std::size_t shards, const AllocatorFactory& allocator_factory,
    FaultModel* faults, Tick start)
    : spec_(spec) {
  spec_.validate();
  if (monitors.empty())
    throw std::invalid_argument(
        "ShardedCoordinator: needs at least one monitor");
  monitor_count_ = monitors.size();
  placement_ = contiguous_placement(monitor_count_, shards);

  shards_.reserve(shards);
  budgets_.reserve(shards);
  for (const ShardRange& range : placement_) {
    TaskSpec shard_spec = spec_;
    if (shards > 1) {
      // T_s = Σ of the subset's local thresholds, err_s = err · n_s/n.
      // With one shard the spec is used verbatim instead: the float sum of
      // the thresholds may differ from T in the last ulp, and the identity
      // discipline demands the exact flat configuration.
      double slice = 0.0;
      for (std::size_t i = range.begin; i < range.end; ++i)
        slice += monitors[i]->local_threshold();
      shard_spec.global_threshold = slice;
      shard_spec.error_allowance =
          spec_.error_allowance * static_cast<double>(range.size()) /
          static_cast<double>(monitor_count_);
    }
    budgets_.push_back(shard_spec.error_allowance);

    std::vector<std::unique_ptr<Monitor>> subset;
    subset.reserve(range.size());
    for (std::size_t i = range.begin; i < range.end; ++i)
      subset.push_back(std::move(monitors[i]));
    shards_.push_back(std::make_unique<Coordinator>(
        shard_spec, std::move(subset),
        allocator_factory ? allocator_factory(range.size()) : nullptr,
        faults, start));
  }
  if (shards > 1 && allocator_factory)
    root_allocator_ = allocator_factory(shards);
  next_root_update_ = start + spec_.updating_period;
}

const Monitor& ShardedCoordinator::monitor(std::size_t i) const {
  const std::size_t s = shard_of(placement_, i);
  return shards_[s]->monitor(i - placement_[s].begin);
}

Monitor& ShardedCoordinator::monitor(std::size_t i) {
  const std::size_t s = shard_of(placement_, i);
  return shards_[s]->monitor(i - placement_[s].begin);
}

Coordinator::TickResult ShardedCoordinator::run_tick(Tick t) {
  // Flat identity: one shard means no root tier at all — same results,
  // same metrics, same traces as a bare Coordinator.
  if (shards_.size() == 1) return shards_[0]->run_tick(t);

  Coordinator::TickResult result;
  bool escalate = false;
  tick_scratch_.clear();
  for (auto& shard : shards_) {
    const auto tick = shard->run_tick(t);
    result.any_due = result.any_due || tick.any_due;
    result.local_violations += tick.local_violations;
    result.global_poll = result.global_poll || tick.global_poll;
    escalate = escalate || tick.global_violation;
    tick_scratch_.push_back(tick);
  }

  if (escalate) {
    // Root poll: aggregate every shard. A shard that already polled this
    // tick collected its subset aggregate at t — reuse it; the rest pay a
    // forced subset poll (n_s operations, cached for monitors that
    // sampled at t anyway), under the fault model when one is set. On
    // reliable links the total is exactly the flat coordinator's poll
    // aggregate at t.
    ++escalations_;
    ShardMetrics::get().escalations->inc();
    double total = 0.0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      total += tick_scratch_[s].global_poll ? tick_scratch_[s].global_value
                                            : shards_[s]->force_poll(t);
    }
    result.global_poll = true;
    result.global_value = total;
    result.global_violation = total > spec_.global_threshold;
    if (result.global_violation) {
      ++root_violations_;
      ShardMetrics::get().alerts->inc();
      obs::trace().record(obs::TraceKind::kAlertRaised, t, 0, total,
                          spec_.global_threshold);
    }
  }

  maybe_root_reallocate(t);
  return result;
}

void ShardedCoordinator::maybe_root_reallocate(Tick t) {
  if (t < next_root_update_) return;
  next_root_update_ = t + spec_.updating_period;
  if (!root_allocator_) return;

  // The shards share the task's updating period, so their own reallocation
  // rounds (inside run_tick, above) have just drained this period's
  // per-monitor statistics: last_period_stats() is fresh. The root
  // reassigns budgets from those summaries; the new budgets shape the
  // shards' *next* rounds.
  stats_scratch_.clear();
  for (auto& shard : shards_) stats_scratch_.push_back(shard->last_period_stats());
  run_allowance_round(
      *root_allocator_, spec_.error_allowance, budgets_, stats_scratch_,
      ShardMetrics::get().root_round, t,
      [this](std::size_t s, double err) { shards_[s]->set_error_budget(err); });
  ++root_reallocations_;
}

std::int64_t ShardedCoordinator::shard_polls() const {
  std::int64_t polls = 0;
  for (const auto& shard : shards_) polls += shard->global_polls();
  return polls;
}

std::int64_t ShardedCoordinator::global_violations() const {
  if (shards_.size() == 1) return shards_[0]->global_violations();
  return root_violations_;
}

std::int64_t ShardedCoordinator::reallocations() const {
  std::int64_t rounds = root_reallocations_;
  for (const auto& shard : shards_) rounds += shard->reallocations();
  return rounds;
}

std::int64_t ShardedCoordinator::total_ops() const {
  std::int64_t ops = 0;
  for (const auto& shard : shards_) ops += shard->total_ops();
  return ops;
}

double ShardedCoordinator::total_cost() const {
  double cost = 0.0;
  for (const auto& shard : shards_) cost += shard->total_cost();
  return cost;
}

}  // namespace volley::shard
