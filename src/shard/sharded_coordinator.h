// Two-tier coordination: the paper's error decomposition nested one level
// up (DESIGN.md §13).
//
// β_c ≤ Σ_i β_i (Section IV-B) holds for any partition of the monitor set,
// so it nests: slice the monitors into S shards, give shard s the threshold
// slice T_s = Σ_{i∈s} T_i and the budget slice err_s = err · n_s/n, and
// each shard is a "super-monitor" whose miss probability is bounded by the
// sum of its members' β_i. Concretely each shard runs an unmodified
// core::Coordinator over its subset — adaptive sampling, local polls on
// local violations, AIMD allowance reallocation — and the root tier runs
// the *same* allowance round (core/error_allocation.h) one level up, over
// shard summaries instead of raw monitors:
//
//  * escalation: a shard whose subset aggregate exceeds T_s reports
//    upward; the root then polls every shard (reusing any subset aggregate
//    already collected this tick) and compares the total against T. A
//    local violation that stays under its shard's T_s costs n_s forced
//    samples instead of the flat coordinator's n — the scaling win — and
//    can only hide a global violation with probability bounded by the
//    shard's β budget (Σ T_s = T, so all subsets quiet ⇒ no global
//    violation, exactly the Section II-A argument one level up).
//  * reallocation: once per updating period the root runs the round over
//    each shard's summed (r, e) statistics (Coordinator::last_period_stats)
//    to reassign the per-shard budgets err_s; shards fold their new budget
//    into their current per-monitor split proportionally
//    (Coordinator::set_error_budget). The root's round records only
//    volley_shard_root_reallocations_total. Budgets always sum to err, so
//    β_c ≤ Σ_shards Σ_i β_i ≤ err is preserved at both levels.
//
// Identity discipline: with shards == 1, run_tick forwards to the single
// Coordinator and the root tier is never entered — no extra metrics, no
// extra traces, bit-identical results to the flat tick loop (asserted by
// tests/test_shard.cpp and bench_shard).
//
// Thread-safety: none — one ShardedCoordinator is one single-threaded tick
// loop, like the flat Coordinator. The distributed mirror (AggregatorNode
// in src/net) runs each shard in its own process instead.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/coordinator.h"
#include "core/error_allocation.h"
#include "core/fault_model.h"
#include "core/monitor.h"
#include "core/task.h"
#include "core/types.h"
#include "shard/placement.h"

namespace volley::shard {

class ShardedCoordinator {
 public:
  /// Builds one allocator per instantiation of the allocation loop —
  /// called once per shard (lanes = that shard's monitor count) and once
  /// for the root (lanes = shard count). May return null (never
  /// reallocate at that level).
  using AllocatorFactory =
      std::function<std::unique_ptr<AllowanceAllocator>(std::size_t lanes)>;

  /// Takes ownership of the monitors (global id order) and slices them by
  /// contiguous_placement. With shards == 1 the spec is used verbatim for
  /// the single shard (the flat-identity case); otherwise shard s gets
  /// T_s = Σ of its monitors' local thresholds and err_s = err · n_s/n.
  /// `faults`, when set, is handed to every shard's Coordinator and must
  /// outlive this one: each shard's samples and polls, and the root's
  /// forced shard polls, run under its semantics by global monitor id
  /// (core/fault_model.h); the escalation itself is in-process and takes
  /// no draws. Every reallocation clock — each shard's and the root's —
  /// first fires at `start + updating_period`, as Coordinator's does.
  ShardedCoordinator(const TaskSpec& spec,
                     std::vector<std::unique_ptr<Monitor>> monitors,
                     std::size_t shards,
                     const AllocatorFactory& allocator_factory,
                     FaultModel* faults = nullptr, Tick start = 0);

  /// Advances every shard by one tick, then runs the root tier: escalation
  /// (poll all shards when any shard's aggregate exceeded its T_s) and the
  /// root reallocation round. The result's global_value / global_violation
  /// are root-level (aggregate vs T); global_poll is set when any shard
  /// polled or the root escalated.
  Coordinator::TickResult run_tick(Tick t);

  const TaskSpec& spec() const { return spec_; }
  std::size_t shard_count() const { return shards_.size(); }
  const Coordinator& shard(std::size_t s) const { return *shards_.at(s); }
  Coordinator& shard(std::size_t s) { return *shards_.at(s); }
  const std::vector<ShardRange>& placement() const { return placement_; }

  /// Current per-shard error budgets (sum to the task err).
  const std::vector<double>& budgets() const { return budgets_; }

  std::size_t monitor_count() const { return monitor_count_; }
  /// Monitor by *global* index (the flat runner's id order).
  const Monitor& monitor(std::size_t i) const;
  Monitor& monitor(std::size_t i);

  // --- accounting -----------------------------------------------------
  /// Shard-tier polls (subset aggregations on local violations).
  std::int64_t shard_polls() const;
  /// Root escalations: ticks where some shard aggregate exceeded its T_s
  /// and the root polled every shard. Always 0 with shards == 1.
  std::int64_t escalations() const { return escalations_; }
  /// Shard polls plus root escalations: with one shard escalations are 0
  /// and this is exactly the flat coordinator's count.
  std::int64_t global_polls() const { return shard_polls() + escalations_; }
  /// Root-level state alerts (aggregate > T).
  std::int64_t global_violations() const;
  /// Shard-local reallocation rounds plus root rounds.
  std::int64_t reallocations() const;
  std::int64_t root_reallocations() const { return root_reallocations_; }
  std::int64_t total_ops() const;
  double total_cost() const;

 private:
  void maybe_root_reallocate(Tick t);

  TaskSpec spec_;
  std::vector<ShardRange> placement_;
  std::vector<std::unique_ptr<Coordinator>> shards_;
  std::unique_ptr<AllowanceAllocator> root_allocator_;
  std::vector<double> budgets_;
  std::size_t monitor_count_{0};
  Tick next_root_update_{0};

  std::vector<Coordinator::TickResult> tick_scratch_;
  std::vector<CoordStats> stats_scratch_;

  std::int64_t escalations_{0};
  std::int64_t root_violations_{0};
  std::int64_t root_reallocations_{0};
};

}  // namespace volley::shard
