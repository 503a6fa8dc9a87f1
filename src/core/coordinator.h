// The coordinator of a distributed state monitoring task
// (paper Sections II, IV; Figure 3).
//
// Responsibilities:
//  * drive the task's monitors tick by tick (synchronous in-process runs;
//    the socket runtime in src/net speaks the same protocol over TCP);
//  * on any local violation, run a *global poll*: force-sample every
//    monitor, aggregate, and compare against the global threshold T;
//  * once per updating period (paper: 1000 Id), drain the averaged
//    r_i / e_i statistics from all monitors and run the allowance round
//    (core/error_allocation.h) with the configured AllowanceAllocator.
//
// Units: ticks are multiples of the task's default interval Id; threshold
// and aggregate values are in the monitored metric's unit; allowances are
// probabilities in [0, 1] summing to the task's err.
//
// Thread-safety: none. A Coordinator and its monitors form one single-
// threaded tick loop; run concurrent tasks as separate Coordinator
// instances. Instrumentation (volley_coordinator_* counters, the allowance-
// share histogram, kAlertRaised / kAllowanceAdjusted trace events) goes to
// the calling thread's obs/ bindings; the round's instruments are the ones
// net::CoordinatorNode records too.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/error_allocation.h"
#include "core/fault_model.h"
#include "core/monitor.h"
#include "core/task.h"
#include "core/types.h"

namespace volley {

class Coordinator {
 public:
  struct TickResult {
    bool any_due{false};          // at least one scheduled sample happened
    int local_violations{0};      // local violations observed this tick
    bool global_poll{false};      // a poll was triggered
    double global_value{0.0};     // aggregate at poll time (if polled)
    bool global_violation{false}; // aggregate exceeded T (if polled)
  };

  /// Takes ownership of the monitors; allocator may be null for a task that
  /// never reallocates (fixed even split). `faults`, when set, must outlive
  /// the coordinator: run_tick then drops reports and poll responses and
  /// skips down monitors under its semantics (fault_model.h); null is the
  /// reliable protocol. The model is keyed by each monitor's own id(), so
  /// a coordinator over a subset of a task's monitors (one shard) sees the
  /// faults of exactly those monitors. The first reallocation happens at
  /// `start + updating_period`.
  Coordinator(const TaskSpec& spec,
              std::vector<std::unique_ptr<Monitor>> monitors,
              std::unique_ptr<AllowanceAllocator> allocator,
              FaultModel* faults = nullptr, Tick start = 0);

  /// Advances the task by one tick. Touches only the monitors due at `t`
  /// (see the due-index notes below); the result and every observable side
  /// effect are bit-identical to scanning all monitors in id order.
  /// Under a fault model, local_violations counts every violation while
  /// only surviving reports trigger the poll, and a down monitor that is
  /// due is retried at t + 1.
  TickResult run_tick(Tick t);

  const TaskSpec& spec() const { return spec_; }
  std::size_t monitor_count() const { return monitors_.size(); }
  const Monitor& monitor(std::size_t i) const { return *monitors_.at(i); }
  Monitor& monitor(std::size_t i) { return *monitors_.at(i); }

  /// Current per-monitor error-allowance allocation (sums to task err).
  const std::vector<double>& allocation() const { return allocation_; }

  // --- shard-tier hooks (src/shard, DESIGN.md §13) --------------------
  //
  // A ShardedCoordinator nests the paper's decomposition one level up by
  // treating each Coordinator as a super-monitor. These hooks deliberately
  // have *no* counter/metric/trace side effects of their own: a shard
  // count of 1 must stay byte-identical to the flat tick loop, so all
  // shard-tier accounting lives with the caller.

  /// The global poll's value collection: force-samples every monitor at
  /// tick t and returns the aggregate, under the fault model's semantics
  /// when one is set (a down monitor or a lost response contributes its
  /// last known value, and a poll with any such value counts once as
  /// stale). run_tick's poll and the root tier's escalation both call it;
  /// it counts no global poll, raises no alert and touches no metric — the
  /// caller owns that accounting. Forced samples reschedule monitors
  /// wholesale, so the due index is rebuilt.
  double force_poll(Tick t);

  /// Replaces the task-level error budget err (the root tier pushes a new
  /// per-shard budget once per root updating period). The per-monitor
  /// allocation is rescaled by rescale_split (even when it is all zero) so
  /// it sums to `err` again, and the monitors see their new allowances
  /// immediately. Future reallocation rounds allocate the new budget.
  void set_error_budget(double err);

  /// The sums run_allowance_round returned at the most recent round — the
  /// (r, e) shard summary the root tier feeds its own round. Zero-valued
  /// until the first round.
  CoordStats last_period_stats() const { return last_period_stats_; }

  // --- accounting -----------------------------------------------------
  std::int64_t global_polls() const { return global_polls_; }
  std::int64_t global_violations() const { return global_violations_; }
  std::int64_t reallocations() const { return reallocations_; }
  /// Total sampling operations across all monitors (scheduled + forced).
  std::int64_t total_ops() const;
  /// Total abstract sampling cost across all monitors.
  double total_cost() const;

 private:
  void maybe_reallocate(Tick t);

  // --- due index ------------------------------------------------------
  //
  // A calendar (bucket-ring) queue over the monitors' next-sample ticks,
  // so a tick where nothing is due costs O(1) instead of O(monitors) —
  // the in-process mirror of why adaptive sampling exists at all.
  //
  // Invariants:
  //  * cursor_ is the next tick run_tick will consume; every monitor's
  //    pending entry lives at a tick in [cursor_, cursor_ + window_ - 1],
  //    which is why window_ = max Im + 2 buckets suffice: a sample at t
  //    reschedules to at most t + Im < (t + 1) + window_ - 1.
  //  * each monitor has exactly one entry, at max(next_sample, cursor_)
  //    (the clamp lets a freshly built index catch up when the first
  //    run_tick happens at t > 0, e.g. tasks arriving mid-run).
  //  * same-tick monitors run in ascending id order — collect_due marks
  //    the drained ids in a bitmap and reads it back word by word — so
  //    results are bit-identical to scanning every monitor's due(t) in id
  //    order (tests/reference/scan_all.h).
  //  * a global poll force-samples every monitor, invalidating most
  //    entries at once; rebuild_due_index() re-derives the ring in O(n),
  //    the same order as the poll itself.
  //
  // The coordinator owns its monitors' schedules: force-sampling a monitor
  // behind the coordinator's back would leave the index stale (nothing
  // in-tree does; use run_tick / the coordinator's own poll).
  void collect_due(Tick t);                        // fills due_scratch_
  void due_index_insert(MonitorId id, Tick next);  // clamps next to cursor_
  void rebuild_due_index();

  TaskSpec spec_;
  std::vector<std::unique_ptr<Monitor>> monitors_;
  std::unique_ptr<AllowanceAllocator> allocator_;
  FaultModel* faults_{nullptr};
  std::vector<double> allocation_;
  Tick next_update_{0};
  CoordStats last_period_stats_{};

  Tick cursor_{0};
  std::size_t cursor_slot_{0};                    // cursor_ % window_, cached
  std::size_t window_{0};                         // bucket count (max Im + 2)
  // The ring keyed tick % window_, one intrusive list per slot. Each
  // monitor has exactly one entry, so n + window_ ids hold the whole index
  // (per-slot vectors kept every slot's peak size, up to n after a poll).
  static constexpr MonitorId kNoMonitor = ~MonitorId{0};
  std::vector<MonitorId> bucket_head_;            // per slot: an id, or none
  std::vector<MonitorId> bucket_next_;            // per monitor: next in slot
  std::vector<std::uint64_t> due_marks_;          // n-bit drain bitmap
  std::vector<MonitorId> due_scratch_;            // due ids, ascending

  std::int64_t global_polls_{0};
  std::int64_t global_violations_{0};
  std::int64_t reallocations_{0};
};

}  // namespace volley
