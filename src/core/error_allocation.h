// Task-level error-allowance allocation (paper Section IV-B).
//
// Because a missed local violation can hide a global violation and
// beta_c <= sum_i beta_i, the coordinator may distribute the task's error
// allowance err across monitors any way that keeps sum_i err_i = err.
// Different splits cost differently; the paper's iterative scheme moves
// allowance toward monitors with the highest *cost-reduction yield*
//
//     y_i = r_i / e_i,
//     r_i = 1/I_i - 1/(I_i+1)   (gain of growing monitor i's interval by 1)
//     e_i = beta_i(I_i)/(1-gamma) (allowance that growth would require)
//
// and reassigns err_i = err * y_i / sum_j y_j once per updating period.
// Throttles (both from the paper):
//   * minimum assignment: no monitor drops below err/100;
//   * uniformity throttle: the paper states "no reallocation if
//     max{y_i/y_j} < 0.1". Read literally that predicate is never true —
//     the max over ordered pairs is >= 1 (take i = j). The evident intent
//     is a near-uniformity test, and the implemented rule is exactly
//
//         skip  iff  min_y > 0  and  max_y / min_y - 1 < uniformity_band
//
//     with uniformity_band = 0.1: the largest pairwise yield ratio
//     max_{i,j} y_i/y_j stays below 1.1, i.e. the best yield exceeds the
//     worst by less than 10% *of the worst*. A zero yield (a monitor whose
//     interval cannot grow) disables the skip — its allowance should flow
//     to monitors that can use it. test_error_allocation.cpp pins both
//     edges of the band and the zero-yield case.
//
// `EvenAllocation` (the paper's "even" comparison scheme in Figure 8)
// always splits err uniformly.
//
// Units: every allowance (err, err_i, e_i) is a dimensionless probability
// in [0, 1]; r_i and y_i are dimensionless rates derived from interval
// counts.
//
// `run_allowance_round` is the one round every coordinator tier runs once
// per updating period: core::Coordinator and net::CoordinatorNode over
// monitors, shard::ShardedCoordinator's root over shards. What it records
// is the tier's metric identity, not an option (DESIGN.md §13).
//
// Thread-safety: allocators are stateless apart from their Options —
// allocate() is safe to call from any single thread at a time. Outcomes are
// observable through the volley_allocation_* counters and the round's
// instruments, recorded through the calling thread's obs bindings.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/types.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"

namespace volley {

class AllowanceAllocator {
 public:
  virtual ~AllowanceAllocator() = default;

  /// Computes the next per-monitor allowances. `current` holds the present
  /// allocation (summing to err); `stats` the averaged r/e statistics of
  /// the finished updating period. Returns the new allocation (sums to err).
  virtual std::vector<double> allocate(double err,
                                       std::span<const double> current,
                                       std::span<const CoordStats> stats) = 0;
};

/// Uniform split (baseline "even" scheme of Figure 8).
class EvenAllocation final : public AllowanceAllocator {
 public:
  std::vector<double> allocate(double err, std::span<const double> current,
                               std::span<const CoordStats> stats) override;
};

/// The paper's iterative yield-proportional scheme.
class AdaptiveAllocation final : public AllowanceAllocator {
 public:
  struct Options {
    // err_min = min_fraction * err; err/(2n) when n monitors' floors
    // would exceed err (n > 1/min_fraction).
    double min_fraction{0.01};
    double uniformity_band{0.1};    // skip when max_y/min_y - 1 < band
    double epsilon_allowance{1e-9}; // floor for e_i to avoid division by 0
    // Step size toward the yield-proportional target per updating period.
    // The paper's literal rule (err_i = err * y_i / sum y_j, i.e. step 1.0)
    // oscillates in practice: a monitor that just grew has a small marginal
    // gain r_i, so the rule strips its allowance, collapsing its interval
    // to Id, after which it looks high-yield again — and the paper itself
    // expects the assignment to "gradually" converge. The damped iteration
    // keeps the fixed point of the paper's rule but actually converges.
    double smoothing{0.3};
  };

  AdaptiveAllocation() : AdaptiveAllocation(Options{}) {}
  explicit AdaptiveAllocation(const Options& options);

  std::vector<double> allocate(double err, std::span<const double> current,
                               std::span<const CoordStats> stats) override;

 private:
  Options options_;
};

/// Clamps every entry to at least `floor_value` and rescales the remainder
/// so the vector still sums to `total`. Exposed for testing.
std::vector<double> clamp_and_normalize(std::vector<double> alloc,
                                        double total, double floor_value);

/// The instruments one tier records its rounds into.
struct AllowanceRoundMetrics {
  obs::CounterCell* rounds{nullptr};   // one bump per round
  obs::HistogramCell* share{nullptr};  // err_i/err per lane; null: none
  bool trace_changes{false};           // kAllowanceAdjusted per changed lane

  /// The coordinator tiers' instruments, registered in `m`.
  static AllowanceRoundMetrics coordinator(obs::MetricsRegistry& m);
};

/// Replaces `split` (summing to `budget`) with the allocator's next split
/// over the lanes' `stats`, hands each lane's new allowance to
/// `install(i, err_i)`, records the round into `metrics`, and returns the
/// summed stats. Trace events name lane i `lane_ids[i]` (i when empty) at
/// tick `t`. Installing inside the loop that records keeps one pass over
/// the lanes; a second pass cost measurably more per round
/// (EXPERIMENTS.md, "One allowance round").
template <typename Install>
CoordStats run_allowance_round(AllowanceAllocator& allocator, double budget,
                               std::vector<double>& split,
                               std::span<const CoordStats> stats,
                               const AllowanceRoundMetrics& metrics, Tick t,
                               Install&& install,
                               std::span<const MonitorId> lane_ids = {}) {
  CoordStats sums;
  for (const CoordStats& s : stats) sums += s;
  std::vector<double> next = allocator.allocate(budget, split, stats);
  for (std::size_t i = 0; i < next.size(); ++i) {
    install(i, next[i]);
    if (metrics.share && budget > 0.0) metrics.share->observe(next[i] / budget);
    if (metrics.trace_changes && next[i] != split[i]) {
      obs::trace().record(
          obs::TraceKind::kAllowanceAdjusted, t,
          lane_ids.empty() ? static_cast<MonitorId>(i) : lane_ids[i], next[i],
          split[i]);
    }
  }
  split = std::move(next);
  metrics.rounds->inc();
  return sums;
}

/// Rescales `split` in place to sum to `budget`, keeping the entries'
/// relative shares (the adaptive allocator's learned state). An all-zero
/// split (after a budget of 0) is rebuilt as budget·w_i/total_weight from
/// `weights`, or as the even split budget/n when `weights` is empty.
void rescale_split(std::span<double> split, double budget,
                   std::span<const double> weights = {},
                   double total_weight = 0.0);

/// Reclaims the allowance of failed monitors. Entries whose index appears
/// in `excluded` are zeroed; the surviving entries are rescaled (keeping
/// their relative proportions, with the standard err/100 floor — err/(2n)
/// beyond 100 survivors) so the whole vector sums to `err` again — because
/// beta_c <= sum_i beta_i holds over the *reachable* monitors, a dead
/// monitor's unused allowance is free error budget for the survivors.
/// Excluding every monitor yields all zeros.
std::vector<double> redistribute_allowance(
    double err, std::span<const double> current,
    std::span<const std::size_t> excluded);

}  // namespace volley
