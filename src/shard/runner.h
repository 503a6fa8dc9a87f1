// Sharded experiment driver: run_volley over a two-tier ShardedCoordinator
// (DESIGN.md §13).
//
// run_volley_sharded mirrors sim/runner.h's run_volley tick for tick — the
// same validation, the same run-scoped metrics registry, the same RunResult
// bookkeeping — with the flat Coordinator swapped for a ShardedCoordinator.
// With options.shards == 1 the result (metrics_json included) is
// byte-identical to run_volley: the single shard IS a flat coordinator and
// the root tier is never entered (tests/test_shard.cpp and bench_shard
// assert it).
#pragma once

#include <cstddef>
#include <span>

#include "core/task.h"
#include "shard/sharded_coordinator.h"
#include "sim/experiment.h"
#include "sim/runner.h"
#include "trace/trace.h"

namespace volley::shard {

struct ShardedRunOptions {
  std::size_t shards{1};
  AllocatorKind allocator{AllocatorKind::kAdaptive};
  bool record_ops{false};        // fill RunResult::op_ticks
  bool record_intervals{false};  // fill RunResult::interval_trajectory
};

/// Allocator factory matching sim/runner's make_allocator per level: the
/// flat defaults, except that AdaptiveAllocation's per-lane minimum is
/// capped at half an even share (min(0.01, 0.5/lanes)) so the paper's
/// err/100 floor stays feasible past 100 lanes. At <= 50 lanes the cap is
/// inactive and the options equal the flat defaults exactly — which is why
/// shards == 1 runs over small fleets are byte-identical to run_volley.
ShardedCoordinator::AllocatorFactory make_allocator_factory(
    AllocatorKind kind);

/// Runs Volley over a distributed task split into options.shards shards:
/// one monitor per series with the given local thresholds (must sum to the
/// spec's global threshold; asserted as in run_volley).
RunResult run_volley_sharded(const TaskSpec& spec,
                             std::span<const TimeSeries> monitor_series,
                             std::span<const double> local_thresholds,
                             const ShardedRunOptions& options = {});

/// run_volley_sharded against precomputed ground truth (see run_volley's
/// overload for why: sweeps reuse one GroundTruth across cells).
RunResult run_volley_sharded(const TaskSpec& spec,
                             std::span<const TimeSeries> monitor_series,
                             std::span<const double> local_thresholds,
                             const GroundTruth& truth,
                             const ShardedRunOptions& options = {});

}  // namespace volley::shard
