// Binary layouts of task specifications and registry records.
//
// One layout, two consumers: the wire protocol (net/messages.h carries
// TaskSpec payloads inside AddTask/UpdateTask frames) and the durable
// registry store (control/registry_store.h writes TaskRecords as the
// bodies of its snapshot and journal records). Keeping the byte layout
// here means a journaled record and a wire frame never drift apart — a
// spec accepted over the wire round-trips through the journal bit-for-bit.
//
// The layouts are the two `fields` functions below, encoded and decoded
// by common/wire_io.h's ByteWriter and ByteReader (little-endian,
// fixed-width; the estimator bound is one byte, at most kGaussian).
#pragma once

#include <cstdint>

#include "common/wire_io.h"
#include "core/task.h"
#include "core/types.h"

namespace volley {

constexpr auto wire_max(ViolationLikelihoodEstimator::Bound) {
  return ViolationLikelihoodEstimator::Bound::kGaussian;
}

/// TaskSpec on the wire and in the registry files.
void fields(auto& io, wire::Is<TaskSpec> auto& s) {
  io(s.global_threshold, s.error_allowance, s.id_seconds, s.max_interval,
     s.slack_ratio, s.patience, s.updating_period, s.estimator.stats_window,
     s.estimator.stats_warmup, s.estimator.min_observations,
     s.estimator.bound);
}

}  // namespace volley

namespace volley::control {

/// One versioned entry of the task registry: the spec plus the epoch of its
/// latest revision (epochs are globally monotone across the registry, so a
/// higher epoch always means a strictly newer revision — see
/// control/task_registry.h).
struct TaskRecord {
  TaskId id{0};
  std::uint64_t epoch{0};
  TaskSpec spec{};
};

void fields(auto& io, wire::Is<TaskRecord> auto& r) {
  io(r.id, r.epoch, r.spec);
}

}  // namespace volley::control
