// Binary codec for task specifications and registry records.
//
// One serialization, two consumers: the wire protocol (net/messages.h
// carries TaskSpec payloads inside AddTask/UpdateTask frames) and the
// durable registry store (control/registry_store.h journals TaskRecords).
// Keeping the byte layout here means a journaled record and a wire frame
// never drift apart — a spec accepted over the wire round-trips through the
// journal bit-for-bit.
//
// The layouts are the two `fields` functions below, encoded under the rules
// of common/wire_io.h (little-endian, fixed-width; the estimator bound is
// one byte, at most kGaussian).
//
// Decoding is total: truncated or out-of-range input returns false and
// leaves the cursor unspecified; nothing throws, because both consumers
// read bytes that may have crossed a network or survived a crash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/wire_io.h"
#include "core/task.h"
#include "core/types.h"

namespace volley {

constexpr auto wire_max(ViolationLikelihoodEstimator::Bound) {
  return ViolationLikelihoodEstimator::Bound::kGaussian;
}

/// TaskSpec on the wire and in the journal.
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

/// Appends the serialized spec to `out`.
void encode_task_spec(std::vector<std::byte>& out, const TaskSpec& spec);

/// Decodes one spec starting at `pos`, advancing it past the consumed
/// bytes. False on truncation or an invalid estimator-bound tag.
bool decode_task_spec(std::span<const std::byte> in, std::size_t& pos,
                      TaskSpec& spec);

/// Appends the serialized record (id, epoch, spec) to `out`.
void encode_task_record(std::vector<std::byte>& out, const TaskRecord& record);

/// Decodes one record starting at `pos`, advancing it past the consumed
/// bytes. False on truncation or an invalid spec.
bool decode_task_record(std::span<const std::byte> in, std::size_t& pos,
                        TaskRecord& record);

/// Convenience: one record as a standalone byte vector.
std::vector<std::byte> encode_record(const TaskRecord& record);

/// Field-wise equality of the codec-visible spec fields (TaskSpec has no
/// operator==; tests and the registry use this to compare revisions).
bool specs_equal(const TaskSpec& a, const TaskSpec& b);

}  // namespace volley::control
