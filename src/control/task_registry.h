// Versioned registry of live monitoring tasks — the control plane's source
// of truth.
//
// The paper tunes cost/accuracy *per task* (Sections III-IV); a datacenter
// adds, retires, and re-thresholds tasks continuously, so the task set must
// be first-class mutable state rather than process-start configuration.
// The registry holds one TaskRecord per task id and numbers every revision
// with an *epoch* drawn from a single monotone counter (the registry
// version): add assigns the task its first epoch, update assigns a fresh
// higher one, and remove consumes an epoch too (so the registry version
// reflects removals). Epochs are therefore totally ordered across tasks
// and never reused — a receiver (monitor, replica, tool) can resolve any
// race by "highest epoch wins", and a removed-then-re-added task cannot be
// confused with its earlier incarnation.
//
// Mutations return the RegistryOp that was applied; the caller journals it
// through control/registry_store.h and fans it out to monitors. `restore`
// replays such ops verbatim (epochs included), which is exactly what the
// journal replay on coordinator restart does.
//
// Thread-safety: none — the coordinator mutates the registry from its
// single event-loop thread, like every other piece of session state.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "control/task_codec.h"
#include "core/types.h"

namespace volley::control {

/// Journaled mutation kinds. Values are the on-disk encoding — append-only.
enum class RegistryOpKind : std::uint8_t {
  kAdd = 1,
  kUpdate = 2,
  kRemove = 3,
};

/// The op byte's range (common/wire_io.h): 0 is not an op.
constexpr RegistryOpKind wire_min(RegistryOpKind) {
  return RegistryOpKind::kAdd;
}
constexpr RegistryOpKind wire_max(RegistryOpKind) {
  return RegistryOpKind::kRemove;
}

/// One applied mutation: what happened, to which record, at which epoch.
/// For kRemove the record carries the id and the epoch consumed by the
/// removal; its spec is the removed task's final spec (useful for audit).
struct RegistryOp {
  RegistryOpKind kind{RegistryOpKind::kAdd};
  TaskRecord record{};
};

/// A journal record's body: the op byte, then the record.
void fields(auto& io, wire::Is<RegistryOp> auto& op) {
  io(op.kind, op.record);
}

/// Outcome codes shared with the wire protocol's ControlReply.
enum class ControlStatus : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kExists = 2,
  kInvalid = 3,
};

/// Highest ControlStatus a ControlReply may carry (common/wire_io.h).
constexpr ControlStatus wire_max(ControlStatus) {
  return ControlStatus::kInvalid;
}

const char* control_status_name(ControlStatus status);

struct MutationResult {
  ControlStatus status{ControlStatus::kOk};
  std::uint64_t epoch{0};      // the revision assigned (0 on failure)
  std::string error{};         // human-readable reason on failure
  std::optional<RegistryOp> op{};  // present iff status == kOk

  bool ok() const { return status == ControlStatus::kOk; }
};

class TaskRegistry {
 public:
  /// Adds a new task. Fails with kExists on a live id and kInvalid on a
  /// spec that does not validate.
  MutationResult add(TaskId id, const TaskSpec& spec);

  /// Re-specs a live task, assigning it a fresh (higher) epoch.
  MutationResult update(TaskId id, const TaskSpec& spec);

  /// Removes a live task. The registry version still advances.
  MutationResult remove(TaskId id);

  /// Replays a previously applied op verbatim — epochs are taken from the
  /// record, not re-assigned, and the version counter is advanced to cover
  /// them. Used by journal replay; also tolerant of ops that no longer
  /// apply (e.g. remove of a missing id), which a torn journal can produce.
  void restore(const RegistryOp& op);

  /// Installs a snapshot: wholesale replacement of tasks and version.
  void restore_snapshot(std::uint64_t version,
                        std::vector<TaskRecord> records);

  const TaskRecord* find(TaskId id) const;
  /// All live records, ascending id.
  std::vector<TaskRecord> list() const;
  std::size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }
  /// Monotone mutation counter; also the highest epoch ever assigned.
  std::uint64_t version() const { return version_; }

 private:
  std::map<TaskId, TaskRecord> tasks_;
  std::uint64_t version_{0};
};

}  // namespace volley::control
