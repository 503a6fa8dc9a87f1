// Durable persistence for the task registry: snapshot + append-only journal.
//
// The control plane must survive a coordinator crash with the task set
// intact (a restarted coordinator that forgot its tasks would silently stop
// monitoring them). The store keeps two files derived from one base path:
//
//   <base>.snapshot   full registry image, atomically replaced (tmp+rename)
//   <base>.journal    RegistryOps appended since the snapshot
//
// Load = read the snapshot (if any), then replay journal ops in order.
// Every mutation is appended to the journal and flushed before it is
// acknowledged; once the journal grows past kCompactThreshold ops the
// registry is re-snapshotted and the journal truncated.
//
// Formats (little-endian; CRC-32 is storage/sample_log.h's IEEE 802.3):
//   snapshot: magic "VREG" | u32 format=1 | u64 registry_version |
//             u32 count | count x { u32 len | TaskRecord bytes | u32 crc }
//   journal:  magic "VRGJ" | u32 format=1 |
//             repeated    { u8 op | u32 len | TaskRecord bytes | u32 crc }
//             (crc covers the op byte followed by the record bytes)
//
// Crash tolerance mirrors the sample log: the journal reader stops at the
// first truncated or CRC-corrupt record — a crash mid-append loses at most
// the op being written, never an acknowledged one (ops are flushed before
// the acknowledgment) and never the parse of the valid prefix.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "control/task_registry.h"

namespace volley::control {

/// What load() found on disk — surfaced so callers can log/assert recovery.
struct RegistryLoadStats {
  bool had_snapshot{false};
  std::size_t snapshot_tasks{0};
  std::size_t journal_ops{0};   // valid ops replayed
  bool journal_clean{true};     // false when a torn/corrupt tail was hit
};

class RegistryStore {
 public:
  /// Binds the store to `<base_path>.snapshot` / `<base_path>.journal`.
  /// Creates nothing until load() or append() runs.
  explicit RegistryStore(std::string base_path);

  /// Replays snapshot + journal into `registry` (which is cleared first via
  /// restore_snapshot when a snapshot exists). Opens the journal for
  /// appending afterwards. Throws std::runtime_error only when a file
  /// exists but is not a registry file at all (bad magic/format); a header
  /// cut short reads as an empty file, and torn or corrupt records are
  /// reported through the stats, not thrown.
  RegistryLoadStats load(TaskRegistry& registry);

  /// Appends one op and flushes it to the OS before returning. Lazily
  /// writes the journal header on first use.
  void append(const RegistryOp& op);

  /// Rewrites the snapshot from `registry` (atomically: tmp + rename) and
  /// truncates the journal.
  void compact(const TaskRegistry& registry);

  /// compact() once the journal holds more than kCompactThreshold ops.
  void maybe_compact(const TaskRegistry& registry);

  std::size_t journal_ops_since_compact() const { return journal_ops_; }
  std::string snapshot_path() const { return base_path_ + ".snapshot"; }
  std::string journal_path() const { return base_path_ + ".journal"; }

  static constexpr std::size_t kCompactThreshold = 128;
  /// Upper bound on a serialized TaskRecord accepted at load time; a
  /// corrupt length field must not trigger an unbounded allocation.
  static constexpr std::uint32_t kMaxRecordBytes = 1 << 16;

 private:
  void open_journal_for_append();

  std::string base_path_;
  std::ofstream journal_;
  std::size_t journal_ops_{0};
};

}  // namespace volley::control
