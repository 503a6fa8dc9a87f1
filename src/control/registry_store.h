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
// Formats: two record streams (storage/record_stream.h), where
// record{body} is the body's wire bytes (common/wire_io.h) followed by a
// u32 CRC-32 of exactly those bytes:
//   snapshot: magic "VREG" | u32 format=2 |
//             record{ u64 registry_version | u32 count } |
//             count x record{ TaskRecord }
//   journal:  magic "VRGJ" | u32 format=2 |
//             repeated record{ u8 op | TaskRecord }
// A TaskRecord has a fixed width, so no record carries a length. A
// format-1 file is refused as an unsupported format.
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

 private:
  void open_journal_for_append();

  std::string base_path_;
  std::ofstream journal_;
  std::size_t journal_ops_{0};
};

}  // namespace volley::control
