#include "control/registry_store.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "common/log.h"
#include "common/wire_io.h"
#include "obs/metrics.h"
#include "storage/record_stream.h"

namespace volley::control {

namespace {

constexpr StreamFormat kSnapshotFormat{
    {'V', 'R', 'E', 'G'}, 2, "registry snapshot"};
constexpr StreamFormat kJournalFormat{
    {'V', 'R', 'G', 'J'}, 2, "registry journal"};

/// The snapshot's first record: the registry version and the task count.
struct SnapshotHead {
  std::uint64_t version{0};
  std::uint32_t count{0};
};

void fields(auto& io, wire::Is<SnapshotHead> auto& h) {
  io(h.version, h.count);
}

struct StoreMetrics {
  obs::CounterCell* journal_appends;
  obs::CounterCell* compactions;
  obs::CounterCell* torn_records;

  static StoreMetrics make(obs::MetricsRegistry& m) {
    return StoreMetrics{
        &m.counter("volley_control_journal_appends_total",
                   "Registry ops appended to the control journal")
             .cell(),
        &m.counter("volley_control_compactions_total",
                   "Registry snapshot compactions")
             .cell(),
        &m.counter("volley_control_torn_records_total",
                   "Corrupt/truncated journal records skipped at load")
             .cell(),
    };
  }

  static const StoreMetrics& get() { return obs::scoped_handles(&make); }
};

}  // namespace

RegistryStore::RegistryStore(std::string base_path)
    : base_path_(std::move(base_path)) {
  if (base_path_.empty()) {
    throw std::invalid_argument("RegistryStore: empty base path");
  }
}

RegistryLoadStats RegistryStore::load(TaskRegistry& registry) {
  RegistryLoadStats stats;

  if (const auto bytes = read_file(snapshot_path())) {
    RecordReader in(*bytes, kSnapshotFormat);
    const bool empty = in.at_end();
    SnapshotHead head;
    if (in.next(head)) {
      std::vector<TaskRecord> records;
      // The count is unchecked input: cap the reservation, and let a count
      // the file cannot hold stop the read loop at the end of the stream.
      records.reserve(std::min(head.count, wire::kMaxCount));
      for (TaskRecord record; records.size() < head.count && in.next(record);)
        records.push_back(record);
      // A snapshot is all-or-nothing: it is written atomically, so a short
      // read, or bytes past the last record (a damaged count), mean
      // external corruption — fall back to replaying the journal from
      // scratch rather than installing half a registry.
      if (records.size() == head.count && in.at_end()) {
        registry.restore_snapshot(head.version, std::move(records));
        stats.had_snapshot = true;
        stats.snapshot_tasks = registry.size();
      }
    }
    if (!empty && !stats.had_snapshot) {
      VLOG_WARN("control", "registry snapshot corrupt; ignoring it");
    }
  }

  if (const auto bytes = read_file(journal_path())) {
    RecordReader in(*bytes, kJournalFormat);
    for (RegistryOp op; in.next(op); ++stats.journal_ops) registry.restore(op);
    stats.journal_clean = in.clean();
    if (!stats.journal_clean) {
      StoreMetrics::get().torn_records->inc();
      VLOG_WARN("control", "registry journal has a torn tail after ",
                stats.journal_ops, " valid op(s); replayed the prefix");
    }
  }
  journal_ops_ = stats.journal_ops;

  // Collapse the recovered state into a fresh snapshot so the next restart
  // replays nothing and a torn tail cannot be re-read. (This also opens the
  // journal for appending.)
  compact(registry);
  return stats;
}

void RegistryStore::open_journal_for_append() {
  if (journal_.is_open()) return;
  // Append mode keeps any existing ops; write the header only for a brand
  // new (empty) journal.
  journal_.open(journal_path(), std::ios::binary | std::ios::app);
  if (!journal_) {
    throw std::runtime_error("RegistryStore: cannot open journal " +
                             journal_path());
  }
  journal_.seekp(0, std::ios::end);
  if (journal_.tellp() == std::streampos(0)) {
    std::vector<std::byte> header;
    append_header(header, kJournalFormat);
    write_out(journal_, header);
    journal_.flush();
  }
}

void RegistryStore::append(const RegistryOp& op) {
  open_journal_for_append();
  std::vector<std::byte> bytes;
  append_record(bytes, op);
  write_out(journal_, bytes);
  journal_.flush();  // the op is durable before it is acknowledged
  if (!journal_) {
    throw std::runtime_error("RegistryStore: journal append failed");
  }
  ++journal_ops_;
  StoreMetrics::get().journal_appends->inc();
}

void RegistryStore::compact(const TaskRegistry& registry) {
  const auto records = registry.list();
  std::vector<std::byte> bytes;
  append_header(bytes, kSnapshotFormat);
  const auto count = static_cast<std::uint32_t>(records.size());
  append_record(bytes, SnapshotHead{registry.version(), count});
  for (const auto& record : records) append_record(bytes, record);

  const std::string tmp = snapshot_path() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("RegistryStore: cannot write " + tmp);
    }
    write_out(out, bytes);
    out.flush();
    if (!out) {
      throw std::runtime_error("RegistryStore: snapshot write failed");
    }
  }
  if (std::rename(tmp.c_str(), snapshot_path().c_str()) != 0) {
    throw std::runtime_error("RegistryStore: cannot replace snapshot");
  }

  // Truncate the journal: everything it held is folded into the snapshot.
  // Reopening the empty file writes its header.
  journal_.close();
  std::ofstream(journal_path(), std::ios::binary | std::ios::trunc).close();
  journal_ops_ = 0;
  open_journal_for_append();
  StoreMetrics::get().compactions->inc();
}

void RegistryStore::maybe_compact(const TaskRegistry& registry) {
  if (journal_ops_ > kCompactThreshold) compact(registry);
}

}  // namespace volley::control
