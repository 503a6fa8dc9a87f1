#include "control/registry_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/log.h"
#include "common/wire_io.h"
#include "obs/metrics.h"
#include "storage/sample_log.h"

namespace volley::control {

namespace {

constexpr char kSnapshotMagic[4] = {'V', 'R', 'E', 'G'};
constexpr char kJournalMagic[4] = {'V', 'R', 'G', 'J'};
constexpr std::uint32_t kFormatVersion = 1;

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

void write_raw(std::ofstream& out, const void* p, std::size_t n) {
  out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
}

void write_u32(std::ofstream& out, std::uint32_t v) { write_raw(out, &v, 4); }
void write_u64(std::ofstream& out, std::uint64_t v) { write_raw(out, &v, 8); }

bool read_raw(std::ifstream& in, void* p, std::size_t n) {
  in.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  return static_cast<std::size_t>(in.gcount()) == n;
}

bool read_u8(std::ifstream& in, std::uint8_t& v) { return read_raw(in, &v, 1); }
bool read_u32(std::ifstream& in, std::uint32_t& v) {
  return read_raw(in, &v, 4);
}
bool read_u64(std::ifstream& in, std::uint64_t& v) {
  return read_raw(in, &v, 8);
}

/// Reads and checks a 4-byte magic + u32 format header. Throws on a file
/// that is clearly not ours; returns false on a file too short to hold the
/// header (a crash while the header was being written).
bool read_header(std::ifstream& in, const char (&magic)[4],
                 const char* what) {
  char found[4];
  if (!read_raw(in, found, 4)) return false;
  if (std::memcmp(found, magic, 4) != 0) {
    throw std::runtime_error(std::string(what) + ": bad magic");
  }
  std::uint32_t format = 0;
  if (!read_u32(in, format)) return false;
  if (format != kFormatVersion) {
    throw std::runtime_error(std::string(what) + ": unsupported format");
  }
  return true;
}

}  // namespace

RegistryStore::RegistryStore(std::string base_path)
    : base_path_(std::move(base_path)) {
  if (base_path_.empty()) {
    throw std::invalid_argument("RegistryStore: empty base path");
  }
}

RegistryLoadStats RegistryStore::load(TaskRegistry& registry) {
  RegistryLoadStats stats;

  // --- snapshot ---------------------------------------------------------
  {
    std::ifstream in(snapshot_path(), std::ios::binary);
    if (in && read_header(in, kSnapshotMagic, "registry snapshot")) {
      std::uint64_t version = 0;
      std::uint32_t count = 0;
      if (read_u64(in, version) && read_u32(in, count)) {
        std::vector<TaskRecord> records;
        // The count is unchecked input: cap the reservation, and let a
        // count the file cannot hold fail the read loop at EOF.
        records.reserve(std::min(count, wire::kMaxCount));
        bool intact = true;
        for (std::uint32_t i = 0; i < count && intact; ++i) {
          std::uint32_t len = 0;
          if (!read_u32(in, len) || len > kMaxRecordBytes) {
            intact = false;
            break;
          }
          std::vector<std::byte> bytes(len);
          std::uint32_t crc = 0;
          if (!read_raw(in, bytes.data(), len) || !read_u32(in, crc) ||
              crc != crc32(bytes.data(), bytes.size())) {
            intact = false;
            break;
          }
          TaskRecord record;
          std::size_t pos = 0;
          if (!decode_task_record(bytes, pos, record) || pos != len) {
            intact = false;
            break;
          }
          records.push_back(std::move(record));
        }
        // Bytes past the last record mean the count itself was damaged.
        if (in.peek() != std::ifstream::traits_type::eof()) intact = false;
        // A snapshot is all-or-nothing: it is written atomically, so a
        // partial parse means external corruption — fall back to replaying
        // the journal from scratch rather than installing half a registry.
        if (intact) {
          registry.restore_snapshot(version, std::move(records));
          stats.had_snapshot = true;
          stats.snapshot_tasks = registry.size();
        } else {
          VLOG_WARN("control", "registry snapshot corrupt; ignoring it");
        }
      }
    }
  }

  // --- journal replay ---------------------------------------------------
  {
    std::ifstream in(journal_path(), std::ios::binary);
    if (in && read_header(in, kJournalMagic, "registry journal")) {
      for (;;) {
        std::uint8_t op_byte = 0;
        std::uint32_t len = 0;
        if (!read_u8(in, op_byte)) break;  // clean EOF
        if (op_byte < static_cast<std::uint8_t>(RegistryOpKind::kAdd) ||
            op_byte > static_cast<std::uint8_t>(RegistryOpKind::kRemove) ||
            !read_u32(in, len) || len > kMaxRecordBytes) {
          stats.journal_clean = false;
          break;
        }
        std::vector<std::byte> bytes(len);
        std::uint32_t crc = 0;
        if (!read_raw(in, bytes.data(), len) || !read_u32(in, crc)) {
          stats.journal_clean = false;  // torn tail: crash mid-append
          break;
        }
        // The CRC covers op byte + record bytes so a bit flip in either is
        // caught, not just in the record body.
        std::vector<std::byte> covered;
        covered.reserve(1 + bytes.size());
        covered.push_back(static_cast<std::byte>(op_byte));
        covered.insert(covered.end(), bytes.begin(), bytes.end());
        if (crc != crc32(covered.data(), covered.size())) {
          stats.journal_clean = false;
          break;
        }
        RegistryOp op;
        op.kind = static_cast<RegistryOpKind>(op_byte);
        std::size_t pos = 0;
        if (!decode_task_record(bytes, pos, op.record) || pos != len) {
          stats.journal_clean = false;
          break;
        }
        registry.restore(op);
        ++stats.journal_ops;
      }
      if (!stats.journal_clean) {
        StoreMetrics::get().torn_records->inc();
        VLOG_WARN("control", "registry journal has a torn tail after ",
                  stats.journal_ops, " valid op(s); replayed the prefix");
      }
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
    write_raw(journal_, kJournalMagic, 4);
    write_u32(journal_, kFormatVersion);
    journal_.flush();
  }
}

void RegistryStore::append(const RegistryOp& op) {
  open_journal_for_append();
  const auto bytes = encode_record(op.record);
  std::vector<std::byte> covered;
  covered.reserve(1 + bytes.size());
  covered.push_back(static_cast<std::byte>(op.kind));
  covered.insert(covered.end(), bytes.begin(), bytes.end());
  const std::uint32_t crc = crc32(covered.data(), covered.size());

  const auto op_byte = static_cast<std::uint8_t>(op.kind);
  write_raw(journal_, &op_byte, 1);
  write_u32(journal_, static_cast<std::uint32_t>(bytes.size()));
  write_raw(journal_, bytes.data(), bytes.size());
  write_u32(journal_, crc);
  journal_.flush();  // the op is durable before it is acknowledged
  if (!journal_) {
    throw std::runtime_error("RegistryStore: journal append failed");
  }
  ++journal_ops_;
  StoreMetrics::get().journal_appends->inc();
}

void RegistryStore::compact(const TaskRegistry& registry) {
  const std::string tmp = snapshot_path() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("RegistryStore: cannot write " + tmp);
    }
    write_raw(out, kSnapshotMagic, 4);
    write_u32(out, kFormatVersion);
    write_u64(out, registry.version());
    const auto records = registry.list();
    write_u32(out, static_cast<std::uint32_t>(records.size()));
    for (const auto& record : records) {
      const auto bytes = encode_record(record);
      write_u32(out, static_cast<std::uint32_t>(bytes.size()));
      write_raw(out, bytes.data(), bytes.size());
      write_u32(out, crc32(bytes.data(), bytes.size()));
    }
    out.flush();
    if (!out) {
      throw std::runtime_error("RegistryStore: snapshot write failed");
    }
  }
  if (std::rename(tmp.c_str(), snapshot_path().c_str()) != 0) {
    throw std::runtime_error("RegistryStore: cannot replace snapshot");
  }

  // Truncate the journal: everything it held is folded into the snapshot.
  journal_.close();
  {
    std::ofstream fresh(journal_path(), std::ios::binary | std::ios::trunc);
    write_raw(fresh, kJournalMagic, 4);
    write_u32(fresh, kFormatVersion);
  }
  journal_ops_ = 0;
  open_journal_for_append();
  StoreMetrics::get().compactions->inc();
}

void RegistryStore::maybe_compact(const TaskRegistry& registry) {
  if (journal_ops_ > kCompactThreshold) compact(registry);
}

}  // namespace volley::control
