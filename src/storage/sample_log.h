// Append-only persistence for sampling observations.
//
// The paper counts "sampling data persistence" among the costs of every
// sampling operation (Section III-B) and motivates dense data for offline
// event analysis (Section I: a 15-minute interval "is very likely to
// provide no data at all for the analysis of an event"). This module is
// that persistence substrate: monitors append each observation to a local
// log; analysis tooling replays it later.
//
// Format: a record stream (storage/record_stream.h) with magic "VLOG" and
// format 1, whose record bodies are SampleRecord's fields:
//   u32 monitor | i64 tick | f64 value | u8 reason, then u32 crc32 of
//   those 21 bytes
//
// Durability/robustness: the reader stops at the first corrupt or
// truncated record and reports where, so a crash mid-append loses at most
// the last record.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/wire_io.h"
#include "core/types.h"

namespace volley {

struct SampleRecord {
  MonitorId monitor{0};
  Tick tick{0};
  double value{0.0};
  SampleReason reason{SampleReason::kScheduled};

  bool operator==(const SampleRecord&) const = default;
};

constexpr SampleReason wire_max(SampleReason) {
  return SampleReason::kGlobalPoll;
}

void fields(auto& io, wire::Is<SampleRecord> auto& r) {
  io(r.monitor, r.tick, r.value, r.reason);
}

class SampleLogWriter {
 public:
  /// Creates/truncates the file and writes the header. Throws
  /// std::runtime_error when the file cannot be opened.
  explicit SampleLogWriter(const std::string& path);

  /// Appends one record (buffered; call flush() for durability points).
  /// append and flush throw std::runtime_error when the stream reports a
  /// write error.
  void append(const SampleRecord& record);
  void flush();

 private:
  std::ofstream out_;
  std::vector<std::byte> buffer_;
};

struct SampleLogReadResult {
  std::vector<SampleRecord> records;
  bool clean{true};        // false when corruption/truncation was hit
  std::size_t bad_offset{0};  // byte offset of the first bad record, if any
};

/// Reads as many valid records as the file contains. Throws
/// std::runtime_error only when the file is missing or its header is not a
/// sample log's; a header cut short reads as an empty log, and data
/// corruption is reported, not thrown.
SampleLogReadResult read_sample_log(const std::string& path);

}  // namespace volley
