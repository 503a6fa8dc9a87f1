// CRC-framed record streams: the one on-disk layout of the sample log
// (storage/sample_log.h), the registry snapshot and the registry journal
// (control/registry_store.h).
//
//   stream:  magic (4 bytes) | u32 format | record*
//   record:  body | u32 crc32 (over exactly the body's bytes)
//
// A body is any type with a `fields` list (common/wire_io.h), so its bytes
// follow the wire rules. A record carries no length of its own: the body's
// field list says where it ends.
//
// Appending a record is one buffered write, so a crash mid-append leaves a
// torn last record. The reader salvages: it stops at the first record that
// is cut short, fails to decode or fails its CRC, and reports whether the
// stream ended cleanly and where the bad record starts.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/wire_io.h"

namespace volley {

/// CRC-32 (IEEE 802.3, reflected).
std::uint32_t crc32(const void* data, std::size_t length);

/// What a stream's header holds, and the name its errors use.
struct StreamFormat {
  std::array<char, 4> magic;
  std::uint32_t format;
  const char* name;
};

/// Appends the `magic | u32 format` header to `out`.
void append_header(std::vector<std::byte>& out, const StreamFormat& format);

/// Appends the CRC-32 of `out[body_start..]` to `out`.
void seal_record(std::vector<std::byte>& out, std::size_t body_start);

/// Appends one record: the body's fields, then their CRC-32.
template <class T>
void append_record(std::vector<std::byte>& out, const T& body) {
  const std::size_t start = out.size();
  wire::ByteWriter{out}(body);
  seal_record(out, start);
}

/// Writes `bytes` to `out` and clears them.
void write_out(std::ostream& out, std::vector<std::byte>& bytes);

/// The whole file, or nothing when it cannot be opened.
std::optional<std::vector<std::byte>> read_file(const std::string& path);

/// Reads the records of one stream held in memory.
class RecordReader {
 public:
  /// Throws std::runtime_error on a foreign magic or format. A header cut
  /// short (a crash while it was written) reads as an empty stream.
  RecordReader(std::span<const std::byte> bytes, const StreamFormat& format);

  /// Decodes the next record into `body` and checks its CRC. False at the
  /// end of the stream and at the first torn or bad record; it stays false
  /// after that.
  template <class T>
  bool next(T& body) {
    if (!clean_ || at_end()) return false;
    wire::ByteReader in(bytes_, offset_);
    const bool decoded = in(body);  // before pos(): argument order is open
    return accept(decoded, in.pos());
  }

  /// No bad record was met.
  bool clean() const { return clean_; }
  /// The byte offset of the first bad record (0 while clean).
  std::size_t bad_offset() const { return bad_offset_; }
  /// Every byte was read as a record; none is left over.
  bool at_end() const { return offset_ == bytes_.size(); }

 private:
  /// Checks the CRC after a body that ends at `body_end`: steps past the
  /// record, or marks it bad.
  bool accept(bool decoded, std::size_t body_end);

  std::span<const std::byte> bytes_;
  std::size_t offset_{0};
  bool clean_{true};
  std::size_t bad_offset_{0};
};

}  // namespace volley
