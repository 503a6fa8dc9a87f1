#include "storage/sample_log.h"

#include <stdexcept>

#include "storage/record_stream.h"

namespace volley {

namespace {

constexpr StreamFormat kFormat{{'V', 'L', 'O', 'G'}, 1, "sample log"};

}  // namespace

SampleLogWriter::SampleLogWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) throw std::runtime_error("SampleLogWriter: cannot open " + path);
  append_header(buffer_, kFormat);
  write_out(out_, buffer_);
  if (!out_) throw std::runtime_error("SampleLogWriter: header write failed");
}

void SampleLogWriter::append(const SampleRecord& record) {
  append_record(buffer_, record);
  write_out(out_, buffer_);
  if (!out_) throw std::runtime_error("SampleLogWriter: append failed");
}

void SampleLogWriter::flush() {
  out_.flush();
  if (!out_) throw std::runtime_error("SampleLogWriter: flush failed");
}

SampleLogReadResult read_sample_log(const std::string& path) {
  const auto bytes = read_file(path);
  if (!bytes) throw std::runtime_error("read_sample_log: cannot open " + path);
  RecordReader in(*bytes, kFormat);
  SampleLogReadResult result;
  for (SampleRecord record; in.next(record);) result.records.push_back(record);
  result.clean = in.clean();
  result.bad_offset = in.bad_offset();
  return result;
}

}  // namespace volley
