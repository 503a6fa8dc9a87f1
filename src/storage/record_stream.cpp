#include "storage/record_stream.h"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace volley {

namespace {

constexpr std::size_t kHeaderBytes = 8;  // magic + u32 format
constexpr std::size_t kCrcBytes = 4;

const std::array<std::uint32_t, 256>& crc_table() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t length) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < length; ++i) {
    c = crc_table()[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void append_header(std::vector<std::byte>& out, const StreamFormat& format) {
  wire::ByteWriter writer{out};
  for (const char c : format.magic) writer(c);
  writer(format.format);
}

void seal_record(std::vector<std::byte>& out, std::size_t body_start) {
  const std::uint32_t crc =
      crc32(out.data() + body_start, out.size() - body_start);
  wire::ByteWriter{out}(crc);
}

void write_out(std::ostream& out, std::vector<std::byte>& bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  bytes.clear();
}

std::optional<std::vector<std::byte>> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = in.tellg();
  if (!in || size < 0) return std::nullopt;
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

RecordReader::RecordReader(std::span<const std::byte> bytes,
                           const StreamFormat& format)
    : bytes_(bytes) {
  if (bytes_.size() < kHeaderBytes) {
    offset_ = bytes_.size();
    return;
  }
  if (std::memcmp(bytes_.data(), format.magic.data(), 4) != 0) {
    throw std::runtime_error(std::string(format.name) + ": bad magic");
  }
  std::uint32_t found = 0;
  wire::ByteReader{bytes_, 4}(found);
  if (found != format.format) {
    throw std::runtime_error(std::string(format.name) +
                             ": unsupported format");
  }
  offset_ = kHeaderBytes;
}

bool RecordReader::accept(bool decoded, std::size_t body_end) {
  std::uint32_t stored = 0;
  if (decoded && wire::ByteReader{bytes_, body_end}(stored) &&
      stored == crc32(bytes_.data() + offset_, body_end - offset_)) {
    offset_ = body_end + kCrcBytes;
    return true;
  }
  clean_ = false;
  bad_offset_ = offset_;
  return false;
}

}  // namespace volley
