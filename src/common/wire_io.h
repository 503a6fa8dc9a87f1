// Field I/O for binary layouts: each layout is written once, as
//
//   void fields(auto& io, wire::Is<Frame> auto& m) { io(m.a, m.b, m.c); }
//
// listing the members in wire order, and the same function drives both
// directions: a ByteWriter appends the fields, a ByteReader parses them
// back. `fields` is found by argument-dependent lookup, so it lives in the
// namespace of the type it describes.
//
// Encoding rules:
//   - integers and doubles: fixed-width little-endian (host order, which
//     the static_assert below pins);
//   - bool: one byte, 0 or 1; any other byte fails the read, so every
//     accepted input re-encodes to the same bytes;
//   - enums: one byte; the read fails above wire_max(E{}), a constexpr
//     function declared next to the enum, and below wire_min(E{}) where
//     the enum declares one (otherwise values start at 0);
//   - strings: u32 byte length, then the bytes;
//   - vectors: u32 count, then the elements; the read fails on a count
//     above kMaxCount, so a corrupt count cannot drive a long parse loop;
//   - pairs: first, then second;
//   - empty structs: nothing; other structs: their own `fields`.
//
// Reading is total: truncated or out-of-range input fails the read and
// turns every later read into a no-op; nothing throws, because the bytes come
// from the network or from a file that survived a crash.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace volley::wire {

static_assert(std::endian::native == std::endian::little,
              "the wire layouts copy host-order integers");

/// Read-side cap on every vector count.
inline constexpr std::uint32_t kMaxCount = 4096;

/// `Is<Frame> auto& m` binds a Frame or a const Frame, so one `fields`
/// overload serves the reader and the writer.
template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

template <class T> constexpr bool is_vector = false;
template <class T> constexpr bool is_vector<std::vector<T>> = true;
template <class T> constexpr bool is_pair = false;
template <class A, class B> constexpr bool is_pair<std::pair<A, B>> = true;

/// Appends fields to a caller-owned buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::byte>& out) : out_(out) {}

  template <class... Ts>
  void operator()(const Ts&... values) {
    (put(values), ...);
  }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
      put(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_arithmetic_v<T>) {
      raw(&v, sizeof v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      put(static_cast<std::uint32_t>(v.size()));
      raw(v.data(), v.size());
    } else if constexpr (is_vector<T>) {
      put(static_cast<std::uint32_t>(v.size()));
      for (const auto& e : v) put(e);
    } else if constexpr (is_pair<T>) {
      put(v.first);
      put(v.second);
    } else if constexpr (!std::is_empty_v<T>) {
      fields(*this, v);
    }
  }

  void raw(const void* p, std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    std::memcpy(out_.data() + at, p, n);
  }

  std::vector<std::byte>& out_;
};

/// Parses fields from `in`, starting at byte `pos`.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> in, std::size_t pos = 0)
      : in_(in), pos_(pos) {}

  /// Reads each value in order; false once any read so far has failed.
  template <class... Ts>
  bool operator()(Ts&... values) {
    if (ok_) ok_ = (get(values) && ...);
    return ok_;
  }

  /// Every read succeeded and consumed the input exactly.
  bool done() const { return ok_ && pos_ == in_.size(); }
  std::size_t pos() const { return pos_; }

 private:
  template <class T>
  bool get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = 0;
      if (!get(b) || b > 1) return false;
      v = b == 1;
    } else if constexpr (std::is_enum_v<T>) {
      std::uint8_t b = 0;
      if (!get(b) || b > static_cast<std::uint8_t>(wire_max(T{})))
        return false;
      if constexpr (requires { wire_min(T{}); })
        if (b < static_cast<std::uint8_t>(wire_min(T{}))) return false;
      v = static_cast<T>(b);
    } else if constexpr (std::is_arithmetic_v<T>) {
      return raw(&v, sizeof v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::uint32_t n = 0;
      if (!get(n) || in_.size() - pos_ < n) return false;
      v.assign(reinterpret_cast<const char*>(in_.data() + pos_), n);
      pos_ += n;
    } else if constexpr (is_vector<T>) {
      std::uint32_t n = 0;
      if (!get(n) || n > kMaxCount) return false;
      v.clear();
      v.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i)
        if (!get(v.emplace_back())) return false;
    } else if constexpr (is_pair<T>) {
      return get(v.first) && get(v.second);
    } else if constexpr (!std::is_empty_v<T>) {
      fields(*this, v);
      return ok_;
    }
    return true;
  }

  bool raw(void* p, std::size_t n) {
    if (in_.size() - pos_ < n) return false;
    std::memcpy(p, in_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::span<const std::byte> in_;
  std::size_t pos_;
  bool ok_{true};
};

}  // namespace volley::wire
