// Fixed-capacity circular buffer.
//
// Used by the correlation detector (recent aligned state histories) and by
// the distributed coordination layer (recent r_i / e_i observations within
// an updating period), and by the trace sink (obs/trace_events.h), which
// pushes on every sampling operation of a thread that bound it. Overwrites
// the oldest element when full. Indices wrap by compare-and-subtract, not
// `%`: every index is below twice the capacity, so one subtraction
// replaces a 64-bit divide.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace volley {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : buf_(capacity), capacity_(capacity) {
    if (capacity == 0)
      throw std::invalid_argument("RingBuffer: capacity must be > 0");
  }

  void push(T value) {
    buf_[wrap(head_ + size_)] = std::move(value);
    if (size_ == capacity_) {
      head_ = wrap(head_ + 1);
    } else {
      ++size_;
    }
  }

  /// Element i, 0 = oldest, size()-1 = newest (i < size()).
  const T& operator[](std::size_t i) const { return buf_[wrap(head_ + i)]; }

  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Copies contents oldest-first into a vector (for analysis code).
  std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
    return out;
  }

 private:
  /// `i` mod capacity for i < 2 * capacity (head_ < capacity and every
  /// offset added to it is at most capacity).
  std::size_t wrap(std::size_t i) const {
    return i >= capacity_ ? i - capacity_ : i;
  }

  std::vector<T> buf_;
  std::size_t capacity_;
  std::size_t head_{0};
  std::size_t size_{0};
};

}  // namespace volley
