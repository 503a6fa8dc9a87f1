// Process-wide syscall estimate for the net runtime.
//
// Every wrapper that issues a kernel I/O call (recv/send/writev/accept,
// epoll_wait/epoll_ctl) bumps one relaxed atomic. The count is an
// *estimate* of the wire runtime's syscall rate — raw ::send/::recv issued
// outside the wrappers (e.g. bench worker threads) are invisible on
// purpose, so bench_net_scale can diff the counter across a load window and
// report coordinator-side syscalls per frame.
#pragma once

#include <atomic>
#include <cstdint>

namespace volley::net {

inline std::atomic<std::int64_t>& io_syscall_counter() {
  static std::atomic<std::int64_t> count{0};
  return count;
}

/// One relaxed add per kernel entry; safe from any thread.
inline void count_io_syscalls(std::int64_t n = 1) {
  io_syscall_counter().fetch_add(n, std::memory_order_relaxed);
}

/// Cumulative estimate since process start (never reset).
inline std::int64_t io_syscalls_estimate() {
  return io_syscall_counter().load(std::memory_order_relaxed);
}

}  // namespace volley::net
