// Event-loop reactor + ordered timer set for the Volley net runtime.
//
// One Reactor instance is one event loop: file descriptors register a
// handler once (persistent registration — no per-tick fd-vector rebuild)
// and are dispatched on readiness; millisecond timers live in one set
// ordered by (deadline, id), so the sleep bound is its first key and a
// cancel erases its entry. A quiet loop therefore sleeps until the next
// due timer or the next byte of I/O — zero wakeups in between, however
// far out that deadline lies — instead of polling on a fixed tick.
//
// Readiness is level-triggered epoll: one epoll_ctl syscall per interest
// change, one epoll_wait (epoll_pwait2 for sub-millisecond bounds) per
// turn, and each turn dispatches straight from the kernel's event batch.
//
// Threading: everything except wakeup() is confined to the loop thread
// (the thread calling run_once). wakeup() is safe from any thread: it
// writes an eventfd registered with epoll, so another thread can nudge a
// sleeping loop (request_stop does this).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

namespace volley::net {

class Reactor {
 public:
  /// Raw epoll event mask; use readable()/writable()/hangup() to decode.
  using IoHandler = std::function<void(std::uint32_t events)>;
  using TimerCallback = std::function<void()>;
  using TimerId = std::uint64_t;

  static bool readable(std::uint32_t events);
  static bool writable(std::uint32_t events);
  /// Peer hangup or socket error — treat like readability (the next read
  /// returns 0/err) so handlers observe EOF through their normal path.
  static bool hangup(std::uint32_t events);

  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // --- fd registration ----------------------------------------------------

  /// Registers `fd` (level-triggered) for readability and, when
  /// `want_write`, writability. The handler stays registered until
  /// remove_fd; re-adding an fd replaces its handler and interest set.
  void add_fd(int fd, IoHandler handler, bool want_write = false);

  /// Arms/disarms writability interest for an already-registered fd (EAGAIN
  /// backpressure: arm when a flush blocks, disarm once drained).
  void set_want_write(int fd, bool want_write);

  /// Swaps the handler of a registered fd (pending-conn -> session rebind)
  /// without touching the kernel registration.
  void update_handler(int fd, IoHandler handler);

  /// Deregisters; safe when the fd was never added or is already closed.
  /// Pending events for the fd in the current dispatch batch are skipped.
  void remove_fd(int fd);

  bool watching(int fd) const { return handlers_.count(fd) != 0; }
  std::size_t watched_fds() const { return handlers_.size(); }

  // --- timers (ordered set, 1 ms resolution) ------------------------------

  /// Fires `cb` once, ~delay_ms from now (never early; late only by loop
  /// dispatch time). Due timers fire in (deadline, id) order; one armed by
  /// a callback fires on a later turn. Returns an id for cancel_timer.
  TimerId add_timer(std::int64_t delay_ms, TimerCallback cb);

  /// Cancels a pending timer; a no-op for unknown/already-fired ids.
  void cancel_timer(TimerId id);

  std::size_t pending_timers() const { return timers_.size(); }

  /// Absolute steady-clock ms deadline of the soonest pending timer (the
  /// sleep bound), or nullopt when no timer is pending.
  std::optional<std::int64_t> next_deadline_ms() const;

  // --- loop ---------------------------------------------------------------

  /// One loop turn: sleeps until I/O, the next due timer, or `max_wait_ms`
  /// (-1: no bound beyond timers), then dispatches every ready fd and
  /// every due timer. Returns the number of I/O events + timers fired
  /// (0 on a pure timeout or wakeup()).
  int run_once(int max_wait_ms = -1);

  /// run_once with a sub-millisecond wait bound (epoll_pwait2 where the
  /// kernel offers it, epoll_wait rounded up to whole milliseconds
  /// otherwise) — the monitor's compressed tick cadence is 100s of
  /// microseconds.
  int run_once_for(std::chrono::nanoseconds max_wait);

  /// Nudges a sleeping loop from any thread (eventfd write).
  void wakeup();

  /// Steady-clock milliseconds, the timebase of add_timer deadlines.
  static std::int64_t now_ms();

  struct Stats {
    std::int64_t wakeups{0};       // wait returns (loop turns)
    std::int64_t io_events{0};     // fd events dispatched
    std::int64_t timers_fired{0};  // timer callbacks run
    std::int64_t syscalls{0};      // waits + interest-change kernel entries
  };
  const Stats& stats() const { return stats_; }

  /// Registers this loop's Stats as labeled gauges in the current obs
  /// metrics registry (volley_reactor_loop<i>_{wakeups,io_events,
  /// timers_fired,syscalls}) and refreshes them once per turn. A node's
  /// one loop registers as loop 0. Call from the thread whose registry
  /// should own the gauges, before the loop runs.
  void enable_loop_stats(std::size_t loop_index);

 private:
  /// Fires every timer due by `now` that was armed before this call.
  int fire_due(std::int64_t now);
  int wait_and_dispatch(std::int64_t wait_ns);
  /// epoll_ctl ADD/MOD with the read (+ write) interest set; counted.
  void set_interest(int op, int fd, bool want_write);
  void refresh_loop_stats();

  int epoll_fd_{-1};
  int wake_fd_{-1};
  /// Registered handlers; each is a shared_ptr so a dispatch in progress
  /// keeps the object it pinned across update_handler / remove_fd.
  std::unordered_map<int, std::shared_ptr<IoHandler>> handlers_;

  /// Pending timers keyed by (deadline ms, id); due_of_ maps an id back to
  /// its deadline so cancel_timer can erase the entry.
  std::map<std::pair<std::int64_t, TimerId>, TimerCallback> timers_;
  std::unordered_map<TimerId, std::int64_t> due_of_;
  TimerId next_timer_id_{1};

  Stats stats_;

  struct LoopStatsGauges;
  std::unique_ptr<LoopStatsGauges> loop_stats_;
};

}  // namespace volley::net
