// Event-loop reactor + calendar-ring timer wheel for the Volley net runtime.
//
// One Reactor instance is one event loop: file descriptors register a
// handler once (persistent registration — no per-tick fd-vector rebuild)
// and are dispatched on readiness;
// millisecond timers live in a calendar bucket ring (the due-index idiom
// from core/coordinator.cpp, one ring level plus lap carry-over for
// far-out deadlines). A quiet loop therefore sleeps until the next due
// timer or the next byte of I/O — zero wakeups in between — instead of
// polling on a fixed tick.
//
// Backends (DESIGN.md §14): the readiness engine is pluggable behind this
// interface.
//  * kEpoll — level-triggered epoll, the identity baseline. One epoll_ctl
//    syscall per interest change, one epoll_wait per turn.
//  * kUring — io_uring (raw syscalls, no liburing): every interest change
//    (add/remove/want-write flips) becomes a batched POLL_ADD / POLL_REMOVE
//    submission and the whole batch rides the single io_uring_enter that
//    also waits for completions — a loop turn costs one syscall no matter
//    how many fds were (re)armed. Poll adds are one-shot and re-armed after
//    dispatch; a fresh arm re-checks current readiness (vfs_poll), so the
//    semantics stay exactly level-triggered epoll's. Selected by
//    `VOLLEY_URING` (set and not "0") when the kernel supports it; the
//    fallback to epoll is silent and visible via backend().
//
// Threading: everything except wakeup() is confined to the loop thread
// (the thread calling run_once). wakeup() is safe from any thread: it
// writes an eventfd registered with the readiness engine, so another
// thread can nudge a sleeping loop (request_stop does this).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

namespace volley::net {

/// Readiness engine behind the Reactor interface.
enum class ReactorBackend { kEpoll, kUring };

/// True when VOLLEY_URING is set (and not "0"): prefer the io_uring
/// backend where the build and the kernel support it.
bool uring_from_env();

/// Compile-time (<linux/io_uring.h> present) + runtime (io_uring_setup
/// probe) support check; cached after the first call.
bool uring_supported();

/// Per-node tri-state: negative = follow VOLLEY_URING, 0 = epoll,
/// positive = io_uring (benches force both backends in one process
/// regardless of the environment).
ReactorBackend resolve_backend(int override_flag);

const char* backend_name(ReactorBackend backend);

class Reactor {
 public:
  /// Raw epoll-style event mask; use readable()/writable()/hangup() to
  /// decode (identical bit values on both backends).
  using IoHandler = std::function<void(std::uint32_t events)>;
  using TimerCallback = std::function<void()>;
  using TimerId = std::uint64_t;

  static bool readable(std::uint32_t events);
  static bool writable(std::uint32_t events);
  /// Peer hangup or socket error — treat like readability (the next read
  /// returns 0/err) so handlers observe EOF through their normal path.
  static bool hangup(std::uint32_t events);

  /// Backend from the environment (VOLLEY_URING), epoll otherwise.
  Reactor();
  /// Forced backend; silently falls back to epoll when io_uring is
  /// unavailable (check backend() for what actually runs).
  explicit Reactor(ReactorBackend requested);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  ReactorBackend backend() const { return backend_; }

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

  // --- timers (calendar ring, 1 ms resolution) ----------------------------

  /// Fires `cb` once, ~delay_ms from now (never early; late only by loop
  /// dispatch time). Returns an id for cancel_timer.
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

  /// run_once with a sub-millisecond wait bound (epoll_pwait2 / io_uring
  /// EXT_ARG timespec where the kernel offers it, nonblocking-poll +
  /// nanosleep otherwise) — the monitor's compressed tick cadence is 100s
  /// of microseconds.
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
  struct WheelEntry {
    TimerId id{0};
    std::int64_t due_ms{0};
  };

  /// Per-fd registration: `mask` is the epoll-style interest set. `gen`
  /// and `armed` are io_uring bookkeeping — gen stamps every POLL_ADD's
  /// user_data so completions for a superseded registration (remove/re-add,
  /// want-write flips) are recognizably stale, and `armed` tracks whether a
  /// one-shot poll is currently in flight.
  struct FdEntry {
    std::shared_ptr<IoHandler> handler;
    std::uint32_t mask{0};
    std::uint32_t gen{0};
    bool armed{false};
  };

  static constexpr std::size_t kWheelSlots = 512;  // power of two
  static constexpr std::int64_t kWheelResMs = 1;
  static constexpr std::int64_t kWheelSpanMs =
      static_cast<std::int64_t>(kWheelSlots) * kWheelResMs;

  std::size_t slot_of(std::int64_t ms) const {
    return static_cast<std::size_t>(ms / kWheelResMs) & (kWheelSlots - 1);
  }

  /// Fires every timer due by `now` and advances the wheel cursor.
  int advance_wheel(std::int64_t now);
  int dispatch_events(int n);
  int wait_and_dispatch(std::int64_t wait_ns);
  int epoll_wait_collect(std::int64_t wait_ns);
  void refresh_loop_stats();

  // io_uring backend (reactor.cpp; nullptr on the epoll backend).
  struct Uring;
  void uring_arm(int fd, FdEntry& entry);
  void uring_cancel(int fd, std::uint32_t gen);
  int uring_wait_collect(std::int64_t wait_ns);

  ReactorBackend backend_{ReactorBackend::kEpoll};
  int epoll_fd_{-1};
  int wake_fd_{-1};
  std::unordered_map<int, FdEntry> handlers_;
  std::unique_ptr<Uring> uring_;

  /// Readiness batch collected by the backend, dispatched backend-agnostically.
  struct ReadyEvent {
    int fd{0};
    std::uint32_t events{0};
  };
  std::vector<ReadyEvent> ready_;

  std::unordered_map<TimerId, TimerCallback> timers_;
  std::vector<std::vector<WheelEntry>> wheel_{kWheelSlots};
  std::int64_t wheel_cursor_ms_{0};
  TimerId next_timer_id_{1};
  std::vector<WheelEntry> due_scratch_;

  Stats stats_;

  struct LoopStatsGauges;
  std::unique_ptr<LoopStatsGauges> loop_stats_;
};

}  // namespace volley::net
