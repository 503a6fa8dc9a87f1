#include "net/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <string>
#include <system_error>

#include "net/io_counters.h"
#include "obs/metrics.h"

namespace volley::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

struct ReactorMetrics {
  obs::CounterCell* wakeups{nullptr};
  obs::CounterCell* io_events{nullptr};
  obs::CounterCell* timers_fired{nullptr};
  obs::HistogramCell* dispatch_ms{nullptr};
};

const ReactorMetrics& reactor_metrics() {
  static auto make = [](obs::MetricsRegistry& m) {
    ReactorMetrics h;
    h.wakeups = &m.counter("volley_reactor_wakeups_total",
                           "Reactor loop turns (wait returns)").cell();
    h.io_events = &m.counter("volley_reactor_io_events_total",
                             "File-descriptor events dispatched").cell();
    h.timers_fired = &m.counter("volley_reactor_timers_fired_total",
                                "Timer callbacks fired").cell();
    h.dispatch_ms = &m.histogram(
        "volley_reactor_dispatch_ms", 0.0, 50.0, 50,
        "Per-turn dispatch latency (I/O handlers + due timers), ms").cell();
    return h;
  };
  return obs::scoped_handles<ReactorMetrics>(make);
}

}  // namespace

bool Reactor::readable(std::uint32_t events) {
  return (events & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0;
}

bool Reactor::writable(std::uint32_t events) {
  return (events & EPOLLOUT) != 0;
}

bool Reactor::hangup(std::uint32_t events) {
  return (events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0;
}

std::int64_t Reactor::now_ms() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

Reactor::Reactor() {
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw_errno("eventfd");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    ::close(wake_fd_);
    throw_errno("epoll_create1");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    ::close(wake_fd_);
    ::close(epoll_fd_);
    throw_errno("epoll_ctl(wakeup)");
  }
}

Reactor::~Reactor() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Reactor::set_interest(int op, int fd, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | (want_write ? EPOLLOUT : 0U);
  ev.data.fd = fd;
  count_io_syscalls();
  ++stats_.syscalls;
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0) throw_errno("epoll_ctl");
}

void Reactor::add_fd(int fd, IoHandler handler, bool want_write) {
  set_interest(watching(fd) ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd, want_write);
  handlers_[fd] = std::make_shared<IoHandler>(std::move(handler));
}

void Reactor::set_want_write(int fd, bool want_write) {
  if (watching(fd)) set_interest(EPOLL_CTL_MOD, fd, want_write);
}

void Reactor::update_handler(int fd, IoHandler handler) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  // Fresh shared_ptr, not in-place mutation: a dispatch in progress keeps
  // running the handler object it pinned, and only later events see the new
  // one.
  it->second = std::make_shared<IoHandler>(std::move(handler));
}

void Reactor::remove_fd(int fd) {
  if (handlers_.erase(fd) == 0) return;
  // The fd may already be closed (kernel auto-deregisters); EBADF/ENOENT
  // are expected then.
  count_io_syscalls();
  ++stats_.syscalls;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

Reactor::TimerId Reactor::add_timer(std::int64_t delay_ms, TimerCallback cb) {
  if (delay_ms < 0) delay_ms = 0;
  const TimerId id = next_timer_id_++;
  // Ceil the arming instant to the next whole millisecond: now_ms()
  // truncates, and a floor-based deadline would let the timer fire up to
  // 1 ms before `delay_ms` has really elapsed — the API promises never
  // early, late only by dispatch time.
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  const std::int64_t now_ceil =
      static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000 +
      (ts.tv_nsec % 1000000 != 0 ? 1 : 0);
  const std::int64_t due = now_ceil + delay_ms;
  timers_.emplace(std::pair{due, id}, std::move(cb));
  due_of_.emplace(id, due);
  return id;
}

void Reactor::cancel_timer(TimerId id) {
  const auto it = due_of_.find(id);
  if (it == due_of_.end()) return;
  timers_.erase(std::pair{it->second, id});
  due_of_.erase(it);
}

std::optional<std::int64_t> Reactor::next_deadline_ms() const {
  if (timers_.empty()) return std::nullopt;
  return timers_.begin()->first.first;
}

int Reactor::fire_due(std::int64_t now) {
  // A timer armed from a callback has a deadline >= now and an id >= limit,
  // so it sorts after every older timer due by now and waits a turn.
  const TimerId limit = next_timer_id_;
  int fired = 0;
  while (!timers_.empty()) {
    const auto it = timers_.begin();
    const auto [due, id] = it->first;
    if (due > now || id >= limit) break;
    TimerCallback cb = std::move(it->second);
    timers_.erase(it);
    due_of_.erase(id);
    cb();
    ++fired;
  }
  return fired;
}

int Reactor::wait_and_dispatch(std::int64_t wait_ns) {
  constexpr int kMaxEvents = 128;
  epoll_event evs[kMaxEvents];
  int n = 0;
  count_io_syscalls();
  ++stats_.syscalls;
  if (wait_ns < 0) {
    n = ::epoll_wait(epoll_fd_, evs, kMaxEvents, -1);
  } else {
#ifdef SYS_epoll_pwait2
    timespec ts{};
    ts.tv_sec = wait_ns / 1000000000;
    ts.tv_nsec = wait_ns % 1000000000;
    n = static_cast<int>(::syscall(SYS_epoll_pwait2, epoll_fd_, evs,
                                   kMaxEvents, &ts, nullptr, 0));
    if (n < 0 && errno == ENOSYS) {
      n = ::epoll_wait(epoll_fd_, evs, kMaxEvents,
                       static_cast<int>((wait_ns + 999999) / 1000000));
    }
#else
    n = ::epoll_wait(epoll_fd_, evs, kMaxEvents,
                     static_cast<int>((wait_ns + 999999) / 1000000));
#endif
  }
  if (n < 0) {
    if (errno == EINTR) return 0;  // interrupted: skip this turn entirely
    throw_errno("epoll_wait");
  }
  const auto& met = reactor_metrics();
  ++stats_.wakeups;
  met.wakeups->inc();
  const std::int64_t t0 = now_ms();
  int handled = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = evs[i].data.fd;
    if (fd == wake_fd_) {
      // One read returns and resets the whole eventfd counter.
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &count, sizeof count);
      continue;
    }
    // Lookup at dispatch time: an earlier handler in this batch may have
    // removed this fd (session teardown) — skip its stale event.
    auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;
    auto handler = it->second;  // pin across the call
    (*handler)(evs[i].events);
    ++handled;
  }
  const int fired = fire_due(now_ms());
  stats_.io_events += handled;
  stats_.timers_fired += fired;
  if (handled != 0) met.io_events->inc(handled);
  if (fired != 0) met.timers_fired->inc(fired);
  if (handled + fired != 0) {
    met.dispatch_ms->observe(static_cast<double>(now_ms() - t0));
  }
  refresh_loop_stats();
  return handled + fired;
}

int Reactor::run_once(int max_wait_ms) {
  std::int64_t wait_ns = -1;
  if (max_wait_ms >= 0) wait_ns = static_cast<std::int64_t>(max_wait_ms) * 1000000;
  if (auto due = next_deadline_ms()) {
    const std::int64_t until_ns = std::max<std::int64_t>(*due - now_ms(), 0) * 1000000;
    wait_ns = (wait_ns < 0) ? until_ns : std::min(wait_ns, until_ns);
  }
  return wait_and_dispatch(wait_ns);
}

int Reactor::run_once_for(std::chrono::nanoseconds max_wait) {
  std::int64_t wait_ns = std::max<std::int64_t>(max_wait.count(), 0);
  if (auto due = next_deadline_ms()) {
    const std::int64_t until_ns = std::max<std::int64_t>(*due - now_ms(), 0) * 1000000;
    wait_ns = std::min(wait_ns, until_ns);
  }
  return wait_and_dispatch(wait_ns);
}

void Reactor::wakeup() {
  const std::uint64_t one = 1;
  // Best-effort: EAGAIN means a wakeup is already pending, which is enough.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

// ---------------------------------------------------------------------------
// Per-loop stats exposition (volley_stats reads the gauges).

struct Reactor::LoopStatsGauges {
  obs::Gauge* wakeups{nullptr};
  obs::Gauge* io_events{nullptr};
  obs::Gauge* timers_fired{nullptr};
  obs::Gauge* syscalls{nullptr};
};

void Reactor::enable_loop_stats(std::size_t loop_index) {
  const std::string prefix =
      "volley_reactor_loop" + std::to_string(loop_index) + "_";
  auto gauges = std::make_unique<LoopStatsGauges>();
  auto& m = obs::metrics();
  gauges->wakeups =
      &m.gauge(prefix + "wakeups", "Loop turns (wait returns) on this loop");
  gauges->io_events =
      &m.gauge(prefix + "io_events", "Fd events dispatched on this loop");
  gauges->timers_fired =
      &m.gauge(prefix + "timers_fired", "Timer callbacks fired on this loop");
  gauges->syscalls = &m.gauge(
      prefix + "syscalls", "Wait + interest-change syscalls on this loop");
  loop_stats_ = std::move(gauges);
  refresh_loop_stats();
}

void Reactor::refresh_loop_stats() {
  if (loop_stats_ == nullptr) return;
  loop_stats_->wakeups->set(static_cast<double>(stats_.wakeups));
  loop_stats_->io_events->set(static_cast<double>(stats_.io_events));
  loop_stats_->timers_fired->set(static_cast<double>(stats_.timers_fired));
  loop_stats_->syscalls->set(static_cast<double>(stats_.syscalls));
}

}  // namespace volley::net
