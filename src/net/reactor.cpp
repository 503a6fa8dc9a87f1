#include "net/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>

#include "net/io_counters.h"
#include "obs/metrics.h"

// Compile-time probe: the io_uring backend needs the uapi header and the
// syscall numbers. When either is missing the backend is compiled out and
// uring_supported() is constant false — the epoll path is always present.
#if defined(__has_include)
#if __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#if defined(__NR_io_uring_setup) && defined(__NR_io_uring_enter)
#define VOLLEY_HAVE_URING 1
#endif
#endif
#endif

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
                                "Timer-wheel callbacks fired").cell();
    h.dispatch_ms = &m.histogram(
        "volley_reactor_dispatch_ms", 0.0, 50.0, 50,
        "Per-turn dispatch latency (I/O handlers + due timers), ms").cell();
    return h;
  };
  return obs::scoped_handles<ReactorMetrics>(make);
}

bool env_flag(const char* name) {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
  return v != nullptr && std::strcmp(v, "0") != 0;
}

}  // namespace

bool uring_from_env() { return env_flag("VOLLEY_URING"); }

const char* backend_name(ReactorBackend backend) {
  return backend == ReactorBackend::kUring ? "io_uring" : "epoll";
}

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

// ---------------------------------------------------------------------------
// io_uring backend: a minimal liburing-free ring. All SQEs (POLL_ADD /
// POLL_REMOVE) queue locally and ride the turn's single io_uring_enter;
// completions come back tagged with (gen << 32) | fd so a superseded
// registration can never dispatch into a newer handler.

#ifdef VOLLEY_HAVE_URING

namespace {

int sys_io_uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags, const void* arg, std::size_t argsz) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, arg, argsz));
}

// user_data layout. kIgnoreKey tags housekeeping SQEs (POLL_REMOVE) whose
// completions carry no event.
constexpr std::uint64_t kIgnoreKey = ~std::uint64_t{0};

std::uint64_t make_key(int fd, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         static_cast<std::uint32_t>(fd);
}
int key_fd(std::uint64_t key) { return static_cast<int>(key & 0xffffffffU); }
std::uint32_t key_gen(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}

}  // namespace

struct Reactor::Uring {
  int fd{-1};
  io_uring_params params{};
  std::uint8_t* sq_ptr{nullptr};
  std::size_t sq_len{0};
  std::uint8_t* cq_ptr{nullptr};  // == sq_ptr under IORING_FEAT_SINGLE_MMAP
  std::size_t cq_len{0};
  io_uring_sqe* sqes{nullptr};
  std::size_t sqes_len{0};

  unsigned* sq_head{nullptr};
  unsigned* sq_tail{nullptr};
  unsigned sq_mask{0};
  unsigned* sq_array{nullptr};
  unsigned* cq_head{nullptr};
  unsigned* cq_tail{nullptr};
  unsigned cq_mask{0};
  io_uring_cqe* cqes{nullptr};

  unsigned to_submit{0};  // SQEs queued locally, not yet submitted
  bool ext_arg{false};    // IORING_FEAT_EXT_ARG: timeout via enter arg

  ~Uring() {
    if (sqes != nullptr) ::munmap(sqes, sqes_len);
    if (cq_ptr != nullptr && cq_ptr != sq_ptr) ::munmap(cq_ptr, cq_len);
    if (sq_ptr != nullptr) ::munmap(sq_ptr, sq_len);
    if (fd >= 0) ::close(fd);
  }

  /// Submits everything queued without waiting (SQ-full relief valve).
  void flush_submissions() {
    while (to_submit > 0) {
      const int n = sys_io_uring_enter(fd, to_submit, 0, 0, nullptr, 0);
      count_io_syscalls();
      if (n >= 0) {
        to_submit -= static_cast<unsigned>(n);
        continue;
      }
      if (errno == EINTR) continue;
      throw_errno("io_uring_enter(submit)");
    }
  }

  /// Next free SQE, zeroed; flushes to the kernel when the ring is full.
  io_uring_sqe* get_sqe() {
    unsigned head = __atomic_load_n(sq_head, __ATOMIC_ACQUIRE);
    unsigned tail = *sq_tail;  // single-producer: plain read of own tail
    if (tail - head >= params.sq_entries) {
      flush_submissions();
      head = __atomic_load_n(sq_head, __ATOMIC_ACQUIRE);
      tail = *sq_tail;
    }
    const unsigned idx = tail & sq_mask;
    io_uring_sqe* sqe = &sqes[idx];
    std::memset(sqe, 0, sizeof(*sqe));
    sq_array[idx] = idx;
    __atomic_store_n(sq_tail, tail + 1, __ATOMIC_RELEASE);
    ++to_submit;
    return sqe;
  }

  void queue_poll_add(int fd_to_watch, std::uint32_t mask,
                      std::uint64_t key) {
    io_uring_sqe* sqe = get_sqe();
    sqe->opcode = IORING_OP_POLL_ADD;
    sqe->fd = fd_to_watch;
    // Native-endian 32-bit poll mask (poll bits == epoll bits for
    // IN/OUT/ERR/HUP/RDHUP, so the interest set passes through unchanged).
    sqe->poll32_events = mask;
    sqe->user_data = key;
  }

  void queue_poll_remove(std::uint64_t key_to_cancel) {
    io_uring_sqe* sqe = get_sqe();
    sqe->opcode = IORING_OP_POLL_REMOVE;
    sqe->addr = key_to_cancel;
    sqe->user_data = kIgnoreKey;
  }
};

bool uring_supported() {
  static const bool supported = [] {
    io_uring_params p{};
    const int fd = sys_io_uring_setup(4, &p);
    if (fd < 0) return false;
    ::close(fd);
    return true;
  }();
  return supported;
}

#else  // !VOLLEY_HAVE_URING

struct Reactor::Uring {};

bool uring_supported() { return false; }

#endif  // VOLLEY_HAVE_URING

ReactorBackend resolve_backend(int override_flag) {
  const bool want_uring =
      override_flag < 0 ? uring_from_env() : override_flag > 0;
  if (want_uring && uring_supported()) return ReactorBackend::kUring;
  return ReactorBackend::kEpoll;
}

// ---------------------------------------------------------------------------

Reactor::Reactor() : Reactor(resolve_backend(-1)) {}

Reactor::Reactor(ReactorBackend requested) {
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw_errno("eventfd");

#ifdef VOLLEY_HAVE_URING
  if (requested == ReactorBackend::kUring && uring_supported()) {
    auto ring = std::make_unique<Uring>();
    io_uring_params p{};
    // CQ sized well above SQ: every registered fd can hold one in-flight
    // poll, and a burst where they all complete between reaps must not
    // overflow (IORING_FEAT_NODROP buffers the excess anyway).
    p.flags = IORING_SETUP_CQSIZE;
    p.cq_entries = 4096;
    ring->fd = sys_io_uring_setup(256, &p);
    if (ring->fd >= 0) {
      ring->params = p;
      ring->ext_arg = (p.features & IORING_FEAT_EXT_ARG) != 0;
      const bool single_mmap = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
      ring->sq_len = p.sq_off.array + p.sq_entries * sizeof(unsigned);
      ring->cq_len = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
      if (single_mmap) {
        ring->sq_len = ring->cq_len = std::max(ring->sq_len, ring->cq_len);
      }
      ring->sq_ptr = static_cast<std::uint8_t*>(
          ::mmap(nullptr, ring->sq_len, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_POPULATE, ring->fd, IORING_OFF_SQ_RING));
      if (ring->sq_ptr == MAP_FAILED) ring->sq_ptr = nullptr;
      if (ring->sq_ptr != nullptr) {
        if (single_mmap) {
          ring->cq_ptr = ring->sq_ptr;
        } else {
          ring->cq_ptr = static_cast<std::uint8_t*>(
              ::mmap(nullptr, ring->cq_len, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, ring->fd, IORING_OFF_CQ_RING));
          if (ring->cq_ptr == MAP_FAILED) ring->cq_ptr = nullptr;
        }
      }
      if (ring->cq_ptr != nullptr) {
        ring->sqes_len = p.sq_entries * sizeof(io_uring_sqe);
        ring->sqes = static_cast<io_uring_sqe*>(
            ::mmap(nullptr, ring->sqes_len, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_POPULATE, ring->fd, IORING_OFF_SQES));
        if (ring->sqes == MAP_FAILED) ring->sqes = nullptr;
      }
      if (ring->sqes != nullptr) {
        auto* sq = ring->sq_ptr;
        ring->sq_head = reinterpret_cast<unsigned*>(sq + p.sq_off.head);
        ring->sq_tail = reinterpret_cast<unsigned*>(sq + p.sq_off.tail);
        ring->sq_mask =
            *reinterpret_cast<unsigned*>(sq + p.sq_off.ring_mask);
        ring->sq_array = reinterpret_cast<unsigned*>(sq + p.sq_off.array);
        auto* cq = ring->cq_ptr;
        ring->cq_head = reinterpret_cast<unsigned*>(cq + p.cq_off.head);
        ring->cq_tail = reinterpret_cast<unsigned*>(cq + p.cq_off.tail);
        ring->cq_mask =
            *reinterpret_cast<unsigned*>(cq + p.cq_off.ring_mask);
        ring->cqes = reinterpret_cast<io_uring_cqe*>(cq + p.cq_off.cqes);
        uring_ = std::move(ring);
        backend_ = ReactorBackend::kUring;
        // The wakeup eventfd is a permanent registration with gen 0.
        uring_->queue_poll_add(wake_fd_, EPOLLIN, make_key(wake_fd_, 0));
      }
    }
  }
#else
  (void)requested;
#endif

  if (uring_ == nullptr) {
    backend_ = ReactorBackend::kEpoll;
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
  wheel_cursor_ms_ = now_ms();
}

Reactor::~Reactor() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Reactor::uring_arm(int fd, FdEntry& entry) {
#ifdef VOLLEY_HAVE_URING
  uring_->queue_poll_add(fd, entry.mask, make_key(fd, entry.gen));
  entry.armed = true;
#else
  (void)fd;
  (void)entry;
#endif
}

void Reactor::uring_cancel(int fd, std::uint32_t gen) {
#ifdef VOLLEY_HAVE_URING
  uring_->queue_poll_remove(make_key(fd, gen));
#else
  (void)fd;
  (void)gen;
#endif
}

void Reactor::add_fd(int fd, IoHandler handler, bool want_write) {
  const std::uint32_t mask =
      EPOLLIN | EPOLLRDHUP | (want_write ? EPOLLOUT : 0U);
  auto it = handlers_.find(fd);
  if (backend_ == ReactorBackend::kUring) {
    if (it != handlers_.end()) {
      // Re-add: retire the in-flight poll of the old registration.
      if (it->second.armed) uring_cancel(fd, it->second.gen);
      it->second.handler = std::make_shared<IoHandler>(std::move(handler));
      it->second.mask = mask;
      ++it->second.gen;
      it->second.armed = false;
      uring_arm(fd, it->second);
    } else {
      FdEntry entry;
      entry.handler = std::make_shared<IoHandler>(std::move(handler));
      entry.mask = mask;
      auto& stored = handlers_.emplace(fd, std::move(entry)).first->second;
      uring_arm(fd, stored);
    }
    return;
  }
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = fd;
  const int op = it != handlers_.end() ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  count_io_syscalls();
  ++stats_.syscalls;
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0) throw_errno("epoll_ctl(add)");
  FdEntry& entry = handlers_[fd];
  entry.handler = std::make_shared<IoHandler>(std::move(handler));
  entry.mask = mask;
}

void Reactor::set_want_write(int fd, bool want_write) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  const std::uint32_t mask =
      EPOLLIN | EPOLLRDHUP | (want_write ? EPOLLOUT : 0U);
  if (backend_ == ReactorBackend::kUring) {
    if (it->second.mask == mask) return;
    if (it->second.armed) uring_cancel(fd, it->second.gen);
    it->second.mask = mask;
    ++it->second.gen;
    it->second.armed = false;
    uring_arm(fd, it->second);
    return;
  }
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = fd;
  count_io_syscalls();
  ++stats_.syscalls;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(mod)");
  }
  it->second.mask = mask;
}

void Reactor::update_handler(int fd, IoHandler handler) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  // Fresh shared_ptr, not in-place mutation: a dispatch in progress keeps
  // running the handler object it pinned, and only later events see the new
  // one.
  it->second.handler = std::make_shared<IoHandler>(std::move(handler));
}

void Reactor::remove_fd(int fd) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  if (backend_ == ReactorBackend::kUring) {
    // Cancel by user_data, which works whether or not the fd is already
    // closed; a completion racing the cancel is dropped by its stale gen.
    if (it->second.armed) uring_cancel(fd, it->second.gen);
    handlers_.erase(it);
    return;
  }
  handlers_.erase(it);
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
  timers_.emplace(id, std::move(cb));
  wheel_[slot_of(due)].push_back(WheelEntry{id, due});
  return id;
}

void Reactor::cancel_timer(TimerId id) {
  // Membership in timers_ is the liveness bit; the wheel entry becomes a
  // tombstone swept when its slot is next visited.
  timers_.erase(id);
}

std::optional<std::int64_t> Reactor::next_deadline_ms() const {
  if (timers_.empty()) return std::nullopt;
  const std::int64_t cursor = wheel_cursor_ms_;
  // Ring order == time order for deadlines within one wheel span of the
  // cursor, so the first slot holding a near entry yields the minimum.
  for (std::size_t k = 0; k < kWheelSlots; ++k) {
    const auto& slot = wheel_[(slot_of(cursor) + k) & (kWheelSlots - 1)];
    std::optional<std::int64_t> best;
    for (const auto& e : slot) {
      if (timers_.count(e.id) == 0) continue;        // cancelled tombstone
      if (e.due_ms >= cursor + kWheelSpanMs) continue;  // a later lap
      if (!best || e.due_ms < *best) best = e.due_ms;
    }
    if (best) return best;
  }
  // Every live timer is a lap or more out: sleep one span, then re-scan.
  return cursor + kWheelSpanMs;
}

int Reactor::advance_wheel(std::int64_t now) {
  if (timers_.empty()) {
    wheel_cursor_ms_ = now;
    return 0;
  }
  // Visit every slot the cursor passes over (capped at one full lap — past
  // that the ring repeats), collecting entries due by `now`. Entries for
  // future laps stay in their slot and are re-examined next pass.
  const std::int64_t elapsed = now - wheel_cursor_ms_;
  const std::int64_t steps =
      std::min<std::int64_t>(elapsed / kWheelResMs + 1, kWheelSlots);
  due_scratch_.clear();
  for (std::int64_t k = 0; k < steps; ++k) {
    auto& slot = wheel_[(slot_of(wheel_cursor_ms_) + static_cast<std::size_t>(k)) &
                        (kWheelSlots - 1)];
    for (std::size_t i = 0; i < slot.size();) {
      const WheelEntry e = slot[i];
      if (timers_.count(e.id) == 0 || e.due_ms <= now) {
        slot[i] = slot.back();
        slot.pop_back();
        if (timers_.count(e.id) != 0) due_scratch_.push_back(e);
      } else {
        ++i;
      }
    }
  }
  wheel_cursor_ms_ = now;
  // Fire in deadline order so interdependent timers observe a consistent
  // sequence (e.g. poll timeout before the liveness sweep armed later).
  std::sort(due_scratch_.begin(), due_scratch_.end(),
            [](const WheelEntry& a, const WheelEntry& b) {
              return a.due_ms < b.due_ms || (a.due_ms == b.due_ms && a.id < b.id);
            });
  int fired = 0;
  for (const auto& e : due_scratch_) {
    auto it = timers_.find(e.id);
    if (it == timers_.end()) continue;  // cancelled by an earlier callback
    TimerCallback cb = std::move(it->second);
    timers_.erase(it);
    cb();
    ++fired;
  }
  return fired;
}

int Reactor::dispatch_events(int n) {
  int handled = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = ready_[static_cast<std::size_t>(i)].fd;
    const std::uint32_t events = ready_[static_cast<std::size_t>(i)].events;
    if (fd == wake_fd_) {
      std::uint64_t drain = 0;
      while (::read(wake_fd_, &drain, sizeof drain) > 0) {
      }
      continue;
    }
    // Lookup at dispatch time: an earlier handler in this batch may have
    // removed this fd (session teardown) — skip its stale event.
    auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;
    auto handler = it->second.handler;  // pin across the call
    (*handler)(events);
    ++handled;
  }
  // One-shot re-arm (io_uring): every fd whose poll completed this batch —
  // and is still registered — gets a fresh POLL_ADD queued for the next
  // enter. Arming re-checks current readiness, so an un-drained fd fires
  // again immediately: level-triggered epoll semantics, batched syscalls.
  if (backend_ == ReactorBackend::kUring) {
    for (int i = 0; i < n; ++i) {
      const int fd = ready_[static_cast<std::size_t>(i)].fd;
      if (fd == wake_fd_) continue;
      auto it = handlers_.find(fd);
      if (it != handlers_.end() && !it->second.armed) {
        uring_arm(fd, it->second);
      }
    }
  }
  return handled;
}

int Reactor::epoll_wait_collect(std::int64_t wait_ns) {
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
    if (errno == EINTR) return -1;  // interrupted: skip this turn entirely
    throw_errno("epoll_wait");
  }
  ready_.clear();
  for (int i = 0; i < n; ++i) {
    ready_.push_back(ReadyEvent{evs[i].data.fd, evs[i].events});
  }
  return n;
}

int Reactor::uring_wait_collect(std::int64_t wait_ns) {
#ifdef VOLLEY_HAVE_URING
  Uring& ring = *uring_;
  // Skip the sleep entirely when completions are already buffered (a burst
  // larger than one reap batch, or CQEs posted by arm-time level checks).
  const bool cq_empty =
      __atomic_load_n(ring.cq_head, __ATOMIC_ACQUIRE) ==
      __atomic_load_n(ring.cq_tail, __ATOMIC_ACQUIRE);

  if (cq_empty || ring.to_submit > 0) {
    unsigned flags = IORING_ENTER_GETEVENTS;
    io_uring_getevents_arg arg{};
    timespec ts{};
    const void* argp = nullptr;
    std::size_t argsz = 0;
    unsigned min_complete = cq_empty ? 1 : 0;
    if (wait_ns == 0) {
      min_complete = 0;  // pure poll: submit + reap, never sleep
    } else if (wait_ns > 0 && cq_empty) {
      if (ring.ext_arg) {
        ts.tv_sec = wait_ns / 1000000000;
        ts.tv_nsec = wait_ns % 1000000000;
        arg.ts = reinterpret_cast<std::uint64_t>(&ts);
        argp = &arg;
        argsz = sizeof(arg);
        flags |= IORING_ENTER_EXT_ARG;
      } else {
        // No EXT_ARG on this kernel: bound the wait with a TIMEOUT SQE.
        io_uring_sqe* sqe = ring.get_sqe();
        sqe->opcode = IORING_OP_TIMEOUT;
        ts.tv_sec = wait_ns / 1000000000;
        ts.tv_nsec = wait_ns % 1000000000;
        sqe->addr = reinterpret_cast<std::uint64_t>(&ts);
        sqe->len = 1;
        sqe->user_data = kIgnoreKey;
      }
    }
    const int n = sys_io_uring_enter(ring.fd, ring.to_submit, min_complete,
                                     flags, argp, argsz);
    count_io_syscalls();
    ++stats_.syscalls;
    if (n >= 0) {
      ring.to_submit -= static_cast<unsigned>(n);
    } else if (errno != EINTR && errno != ETIME && errno != EBUSY) {
      throw_errno("io_uring_enter");
    }
    // EINTR with pending submissions: the kernel consumed none; they stay
    // queued and ride the next turn's enter.
  }

  // Reap every buffered completion into the ready batch.
  ready_.clear();
  unsigned head = __atomic_load_n(ring.cq_head, __ATOMIC_ACQUIRE);
  const unsigned tail = __atomic_load_n(ring.cq_tail, __ATOMIC_ACQUIRE);
  while (head != tail) {
    const io_uring_cqe& cqe = ring.cqes[head & ring.cq_mask];
    ++head;
    const std::uint64_t key = cqe.user_data;
    if (key == kIgnoreKey) continue;  // POLL_REMOVE / TIMEOUT bookkeeping
    const int fd = key_fd(key);
    if (fd == wake_fd_) {
      // Permanent registration: consume and immediately re-arm.
      ready_.push_back(ReadyEvent{fd, EPOLLIN});
      ring.queue_poll_add(wake_fd_, EPOLLIN, make_key(wake_fd_, 0));
      continue;
    }
    auto it = handlers_.find(fd);
    if (it == handlers_.end() || it->second.gen != key_gen(key)) {
      continue;  // stale: registration superseded or removed
    }
    it->second.armed = false;
    if (cqe.res < 0) {
      // -ECANCELED from a mask change crossing its own cancel; the
      // replacement arm is already queued. Anything else: surface as a
      // hangup so the handler tears the session down through its normal
      // read path.
      if (cqe.res != -ECANCELED) ready_.push_back(ReadyEvent{fd, EPOLLERR});
      continue;
    }
    ready_.push_back(ReadyEvent{fd, static_cast<std::uint32_t>(cqe.res)});
  }
  __atomic_store_n(ring.cq_head, head, __ATOMIC_RELEASE);
  return static_cast<int>(ready_.size());
#else
  (void)wait_ns;
  return 0;
#endif
}

int Reactor::wait_and_dispatch(std::int64_t wait_ns) {
  const int n = backend_ == ReactorBackend::kUring
                    ? uring_wait_collect(wait_ns)
                    : epoll_wait_collect(wait_ns);
  if (n < 0) return 0;  // EINTR: same as the pre-backend reactor, skip turn
  const auto& met = reactor_metrics();
  ++stats_.wakeups;
  met.wakeups->inc();
  const std::int64_t t0 = now_ms();
  const int handled = dispatch_events(n);
  const int fired = advance_wheel(now_ms());
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
