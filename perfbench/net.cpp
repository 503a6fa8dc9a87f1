// Wire workload net_alert: one in-process net::CoordinatorNode with default
// options (only the fleet size and T are set) and a one-thread load
// generator speaking the wire protocol over raw loopback connections, one
// per core. The generator runs an open loop: every connection sends a
// heartbeat every 0.25 ms (16000/s over four connections), which keeps the
// coordinator's loop from idling into the millisecond wake-ups of a virtual
// machine, and one LocalViolation is due every 5 ms on a seeded connection.
// Every connection answers each PollRequest with a seeded integer whose sum
// exceeds T, so every poll ends in on_alert. Latency runs from the
// violation's due time to on_alert.
//
// The generator keeps whole frames: bytes go out only from a per-connection
// queue of complete frames, so a partially accepted frame is finished
// before the next one starts. It waits on its sockets with epoll and never
// sleeps; while it is sending it polls epoll without blocking.
// It gives up, counting failures, when the coordinator goes away.
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "net/coordinator_node.h"
#include "net/framing.h"
#include "net/io_counters.h"
#include "net/messages.h"
#include "net/socket.h"
#include "spans.h"

namespace perfbench {
namespace {

using volley::FrameReader;
using volley::MonitorId;
using volley::TcpConnection;
using volley::Tick;
namespace net = volley::net;

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kViolationPeriodNs = 5 * kMs;
constexpr std::int64_t kHeartbeatPeriodNs = kMs / 4;
// A violation not answered within the coordinator's default poll timeout
// counts as failed.
constexpr std::int64_t kAlertLimitNs = 1000 * kMs;
constexpr std::int64_t kSegmentNs = 500 * kMs;
constexpr Tick kFirstTick = 1000;
constexpr std::size_t kCaptureFrames = 4096;
constexpr std::size_t kSampleReserve = std::size_t{1} << 21;

std::vector<std::byte> frame(const net::Message& m) {
  return volley::frame_payload(net::encode(m));
}

/// Answer of connection c to the poll for violation k (an integer, so any
/// summation order gives the same total).
double answer(std::uint64_t seed, std::uint64_t k, std::size_t c) {
  return 10.0 + static_cast<double>(mix(seed ^ 0xa115ull, k * 64 + c) % 5);
}

struct AlertRecord {
  Tick tick{0};
  double value{0.0};
  std::int64_t ns{0};
};

/// The coordinator under test plus its run() thread and the on_alert log.
struct Node {
  std::mutex mu;
  std::vector<AlertRecord> alerts;  // guarded by mu
  std::unique_ptr<net::CoordinatorNode> node;
  std::thread thread;

  ~Node() {
    if (thread.joinable()) {
      node->request_stop();
      thread.join();
    }
  }
};

/// A frame whose send completion is timed: kind 0 violation k, kind 1 the
/// poll response for violation k, kind 2 heartbeat with seq k.
struct Marker {
  std::uint64_t end{0};
  int kind{0};
  std::uint64_t id{0};
};

struct Conn {
  TcpConnection conn;
  FrameReader reader;
  std::vector<std::byte> out;  // complete frames only
  std::size_t out_off{0};
  std::uint64_t bytes_queued{0}, bytes_sent{0};
  bool want_out{false};
  std::uint64_t next_seq{1};
  std::uint64_t acked{0};
  // Frames whose send completion is timed, by their last byte's offset.
  std::deque<Marker> markers;
  // (seq, send-complete ns) of heartbeats awaiting their ack.
  std::deque<std::pair<std::uint64_t, std::int64_t>> hb_sent;
};

struct Setup {
  std::unique_ptr<Node> node;
  std::vector<Conn> conns;
};

std::optional<Setup> boot(std::size_t fleet, double threshold) {
  Setup s;
  s.node = std::make_unique<Node>();
  Node* n = s.node.get();
  net::CoordinatorNodeOptions o;
  o.monitors = fleet;
  o.global_threshold = threshold;
  o.on_alert = [n](volley::TaskId, Tick tick, double value) {
    const std::int64_t ns = now_ns();
    std::lock_guard<std::mutex> lock(n->mu);
    n->alerts.push_back({tick, value, ns});
  };
  n->node = std::make_unique<net::CoordinatorNode>(o);
  n->thread = std::thread([n] { n->node->run(); });
  // The coordinator's loop and the generator never share a core.
  pin_thread(n->thread.native_handle(), kCoordinatorCpu);
  for (std::size_t i = 0; i < fleet; ++i) {
    auto c = TcpConnection::try_connect("127.0.0.1", n->node->port(), 2000);
    if (!c) return std::nullopt;
    const auto id = static_cast<MonitorId>(i);
    if (!c->send_all(frame(net::Hello{id})) ||
        !c->send_all(frame(net::Heartbeat{id, 0})))
      return std::nullopt;
    s.conns.emplace_back();
    s.conns.back().conn = std::move(*c);
  }
  // Each session is bound once its first heartbeat is acked.
  std::vector<std::byte> buf(4096);
  for (Conn& c : s.conns) {
    const std::int64_t deadline = now_ns() + 5000 * kMs;
    bool acked = false;
    while (!acked && now_ns() < deadline) {
      const auto got = c.conn.recv_some(buf);
      if (!got || *got == 0) return std::nullopt;
      c.reader.feed(std::span<const std::byte>(buf.data(), *got));
      while (auto p = c.reader.next()) {
        const auto m = net::decode(*p);
        if (m && std::holds_alternative<net::HeartbeatAck>(*m)) acked = true;
      }
    }
    if (!acked) return std::nullopt;
    c.conn.set_nonblocking(true);
  }
  return s;
}

/// Per-violation timeline (ns, steady clock).
struct AlertOp {
  std::int64_t due{0}, sent{0}, first_req{0}, last_req{0}, last_resp{0}, alert{0};
  std::size_t reqs{0}, resps_sent{0};
  double expected{0.0};  // sum of the answers
  double settle_ms{-1.0};  // the coordinator's poll_settle_ms() entry
  bool own{false};      // answered by an alert of its own poll
  bool alerted{false};  // answered (own or absorbed) within the limit
};

struct NetRun {
  double setup_s{0.0};
  double window_s{0.0};
  std::vector<AlertOp> ops;
  std::int64_t hb_sent{0}, hb_acked{0}, hb_out_of_order{0};
  std::vector<double> hb_ack_us;
  std::vector<double> lag_us;
  std::int64_t msgs{0}, wakeups{0}, syscalls{0};
  // CPU time over the window: the program's threads (the process minus the
  // generator and the CPU warmer) and the generator thread.
  double program_cpu_s{0.0}, gen_cpu_s{0.0};
  std::vector<double> segment_rates;  // messages per second of program CPU, scaled
  HostSpeed speed;                    // host factor per segment
  double gen_busy_s{0.0};  // generator time spent handling sockets
  std::vector<double> settle_ms;
  std::vector<std::string> errors;
  std::int64_t bad_alert_values{0}, unmatched_alerts{0};
  // Alerts whose timeline is out of order, or whose poll_settle_ms() entry
  // is missing or falls outside the bracket the timeline gives.
  std::int64_t timeline_bad{0};
  std::vector<std::vector<std::byte>> captured;  // payloads seen on the wire
};

/// Keeps the coordinator's CPU from going idle while a workload runs: a
/// SCHED_IDLE thread on that CPU spins and yields the core the moment the
/// coordinator's loop is runnable. On a virtual machine an idle vCPU
/// halts, and how long the host takes to wake it drifted twofold with host
/// load over tens of minutes; with the CPU never idle that wake-up cost
/// stays out of the measured latency. Its own CPU time is taken out of the
/// program's.
///
/// While the generator's window runs it spins on probe chunks, so it also
/// times the host on the CPU where the coordinator runs (see HostSpeed)
/// without touching the generator's schedule. Outside the window it spins
/// on pause: set-up times held steadier that way.
class CpuWarmer {
 public:
  explicit CpuWarmer(unsigned cpu)
      : thread_([this, cpu] {
          sched_param param{};
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
          pin_thread(pthread_self(), cpu);
          for (std::uint64_t n = 0; !stop_.load(std::memory_order_relaxed);) {
            if (!recording_.load(std::memory_order_relaxed)) {
              __builtin_ia32_pause();
              continue;
            }
            const double chunk = probe_chunk_ns();
            if (n++ % kRecordEvery == 0) {
              std::lock_guard<std::mutex> lock(mu_);
              speed_.add(chunk);
            }
          }
        }) {}
  ~CpuWarmer() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  CpuWarmer(const CpuWarmer&) = delete;
  CpuWarmer& operator=(const CpuWarmer&) = delete;

  double cpu_s() { return thread_cpu_s(thread_.native_handle()); }

  /// Starts a fresh record of the host's speed.
  void start_recording() {
    std::lock_guard<std::mutex> lock(mu_);
    speed_ = HostSpeed{};
    recording_.store(true, std::memory_order_relaxed);
  }
  /// Ends the current segment at `end` and returns its host factor.
  double close_segment(std::int64_t end) {
    std::lock_guard<std::mutex> lock(mu_);
    return speed_.close(end);
  }
  /// Stops recording and hands the record over.
  HostSpeed stop_recording() {
    recording_.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(speed_);
  }

 private:
  // One chunk in 16 is kept: some ten thousand a second.
  static constexpr std::uint64_t kRecordEvery = 16;
  std::mutex mu_;
  HostSpeed speed_;
  std::atomic<bool> recording_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared after the state it uses
};

class Generator {
 public:
  Generator(Setup& setup, std::uint64_t seed, CpuWarmer& warmer, SpanRecorder* spans)
      : s_(setup), seed_(seed), warmer_(warmer), spans_(spans) {
    ep_ = epoll_create1(EPOLL_CLOEXEC);
    if (ep_ < 0) throw std::runtime_error("epoll_create1 failed");
    epoll_event ev{};
    for (std::size_t i = 0; i < s_.conns.size(); ++i) {
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      epoll_ctl(ep_, EPOLL_CTL_ADD, s_.conns[i].conn.fd(), &ev);
    }
    if (spans_) {
      n_send_ = spans_->intern("gen.send");
      n_recv_ = spans_->intern("gen.recv");
    }
  }
  ~Generator() { close(ep_); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void run(double seconds, NetRun& out) {
    const std::int64_t t0 = now_ns() + 20 * kMs;
    const std::int64_t stop_at = t0 + static_cast<std::int64_t>(seconds * 1e9);
    const std::size_t c_count = s_.conns.size();
    std::int64_t next_violation = t0;
    std::vector<std::int64_t> next_hb(c_count);
    for (std::size_t c = 0; c < c_count; ++c)
      next_hb[c] = t0 + static_cast<std::int64_t>(c) * kHeartbeatPeriodNs /
                            static_cast<std::int64_t>(c_count);

    auto& coord = *s_.node->node;
    std::int64_t window_start = 0;
    std::int64_t m0 = 0, w0 = 0, sys0 = 0;
    double p0 = 0.0, g0 = 0.0;
    // Program CPU per segment of the window, so a stretch where the host
    // slowed the process moves one segment's rate, not the median.
    std::int64_t next_segment = 0, seg_msgs = 0;
    double seg_cpu = 0.0;
    bool started = false;
    std::int64_t drain_until = 0;
    ops_ = &out.ops;
    // Sample buffers are reserved up front: growing them by doubling
    // would make the process's peak RSS jump with the sample count.
    out.hb_ack_us.reserve(kSampleReserve);
    out.lag_us.reserve(kSampleReserve);
    epoll_event events[64];
    while (!dead_) {
      const std::int64_t now = now_ns();
      if (!started && now >= t0) {
        started = true;
        window_start = now;
        m0 = coord.messages_received();
        w0 = coord.loop_wakeups();
        sys0 = net::io_syscalls_estimate();
        p0 = program_cpu_s();
        g0 = thread_cpu_s();
        next_segment = now + kSegmentNs;
        warmer_.start_recording();
        seg_msgs = m0;
        seg_cpu = p0;
      }
      if (sending_ && started && now >= next_segment) {
        const std::int64_t m = coord.messages_received();
        const double cpu = program_cpu_s();
        const double factor = warmer_.close_segment(now);
        if (cpu > seg_cpu)
          out.segment_rates.push_back(static_cast<double>(m - seg_msgs) / (cpu - seg_cpu) * factor);
        seg_msgs = m;
        seg_cpu = cpu;
        next_segment += kSegmentNs;
      }
      if (sending_ && now >= stop_at) {
        sending_ = false;
        warmer_.close_segment(now);
        out.speed = warmer_.stop_recording();
        const double window = static_cast<double>(now - window_start) * 1e-9;
        out.window_s = window;
        out.msgs = coord.messages_received() - m0;
        out.wakeups = coord.loop_wakeups() - w0;
        out.syscalls = net::io_syscalls_estimate() - sys0;
        out.program_cpu_s = program_cpu_s() - p0;
        out.gen_cpu_s = thread_cpu_s() - g0;
        out.gen_busy_s = static_cast<double>(busy_ns_) * 1e-9;
        drain_until = now + 5000 * kMs;
        for (std::size_t c = 0; c < c_count; ++c) set_out(c, !s_.conns[c].out.empty());
      }
      if (!sending_ && (outstanding() == 0 || now >= drain_until)) break;

      // While sending, the loop polls without blocking so a timer wake-up
      // (which costs milliseconds on some virtual machines) never delays a
      // send. Busy time counts scheduled sends and socket handling, not
      // polls that found nothing.
      const bool spin = started && sending_;
      std::int64_t busy = 0;

      // Scheduled sends: everything due by now goes out.
      if (spin) {
        bool sent = false;
        while (next_violation <= now && next_violation < stop_at) {
          send_violation(next_violation, out);
          next_violation += kViolationPeriodNs;
          sent = true;
        }
        for (std::size_t c = 0; c < c_count; ++c) {
          while (next_hb[c] <= now) {
            send_heartbeat(c, next_hb[c], out);
            next_hb[c] += kHeartbeatPeriodNs;
            sent = true;
          }
        }
        if (sent) busy += now_ns() - now;
      }
      const int timeout_ms =
          spin ? 0 : started ? 100 : static_cast<int>((t0 - now) / kMs) + 1;
      const int n = epoll_wait(ep_, events, 64, timeout_ms);
      if (n < 0 && errno != EINTR) break;
      const std::int64_t handled_from = now_ns();
      for (int i = 0; i < n; ++i) {
        const std::size_t c = events[i].data.u64;
        if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) on_readable(c, out);
        if (dead_) break;
        if (events[i].events & EPOLLOUT || !s_.conns[c].out.empty()) flush(c);
      }
      if (n > 0) busy += now_ns() - handled_from;
      if (started && sending_) busy_ns_ += busy;
    }
    if (!sending_ && dead_) out.errors.push_back("coordinator connection lost");
    if (sending_) {
      out.errors.push_back("coordinator connection lost before the window ended");
      out.window_s = static_cast<double>(now_ns() - window_start) * 1e-9;
    }
  }

 private:
  /// CPU time of the program's threads: the process minus the generator
  /// (this thread) and the CPU warmer.
  double program_cpu_s() { return process_cpu_s() - thread_cpu_s() - warmer_.cpu_s(); }

  std::int64_t outstanding() const {
    std::int64_t n = 0;
    for (const Conn& c : s_.conns)
      n += static_cast<std::int64_t>(c.next_seq - 1 - c.acked);
    if (!ops_->empty()) {
      // A poll still gathering, or a violation too recent to have been
      // polled yet.
      for (const AlertOp& op : *ops_)
        n += (op.reqs > 0 && op.resps_sent < s_.conns.size()) ? 1 : 0;
      n += now_ns() - ops_->back().due < 50 * kMs ? 1 : 0;
    }
    return n;
  }

  void set_out(std::size_t c, bool on) {
    Conn& conn = s_.conns[c];
    if (conn.want_out == on) return;
    conn.want_out = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u64 = c;
    epoll_ctl(ep_, EPOLL_CTL_MOD, conn.conn.fd(), &ev);
  }

  /// Queues one complete frame; returns its last byte's stream offset.
  std::uint64_t queue(std::size_t c, const std::vector<std::byte>& f) {
    Conn& conn = s_.conns[c];
    conn.out.insert(conn.out.end(), f.begin(), f.end());
    conn.bytes_queued += f.size();
    return conn.bytes_queued;
  }

  /// Sends queued bytes. A timed frame counts as written when the send()
  /// call that hands over its last byte starts, so the coordinator can
  /// never be seen acting on it earlier.
  void flush(std::size_t c) {
    Conn& conn = s_.conns[c];
    while (conn.out_off < conn.out.size()) {
      const std::int64_t a = now_ns();
      const ssize_t n = ::send(conn.conn.fd(), conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (spans_) spans_->add(n_send_, a, now_ns(), SpanRecorder::kNoParent, static_cast<std::int64_t>(c));
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        conn.bytes_sent += static_cast<std::uint64_t>(n);
        while (!conn.markers.empty() && conn.markers.front().end <= conn.bytes_sent) {
          on_sent(c, conn.markers.front(), a);
          conn.markers.pop_front();
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      dead_ = true;
      return;
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    set_out(c, !conn.out.empty());
  }

  void on_sent(std::size_t c, const Marker& m, std::int64_t now) {
    if (m.kind == 2) {
      for (auto& hb : s_.conns[c].hb_sent)
        if (hb.first == m.id) hb.second = now;
      return;
    }
    AlertOp& op = (*ops_)[m.id];
    if (m.kind == 0) {
      op.sent = now;
    } else if (++op.resps_sent == s_.conns.size()) {
      op.last_resp = now;
    }
  }

  void send_violation(std::int64_t due, NetRun& out) {
    const std::size_t k = out.ops.size();
    ops_ = &out.ops;
    AlertOp op;
    op.due = due;
    for (std::size_t c = 0; c < s_.conns.size(); ++c) op.expected += answer(seed_, k, c);
    out.ops.push_back(op);
    const std::size_t c = mix(seed_ ^ 0x71ull, k) % s_.conns.size();
    const Tick tick = kFirstTick + static_cast<Tick>(k);
    out.lag_us.push_back(static_cast<double>(now_ns() - due) * 1e-3);
    const auto f = frame(net::LocalViolation{static_cast<MonitorId>(c), tick, 99.0, 0});
    s_.conns[c].markers.push_back({queue(c, f), 0, k});
    flush(c);
  }

  void send_heartbeat(std::size_t c, std::int64_t due, NetRun& out) {
    Conn& conn = s_.conns[c];
    out.lag_us.push_back(static_cast<double>(now_ns() - due) * 1e-3);
    const std::uint64_t seq = conn.next_seq++;
    conn.hb_sent.emplace_back(seq, 0);
    ++out.hb_sent;
    conn.markers.push_back({queue(c, frame(net::Heartbeat{static_cast<MonitorId>(c), seq})), 2, seq});
    flush(c);
  }

  void on_readable(std::size_t c, NetRun& out) {
    Conn& conn = s_.conns[c];
    for (;;) {
      const std::int64_t a = spans_ ? now_ns() : 0;
      const ssize_t n = ::recv(conn.conn.fd(), buf_, sizeof buf_, 0);
      if (spans_) spans_->add(n_recv_, a, now_ns(), SpanRecorder::kNoParent, static_cast<std::int64_t>(c));
      if (n == 0) {
        dead_ = true;
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) dead_ = true;
        return;
      }
      const std::int64_t now = now_ns();
      conn.reader.feed(std::span<const std::byte>(buf_, static_cast<std::size_t>(n)));
      while (auto payload = conn.reader.next()) {
        if (out.captured.size() < kCaptureFrames) out.captured.push_back(*payload);
        const auto m = net::decode(*payload);
        if (!m) {
          out.errors.push_back("undecodable frame from coordinator");
          continue;
        }
        if (const auto* ack = std::get_if<net::HeartbeatAck>(&*m)) {
          if (ack->seq != conn.acked + 1) ++out.hb_out_of_order;
          conn.acked = std::max(conn.acked, ack->seq);
          ++out.hb_acked;
          while (!conn.hb_sent.empty() && conn.hb_sent.front().first <= conn.acked) {
            if (conn.hb_sent.front().first == ack->seq && conn.hb_sent.front().second > 0)
              out.hb_ack_us.push_back(static_cast<double>(now - conn.hb_sent.front().second) * 1e-3);
            conn.hb_sent.pop_front();
          }
        } else if (const auto* req = std::get_if<net::PollRequest>(&*m)) {
          const Tick k = req->tick - kFirstTick;
          if (k < 0 || static_cast<std::size_t>(k) >= out.ops.size()) {
            out.errors.push_back("poll for an unknown violation");
            continue;
          }
          AlertOp& op = out.ops[static_cast<std::size_t>(k)];
          if (op.reqs++ == 0) op.first_req = now;
          op.last_req = now;
          const net::PollResponse resp{static_cast<MonitorId>(c), req->poll_id, req->tick,
                                       answer(seed_, static_cast<std::uint64_t>(k), c), req->task};
          conn.markers.push_back({queue(c, frame(resp)), 1, static_cast<std::uint64_t>(k)});
          flush(c);
        }
      }
    }
  }

  Setup& s_;
  std::uint64_t seed_;
  CpuWarmer& warmer_;
  SpanRecorder* spans_;
  std::vector<AlertOp>* ops_{nullptr};
  int ep_{-1};
  bool dead_{false};
  bool sending_{true};
  std::int64_t busy_ns_{0};  // handling ready sockets during the window
  std::uint32_t n_send_{0}, n_recv_{0};
  std::byte buf_[65536];
};

NetRun run_once(const Options& o, std::size_t fleet, double threshold, CpuWarmer& warmer,
                SpanRecorder* spans) {
  NetRun run;
  std::vector<double> setups;
  std::optional<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    const double factor = probe_for(kSetupGapNs);
    const std::int64_t a = now_ns();
    setup = boot(fleet, threshold);
    if (!setup) throw std::runtime_error("coordinator set-up failed");
    setups.push_back(static_cast<double>(now_ns() - a) * 1e-9 / factor);
  }
  run.setup_s = median(setups);
  {
    auto gen = std::make_unique<Generator>(*setup, o.seed, warmer, spans);
    gen->run(o.seconds, run);
  }
  auto& node = *setup->node;
  // on_alert runs on the coordinator's thread after the last response is
  // read; wait (up to the alert limit) for an alert raised after the last
  // violation was written, which answers it whether polled or absorbed.
  const std::int64_t last_sent = run.ops.empty() ? 0 : run.ops.back().sent;
  const std::int64_t deadline = now_ns() + kAlertLimitNs;
  while (!run.ops.empty() && now_ns() < deadline) {
    {
      std::lock_guard<std::mutex> lock(node.mu);
      if (!node.alerts.empty() && node.alerts.back().ns >= last_sent) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  node.node->request_stop();
  node.thread.join();
  run.settle_ms = node.node->poll_settle_ms();
  {
    std::lock_guard<std::mutex> lock(node.mu);
    // Every poll here ends in an alert, so poll_settle_ms() holds one entry
    // per alert, in on_alert order.
    if (run.settle_ms.size() != node.alerts.size())
      run.timeline_bad += 1 + static_cast<std::int64_t>(node.alerts.size());
    for (std::size_t i = 0; i < node.alerts.size(); ++i) {
      const AlertRecord& a = node.alerts[i];
      const Tick k = a.tick - kFirstTick;
      if (k < 0 || static_cast<std::size_t>(k) >= run.ops.size()) {
        ++run.unmatched_alerts;
        continue;
      }
      AlertOp& op = run.ops[static_cast<std::size_t>(k)];
      op.alert = a.ns;
      op.own = true;
      if (i < run.settle_ms.size()) op.settle_ms = run.settle_ms[i];
      if (a.value != op.expected) ++run.bad_alert_values;
    }
  }
  // A violation that lands while another poll is still gathering is
  // absorbed by it (one poll per task at a time; violations on different
  // connections may also arrive out of order). It is answered by the first
  // alert raised after it was written.
  std::vector<std::int64_t> alert_times;
  for (const AlertOp& op : run.ops)
    if (op.own) alert_times.push_back(op.alert);
  std::sort(alert_times.begin(), alert_times.end());
  for (AlertOp& op : run.ops) {
    if (!op.own && op.sent > 0) {
      const auto it = std::lower_bound(alert_times.begin(), alert_times.end(), op.sent);
      if (it != alert_times.end()) op.alert = *it;
    }
    op.alerted = op.alert > 0 && op.alert - op.due <= kAlertLimitNs;
  }
  // Each polled violation's timeline (due, sent, first and last
  // PollRequest read, last PollResponse written, on_alert) must be in
  // order. The coordinator also times each poll itself, in whole
  // milliseconds of the same steady clock: from handling the violation
  // (after the generator began sending it, before the first PollRequest was
  // read) to settling, just after on_alert. Its figure must fall inside the
  // bracket the timeline gives, with 1 ms allowed after on_alert.
  for (const AlertOp& op : run.ops) {
    if (!op.own) continue;
    const std::int64_t t[6] = {op.due, op.sent, op.first_req, op.last_req, op.last_resp, op.alert};
    bool ok = op.reqs > 0 && op.settle_ms >= 0.0;
    for (int i = 0; i < 5; ++i) ok = ok && t[i] <= t[i + 1];
    const std::int64_t lo = op.alert / kMs - op.first_req / kMs;
    const std::int64_t hi = (op.alert + kMs) / kMs - op.sent / kMs;
    const auto settle = static_cast<std::int64_t>(op.settle_ms);
    if (!ok || settle < lo || settle > hi) ++run.timeline_bad;
  }
  return run;
}

/// Timed encode / decode / framing over the frames captured from the run.
void codec_layers(const NetRun& run, Report& r) {
  std::vector<net::Message> messages;
  for (const auto& p : run.captured)
    if (auto m = net::decode(p)) messages.push_back(*m);
  if (messages.empty()) {
    r.check("codec_layers", false, "no frames captured");
    return;
  }
  constexpr int kReps = 64;
  std::size_t bytes = 0;
  std::int64_t a = now_ns();
  for (int rep = 0; rep < kReps; ++rep)
    for (const auto& m : messages) bytes += net::encode(m).size();
  std::int64_t b = now_ns();
  const double frames = static_cast<double>(messages.size()) * kReps;
  r.layer("net.encode_ns_per_frame", static_cast<double>(b - a) / frames, "ns");
  a = now_ns();
  for (int rep = 0; rep < kReps; ++rep)
    for (const auto& p : run.captured) bytes += net::decode(p).has_value();
  b = now_ns();
  r.layer("net.decode_ns_per_frame", static_cast<double>(b - a) / frames, "ns");
  std::vector<std::byte> stream;
  for (const auto& p : run.captured) {
    const auto f = volley::frame_payload(p);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  a = now_ns();
  for (int rep = 0; rep < kReps; ++rep) {
    FrameReader reader;
    for (std::size_t off = 0; off < stream.size(); off += 1500) {
      reader.feed(std::span<const std::byte>(stream.data() + off, std::min<std::size_t>(1500, stream.size() - off)));
      while (auto p = reader.next()) bytes += p->size();
    }
  }
  b = now_ns();
  r.layer("net.framing_ns_per_frame", static_cast<double>(b - a) / frames, "ns");
  if (bytes == 0) r.check("codec_layers", false, "no bytes processed");
}

struct Stage {
  const char* name;
  std::vector<double> us;
};

}  // namespace

Report run_net_alert(const Options& o) {
  const std::size_t fleet = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 2, 8);
  const double threshold = 5.0 * static_cast<double>(fleet);
  Report r;
  pin_thread(pthread_self(), kBenchCpu);
  CpuWarmer warmer(kCoordinatorCpu);
  const NetRun run = run_once(o, fleet, threshold, warmer, nullptr);

  // Alert latency is not scaled: neither the compute probe nor a loopback
  // round-trip probe tracked it from run to run (README).
  std::vector<double> alert_ms;
  std::int64_t alerted = 0;
  for (const AlertOp& op : run.ops) {
    if (!op.alerted) continue;
    ++alerted;
    alert_ms.push_back(static_cast<double>(op.alert - op.due) * 1e-6);
  }
  // Generator load: socket-handling time over the window (the loop polls
  // without blocking, so its CPU time is always the whole window).
  const double gen_busy = run.window_s > 0 ? run.gen_busy_s / run.window_s : 0.0;
  const double lag_p99 = quantile(run.lag_us, 0.99);
  const std::int64_t unacked = run.hb_sent - run.hb_acked;
  const double msgs = static_cast<double>(std::max<std::int64_t>(1, run.msgs));

  r.e2e("setup_s", run.setup_s, "s");
  r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  // Messages the coordinator handled per second of its own CPU, scaled by
  // the host factor (median over half-second segments): the offered load
  // is fixed, so what the program controls is what each message costs.
  r.e2e("throughput_per_s", median(run.segment_rates), "1/s");
  r.e2e("latency_p50_ms", quantile(alert_ms, 0.50), "ms");
  r.info("latency_p90_ms", quantile(alert_ms, 0.90), "ms");
  r.info("alert_p50_ms", quantile(alert_ms, 0.50), "ms");
  r.info("alert_p99_ms", quantile(alert_ms, 0.99), "ms");
  r.info("host_factor_p50", median(run.speed.factors()), "ratio");
  r.info("alert_fail_frac",
         run.ops.empty() ? 1.0 : 1.0 - static_cast<double>(alerted) / static_cast<double>(run.ops.size()),
         "ratio");
  r.info("alerts_per_s", static_cast<double>(alerted) / run.window_s, "1/s");
  r.info("msgs_per_s", static_cast<double>(run.msgs) / run.window_s, "1/s");
  r.info("alerts", static_cast<double>(run.ops.size()), "count");
  r.info("hb_unacked_frac", run.hb_sent ? static_cast<double>(unacked) / static_cast<double>(run.hb_sent) : 0.0,
         "ratio");
  r.info("connections", static_cast<double>(fleet), "count");
  std::int64_t absorbed = 0;
  for (const AlertOp& op : run.ops) absorbed += op.alerted && !op.own;
  r.info("absorbed_violations", static_cast<double>(absorbed), "count");
  r.layer("gen.busy_frac", gen_busy, "ratio");
  r.layer("gen.lag_p99_us", lag_p99, "us");
  r.attempted = run.hb_sent + static_cast<std::int64_t>(run.ops.size());
  r.failed = unacked + static_cast<std::int64_t>(run.ops.size()) - alerted;

  // The generator, not the program, set the number when it was busy most
  // of the window or late on its schedule.
  if (gen_busy > 0.5 || lag_p99 > 1000.0) {
    r.valid = false;
    r.validity_note = "generator busy " + fmt(gen_busy) + ", lag p99 " + fmt(lag_p99) + " us";
  }

  std::string errors;
  for (const auto& e : run.errors) errors += e + "; ";
  r.check("generator_clean", run.errors.empty(), errors.empty() ? "no errors" : errors);
  r.check("heartbeats_acked", unacked == 0 && run.hb_out_of_order == 0,
          std::to_string(run.hb_acked) + "/" + std::to_string(run.hb_sent) + " acked, " +
              std::to_string(run.hb_out_of_order) + " out of order");
  r.check("alerts_complete", alerted == static_cast<std::int64_t>(run.ops.size()) && run.ops.size() >= 1000,
          std::to_string(alerted) + "/" + std::to_string(run.ops.size()) +
              " violations alerted within 1000 ms (need >= 1000)");
  r.check("alert_values", run.bad_alert_values == 0 && run.unmatched_alerts == 0,
          std::to_string(run.bad_alert_values) + " alerts differ from the sum of answers, " +
              std::to_string(run.unmatched_alerts) + " unmatched");
  const auto timeline_detail = [](const NetRun& nr) {
    return std::to_string(nr.timeline_bad) + " alerts with an out-of-order timeline or a poll_settle_ms() " +
           "entry missing or outside its bracket";
  };
  r.check("alert_timeline", run.timeline_bad == 0, timeline_detail(run));

  if (!o.trace) return r;

  // Counter-based layer figures come from the untraced run, which the
  // span recorder does not perturb; span-based ones from the traced run.
  r.layer("net.cpu_us_per_msg", run.program_cpu_s * 1e6 / msgs, "us");
  r.layer("net.syscalls_per_frame", static_cast<double>(run.syscalls) / msgs, "count");
  r.layer("net.frames_per_wakeup",
          static_cast<double>(run.msgs) / static_cast<double>(std::max<std::int64_t>(1, run.wakeups)), "count");
  r.layer("net.hb_ack_p50_us", quantile(run.hb_ack_us, 0.50), "us");
  r.layer("net.hb_ack_p99_us", quantile(run.hb_ack_us, 0.99), "us");
  r.layer("net.coord_settle_p50_ms", median(run.settle_ms), "ms");
  codec_layers(run, r);

  SpanRecorder spans;
  const NetRun tr = run_once(o.traced(), fleet, threshold, warmer, &spans);

  // Stage spans per alert: due -> sent -> first PollRequest read -> last
  // PollRequest read -> last PollResponse written -> on_alert. They are
  // differences of one timeline, so they add up to each alert's latency by
  // construction; the timeline itself is checked in run_once.
  Stage stages[5] = {{"alert.gen_lag", {}}, {"alert.ingress", {}}, {"alert.fanout", {}},
                     {"alert.client", {}}, {"alert.gather", {}}};
  std::uint32_t names[5];
  for (int i = 0; i < 5; ++i) names[i] = spans.intern(stages[i].name);
  const std::uint32_t root_name = spans.intern("alert");
  std::vector<double> e2e_us;
  for (std::size_t k = 0; k < tr.ops.size(); ++k) {
    const AlertOp& op = tr.ops[k];
    if (!op.alerted || !op.own) continue;
    const std::int64_t t[6] = {op.due, op.sent, op.first_req, op.last_req, op.last_resp, op.alert};
    const std::int32_t root = spans.add(root_name, op.due, op.alert, SpanRecorder::kNoParent, static_cast<std::int64_t>(k));
    for (int i = 0; i < 5; ++i) {
      spans.add(names[i], t[i], t[i + 1], root, static_cast<std::int64_t>(k));
      stages[i].us.push_back(static_cast<double>(t[i + 1] - t[i]) * 1e-3);
    }
    e2e_us.push_back(static_cast<double>(op.alert - op.due) * 1e-3);
  }
  double stage_mean_sum = 0.0;
  for (const Stage& s : stages) {
    r.layer(std::string(s.name) + "_us_mean", mean(s.us), "us");
    r.layer(std::string(s.name) + "_us_p99", quantile(s.us, 0.99), "us");
    stage_mean_sum += mean(s.us);
  }
  r.check("traced_alert_timeline", tr.timeline_bad == 0 && !e2e_us.empty(),
          timeline_detail(tr) + " over " + std::to_string(e2e_us.size()) + " alerts; stage means sum " +
              fmt(stage_mean_sum) + " us, mean latency " + fmt(mean(e2e_us)) + " us");
  r.layer("trace.overhead_frac", median(e2e_us) * 1e-3 / median(alert_ms) - 1.0, "ratio");
  const std::string path = o.out_dir + "/spans_" + o.workload + "_" + std::to_string(o.seed) + ".jsonl";
  r.check("spans_written", spans.write(path), path);
  return r;
}

}  // namespace perfbench
