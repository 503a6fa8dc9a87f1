// Net-runtime scale benchmark: the coordinator's epoll reactor at fleet
// scale (DESIGN.md §12).
//
// For each fleet size N the bench boots a CoordinatorNode, joins N raw
// loopback connections (Hello + one acked Heartbeat each), and measures
// three phases:
//
//   idle   — nobody sends anything. The reactor sleeps in epoll_wait until
//            its next timer deadline (the coalesced liveness sweep, seconds
//            out), so the window should see no turns. Reported: loop
//            wakeups/sec and coordinator-thread CPU (pthread_getcpuclockid)
//            across the window.
//   load   — worker threads blast batched Heartbeat frames over every
//            connection (at most 256 unacked per connection) and drain
//            the acks. Reported: messages the coordinator handled per
//            second (ingress drain + batched writev egress) and estimated
//            syscalls per ingested frame (net/io_counters.h instrumented
//            wrappers; bench workers use raw send/recv and stay
//            invisible). Before the polls the bench waits until every
//            heartbeat is acked (reported as drain ms) and fails the run
//            when that takes longer than 30 s.
//   polls  — one connection reports a LocalViolation; every connection
//            answers the resulting global PollRequest. Reported: p50/p99
//            violation-to-settle latency from coordinator.poll_settle_ms().
//
// identity_ok per size: the reactor settled every scripted poll;
// backlog_ok per size: the load backlog drained in time. The run fails
// (exit 1) when either is false at any size.
//
// Full mode runs N = 250/1000/4000; VOLLEY_BENCH_QUICK=1 shrinks the fleet
// sizes and windows to smoke size. Emits BENCH_net.json (schema checked by
// the CI bench-smoke job); its per-size `reactor` object keeps the same
// keys across changes so records stay comparable.
#include <poll.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/coordinator_node.h"
#include "net/framing.h"
#include "net/io_counters.h"
#include "net/messages.h"
#include "net/socket.h"

namespace volley {
namespace {

using net::Heartbeat;
using net::HeartbeatAck;
using net::Hello;
using net::LocalViolation;
using net::Message;
using net::PollRequest;
using net::PollResponse;

struct BenchConfig {
  std::vector<std::size_t> sizes;
  int idle_ms{1000};
  int load_ms{1500};
  int polls{8};
};

struct ModeResult {
  double idle_wakeups_per_sec{0.0};
  double idle_cpu_ms{0.0};
  double load_msgs_per_sec{0.0};
  double load_cpu_ms{0.0};
  double settle_p50_ms{0.0};
  double settle_p99_ms{0.0};
  double syscalls_per_frame{0.0};
  std::size_t polls_settled{0};
  double backlog_drain_ms{0.0};  // load end -> every heartbeat acked
  bool backlog_drained{false};
};

/// Cap on the wait for the load phase's heartbeats to be acked. Past it
/// the run fails: polls timed behind a backlog measure the queue.
constexpr double kBacklogDrainMs = 30000.0;

double steady_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_ms(clockid_t cid) {
  timespec ts{};
  if (clock_gettime(cid, &ts) != 0) return 0.0;
  return ts.tv_sec * 1000.0 + ts.tv_nsec / 1e6;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

// Worker phases, switched by the driving thread.
enum : int { kPhaseQuiet = 0, kPhaseLoad = 1, kPhaseRespond = 2, kPhaseExit = 3 };

struct WorkerShared {
  std::atomic<int> phase{kPhaseQuiet};
  std::atomic<std::int64_t> violations_requested{0};
  std::atomic<std::int64_t> violations_sent{0};
  std::atomic<std::int64_t> poll_responses{0};
  std::atomic<std::int64_t> broken_connections{0};
  std::atomic<std::int64_t> unsent_connections{0};  // stalled at exit
  // Workers that stopped starting bursts and saw every heartbeat they
  // started acked on every one of their connections.
  std::atomic<int> workers_drained{0};
};

/// One worker owns a contiguous slice of the fleet's connections. During
/// kPhaseLoad it streams pre-framed Heartbeat batches and drains acks;
/// during kPhaseRespond it reads, answering PollRequests, and the worker
/// holding connection 0 also emits the requested LocalViolations.
///
/// Every send is non-blocking and every pass also drains the connection, so
/// a worker never waits on a peer that is itself blocked writing acks back.
/// Frames are only ever appended whole behind the unsent tail of the
/// connection's byte stream (first the in-flight heartbeat burst, then the
/// queued responses), so a frame can never land in the middle of another:
/// that would corrupt the stream's length prefixes. A connection whose send
/// fails hard is marked broken and never written again.
void worker_main(const std::vector<TcpConnection>* fleet,
                 std::size_t begin, std::size_t end, WorkerShared* shared,
                 std::int64_t round_base) {
  constexpr int kBatchFrames = 32;
  // Credit window: a connection starts a new burst only while its unacked
  // heartbeats stay within kWindowFrames. An unbounded blast outruns the
  // coordinator: its unsent acks grew to ~2.5 GB of RSS, and the backlog
  // took 15-27 s to drain after a 1.5 s load phase. With the window the
  // rate counts only ingest whose acks also went out.
  constexpr std::int64_t kWindowFrames = 8 * kBatchFrames;
  struct ConnState {
    // Heartbeats whose burst began to go out and are not yet acked. A
    // heartbeat can only be acked after every byte of it was sent.
    std::int64_t hb_unacked{0};
    FrameReader reader;
    std::vector<std::byte> batch;  // pre-framed heartbeat burst
    std::size_t batch_off{0};      // bytes of the burst already accepted
    bool batch_in_flight{false};
    std::vector<std::byte> queued;  // whole frames waiting behind the burst
    std::size_t queued_off{0};
    bool broken{false};  // a send failed; the stream may end mid-frame
  };
  std::vector<ConnState> states(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const auto one = frame_payload(
        net::encode(Message{Heartbeat{static_cast<MonitorId>(i), 1}}));
    auto& batch = states[i - begin].batch;
    for (int k = 0; k < kBatchFrames; ++k) {
      batch.insert(batch.end(), one.begin(), one.end());
    }
  }

  // Writes bytes[off..] until the socket would block. False on a hard
  // error, after which the connection is marked broken.
  const auto send_some = [&](std::size_t i, const std::vector<std::byte>& bytes,
                             std::size_t& off, const char* what) {
    ConnState& st = states[i - begin];
    while (off < bytes.size()) {
      const ssize_t n = ::send((*fleet)[i].fd(), bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      st.broken = true;
      shared->broken_connections.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "bench net: connection %zu broken: %s send failed "
                   "(errno %d); no further frames on it\n",
                   i, what, errno);
      return false;
    }
    return true;
  };
  // Pushes connection i's unsent tail: the burst first, then queued frames.
  const auto flush = [&](std::size_t i) {
    ConnState& st = states[i - begin];
    if (st.broken) return;
    if (st.batch_in_flight) {
      if (!send_some(i, st.batch, st.batch_off, "heartbeat burst")) return;
      if (st.batch_off < st.batch.size()) return;
      st.batch_in_flight = false;
    }
    if (!send_some(i, st.queued, st.queued_off, "queued frame")) return;
    if (st.queued_off == st.queued.size()) {
      st.queued.clear();
      st.queued_off = 0;
    }
  };
  const auto enqueue = [&](std::size_t i, const std::vector<std::byte>& frame) {
    ConnState& st = states[i - begin];
    st.queued.insert(st.queued.end(), frame.begin(), frame.end());
    flush(i);
  };

  std::vector<std::byte> buf(65536);
  // `decode_frames` is false on the load-phase fast path: everything the
  // coordinator sends back then is a HeartbeatAck the bench only needs to
  // drain, so frames are popped (keeping the stream aligned for the poll
  // phase) but not decoded.
  const auto drain_and_respond = [&](std::size_t i, bool decode_frames) {
    const int fd = (*fleet)[i].fd();
    ConnState& st = states[i - begin];
    std::int64_t acks = 0;
    for (;;) {
      const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
      if (n <= 0) break;  // EAGAIN / EOF: nothing more buffered
      st.reader.feed(
          std::span<const std::byte>(buf.data(), static_cast<std::size_t>(n)));
      while (const auto payload = st.reader.next()) {
        if (!decode_frames) {
          ++acks;
          continue;
        }
        const auto message =
            net::decode(std::span<const std::byte>(payload->data(),
                                                   payload->size()));
        if (!message) continue;
        if (std::holds_alternative<HeartbeatAck>(*message)) {
          ++acks;
        } else if (const auto* poll = std::get_if<PollRequest>(&*message)) {
          PollResponse response{static_cast<MonitorId>(i), poll->poll_id,
                                poll->tick, 1.0, poll->task};
          enqueue(i, frame_payload(net::encode(Message{response})));
          shared->poll_responses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    st.hb_unacked -= acks;
  };

  bool drained = false;
  for (;;) {
    const int phase = shared->phase.load(std::memory_order_acquire);
    if (phase == kPhaseExit) break;
    if (phase == kPhaseQuiet) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    if (phase == kPhaseLoad) {
      for (std::size_t i = begin; i < end; ++i) {
        ConnState& st = states[i - begin];
        if (!st.batch_in_flight && st.queued.empty() &&
            st.hb_unacked + kBatchFrames <= kWindowFrames) {
          st.batch_off = 0;
          st.batch_in_flight = true;
          st.hb_unacked += kBatchFrames;
        }
        flush(i);
        drain_and_respond(i, /*decode_frames=*/false);
      }
      continue;
    }
    // kPhaseRespond: finish the load phase's half-sent bursts behind which
    // any response queues, plus the violation trigger.
    if (begin == 0 && shared->violations_sent.load(std::memory_order_relaxed) <
                          shared->violations_requested.load(
                              std::memory_order_relaxed)) {
      const std::int64_t round =
          shared->violations_sent.fetch_add(1, std::memory_order_relaxed);
      const LocalViolation violation{
          0, static_cast<Tick>(round_base + round * 100), 1000.0};
      enqueue(0, frame_payload(net::encode(Message{violation})));
    }
    for (std::size_t i = begin; i < end; ++i) {
      flush(i);
      drain_and_respond(i, /*decode_frames=*/true);
    }
    // No burst starts in this phase, so once drained a worker stays so.
    if (!drained && std::all_of(states.begin(), states.end(),
                                [](const ConnState& st) {
                                  return st.hb_unacked == 0;
                                })) {
      drained = true;
      shared->workers_drained.fetch_add(1, std::memory_order_release);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::int64_t unsent = 0;
  for (const ConnState& st : states) {
    if (!st.broken && (st.batch_in_flight || !st.queued.empty())) ++unsent;
  }
  shared->unsent_connections.fetch_add(unsent, std::memory_order_relaxed);
}

/// Runs one fleet size end to end.
std::optional<ModeResult> run_mode(std::size_t connections,
                                   const BenchConfig& cfg) {
  net::CoordinatorNodeOptions copt;
  copt.monitors = connections;
  copt.global_threshold = 5.0;
  copt.error_allowance = 0.03;
  copt.poll_timeout_ms = 4000;
  copt.idle_timeout_ms = 600000;
  copt.heartbeat_timeout_ms = 600000;  // the fleet stays ACTIVE while quiet
  copt.staleness_bound_ms = 600000;
  net::CoordinatorNode coordinator(copt);
  std::thread coord_thread([&coordinator] { coordinator.run(); });
  clockid_t coord_cpu{};
  if (pthread_getcpuclockid(coord_thread.native_handle(), &coord_cpu) != 0) {
    std::fprintf(stderr, "bench net: pthread_getcpuclockid failed\n");
  }

  // Join the fleet: Hello + one Heartbeat per connection, then block on the
  // ack so every session is provably bound before any clock starts.
  std::vector<TcpConnection> fleet;
  fleet.reserve(connections);
  bool setup_ok = true;
  for (std::size_t i = 0; i < connections && setup_ok; ++i) {
    auto conn = TcpConnection::try_connect("127.0.0.1",
                                                coordinator.port(), 2000);
    if (!conn) {
      std::fprintf(stderr, "bench net: connect %zu failed\n", i);
      setup_ok = false;
      break;
    }
    const auto id = static_cast<MonitorId>(i);
    setup_ok = conn->send_all(frame_payload(net::encode(Message{Hello{id}}))) &&
               conn->send_all(
                   frame_payload(net::encode(Message{Heartbeat{id, 1}})));
    fleet.push_back(std::move(*conn));
  }
  std::array<std::byte, 4096> buf;
  for (std::size_t i = 0; i < fleet.size() && setup_ok; ++i) {
    FrameReader reader;
    bool acked = false;
    const auto deadline = steady_ms() + 5000.0;
    while (!acked && steady_ms() < deadline) {
      pollfd pfd{fleet[i].fd(), POLLIN, 0};
      ::poll(&pfd, 1, 100);
      const auto n = fleet[i].recv_some(buf);
      if (!n) continue;
      if (*n == 0) break;
      reader.feed(std::span<const std::byte>(buf.data(), *n));
      while (const auto payload = reader.next()) {
        const auto message = net::decode(
            std::span<const std::byte>(payload->data(), payload->size()));
        if (message && std::holds_alternative<HeartbeatAck>(*message)) {
          acked = true;
        }
      }
    }
    if (!acked) {
      std::fprintf(stderr, "bench net: no heartbeat ack on conn %zu\n", i);
      setup_ok = false;
    }
  }
  if (!setup_ok) {
    coordinator.request_stop();
    coord_thread.join();
    return std::nullopt;
  }
  for (auto& conn : fleet) conn.set_nonblocking(true);

  WorkerShared shared;
  const std::size_t worker_count = std::min<std::size_t>(
      4, std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  std::vector<std::thread> workers;
  const std::size_t chunk = (connections + worker_count - 1) / worker_count;
  for (std::size_t w = 0; w < worker_count; ++w) {
    const std::size_t begin = w * chunk;
    const std::size_t end = std::min(connections, begin + chunk);
    if (begin >= end) break;
    workers.emplace_back(worker_main, &fleet, begin, end, &shared,
                         static_cast<std::int64_t>(connections));
  }

  ModeResult result;

  // Phase 1: idle. Nothing moves; only the event loop's own overhead runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // settle
  const auto idle_w0 = coordinator.loop_wakeups();
  const double idle_c0 = thread_cpu_ms(coord_cpu);
  const double idle_t0 = steady_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.idle_ms));
  const double idle_dt = (steady_ms() - idle_t0) / 1000.0;
  result.idle_wakeups_per_sec =
      static_cast<double>(coordinator.loop_wakeups() - idle_w0) / idle_dt;
  result.idle_cpu_ms = thread_cpu_ms(coord_cpu) - idle_c0;

  // Phase 2: load. Workers stream heartbeat batches; count what the
  // coordinator actually handled. The io-syscall estimate is process-wide
  // but the workers bypass the instrumented wrappers (raw send/recv), so the
  // delta across the window is the coordinator side's syscall budget.
  const auto load_m0 = coordinator.messages_received();
  const auto load_s0 = net::io_syscalls_estimate();
  const double load_c0 = thread_cpu_ms(coord_cpu);
  const double load_t0 = steady_ms();
  shared.phase.store(kPhaseLoad, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.load_ms));
  shared.phase.store(kPhaseRespond, std::memory_order_release);
  const double load_dt = (steady_ms() - load_t0) / 1000.0;
  const auto load_msgs = coordinator.messages_received() - load_m0;
  const auto load_syscalls = net::io_syscalls_estimate() - load_s0;
  result.load_msgs_per_sec = static_cast<double>(load_msgs) / load_dt;
  result.load_cpu_ms = thread_cpu_ms(coord_cpu) - load_c0;
  result.syscalls_per_frame =
      load_msgs > 0 ? static_cast<double>(load_syscalls) /
                          static_cast<double>(load_msgs)
                    : 0.0;

  // Drain the load phase's backlog before timing polls, so settle latency
  // measures the poll, not the queue: until every heartbeat is acked, a
  // PollResponse would sit behind unread heartbeats in its connection.
  {
    const double drain_t0 = steady_ms();
    const auto workers_started = static_cast<int>(workers.size());
    while (shared.workers_drained.load(std::memory_order_acquire) <
               workers_started &&
           steady_ms() - drain_t0 < kBacklogDrainMs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    result.backlog_drain_ms = steady_ms() - drain_t0;
    result.backlog_drained = shared.workers_drained.load() == workers_started;
    if (!result.backlog_drained) {
      std::fprintf(stderr,
                   "bench net: N=%zu: load backlog not drained after %.0f "
                   "ms (%d of %d workers drained)\n",
                   connections, result.backlog_drain_ms,
                   shared.workers_drained.load(), workers_started);
    }
  }

  // Phase 3: global polls. One violation per round; the whole fleet
  // answers; settle latency comes from the coordinator's own accounting.
  // Skipped when the backlog never drained: those polls would time the
  // queue, and the run already fails.
  for (int round = 0; result.backlog_drained && round < cfg.polls; ++round) {
    const auto settled_before = coordinator.poll_settle_ms().size();
    shared.violations_requested.fetch_add(1, std::memory_order_relaxed);
    const auto deadline = steady_ms() + 8000.0;
    while (coordinator.poll_settle_ms().size() == settled_before &&
           steady_ms() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const auto settles = coordinator.poll_settle_ms();
  result.settle_p50_ms = percentile(settles, 50.0);
  result.settle_p99_ms = percentile(settles, 99.0);
  result.polls_settled = settles.size();
  if (settles.size() < static_cast<std::size_t>(cfg.polls)) {
    std::fprintf(stderr, "bench net: only %zu/%d polls settled (N=%zu)\n",
                 settles.size(), cfg.polls, connections);
  }

  shared.phase.store(kPhaseExit, std::memory_order_release);
  for (auto& w : workers) w.join();
  const auto broken = shared.broken_connections.load();
  const auto unsent = shared.unsent_connections.load();
  if (broken > 0 || unsent > 0) {
    std::fprintf(stderr,
                 "bench net: N=%zu: %lld connections broken, %lld still "
                 "holding unsent frames\n",
                 connections, static_cast<long long>(broken),
                 static_cast<long long>(unsent));
  }
  coordinator.request_stop();
  coord_thread.join();
  return result;
}

struct SizeRow {
  std::size_t connections{0};
  ModeResult reactor;
  bool identity_ok{true};  // the reactor settled every scripted poll
  bool backlog_ok{true};   // the load backlog drained in time
};

void write_json(const std::vector<SizeRow>& rows, bool quick) {
  std::FILE* f = std::fopen("BENCH_net.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench net: cannot write BENCH_net.json\n");
    return;
  }
  std::fprintf(f,
               "{\"bench\":\"net\",\"quick\":%s,\"cores\":%u,\"sizes\":[",
               quick ? "true" : "false", std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SizeRow& row = rows[i];
    const ModeResult& m = row.reactor;
    std::fprintf(f,
                 "%s{\"connections\":%zu,"
                 "\"reactor\":{\"idle_wakeups_per_sec\":%.3f,"
                 "\"idle_cpu_ms\":%.3f,\"load_msgs_per_sec\":%.1f,"
                 "\"load_cpu_ms\":%.3f,\"settle_p50_ms\":%.3f,"
                 "\"settle_p99_ms\":%.3f,\"syscalls_per_frame\":%.3f,"
                 "\"backlog_drain_ms\":%.1f}",
                 i == 0 ? "" : ",", row.connections, m.idle_wakeups_per_sec,
                 m.idle_cpu_ms, m.load_msgs_per_sec, m.load_cpu_ms,
                 m.settle_p50_ms, m.settle_p99_ms, m.syscalls_per_frame,
                 m.backlog_drain_ms);
    std::fprintf(f, ",\"backlog_ok\":%s,\"identity_ok\":%s}",
                 row.backlog_ok ? "true" : "false",
                 row.identity_ok ? "true" : "false");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

int bench_main() {
  const bool quick = bench::quick();
  BenchConfig cfg;
  if (quick) {
    cfg.sizes = {64, 128};
    cfg.idle_ms = 300;
    cfg.load_ms = 400;
    cfg.polls = 2;
  } else {
    cfg.sizes = {250, 1000, 4000};
  }

  // Each fleet size needs ~2N fds in this process (client + server side of
  // every loopback connection). Raise the soft limit to the hard limit and
  // skip sizes that still don't fit.
  rlimit nofile{};
  if (getrlimit(RLIMIT_NOFILE, &nofile) == 0) {
    nofile.rlim_cur = nofile.rlim_max;
    setrlimit(RLIMIT_NOFILE, &nofile);
    getrlimit(RLIMIT_NOFILE, &nofile);
  }

  bench::print_header("bench net scale: epoll reactor",
                      "DESIGN.md §12 — event-driven I/O at fleet scale");
  bench::print_row({"connections", "idle wps", "idle cpu", "msgs/sec",
                    "sys/frame", "drain ms", "p50 ms", "p99 ms",
                    "identity"});

  std::vector<SizeRow> rows;
  for (const std::size_t n : cfg.sizes) {
    if (2 * n + 64 > nofile.rlim_cur) {
      std::fprintf(stderr,
                   "bench net: skipping N=%zu (RLIMIT_NOFILE=%llu)\n", n,
                   static_cast<unsigned long long>(nofile.rlim_cur));
      continue;
    }
    SizeRow row;
    row.connections = n;
    const auto reactor = run_mode(n, cfg);
    if (!reactor) {
      std::fprintf(stderr, "bench net: N=%zu setup failed, skipping\n", n);
      continue;
    }
    row.reactor = *reactor;
    row.backlog_ok = reactor->backlog_drained;
    row.identity_ok =
        row.reactor.polls_settled >= static_cast<std::size_t>(cfg.polls);
    if (!row.identity_ok) {
      std::fprintf(stderr,
                   "bench net: IDENTITY MISMATCH at N=%zu — reactor settled "
                   "%zu of %d scripted polls\n",
                   n, row.reactor.polls_settled, cfg.polls);
    }
    const ModeResult& m = row.reactor;
    bench::print_row({std::to_string(n), bench::fmt(m.idle_wakeups_per_sec, 1),
                      bench::fmt(m.idle_cpu_ms, 1),
                      bench::fmt(m.load_msgs_per_sec, 0),
                      bench::fmt(m.syscalls_per_frame, 3),
                      bench::fmt(m.backlog_drain_ms, 0),
                      bench::fmt(m.settle_p50_ms, 2),
                      bench::fmt(m.settle_p99_ms, 2),
                      row.identity_ok ? "ok" : "MISMATCH"});
    rows.push_back(row);
  }

  write_json(rows, quick);
  std::printf("\n-> BENCH_net.json (%zu sizes)\n", rows.size());
  bool identity_all = true;
  for (const SizeRow& row : rows) {
    identity_all &= row.identity_ok;
    if (!row.backlog_ok) {
      std::fprintf(stderr,
                   "bench net: N=%zu: the load backlog never drained\n",
                   row.connections);
      identity_all = false;
    }
  }
  if (!identity_all) return 1;
  return rows.empty() ? 1 : 0;
}

}  // namespace
}  // namespace volley

int main() { return volley::bench_main(); }
