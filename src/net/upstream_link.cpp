#include "net/upstream_link.h"

#include <algorithm>
#include <array>
#include <span>
#include <system_error>
#include <utility>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"

namespace volley::net {

namespace {
struct LinkMetrics {
  obs::CounterCell* reconnect_attempts;
  obs::CounterCell* reconnects;

  static LinkMetrics make(obs::MetricsRegistry& m) {
    return LinkMetrics{
        &m.counter("volley_net_reconnect_attempts_total",
                   "Coordinator reconnect attempts (successes and failures)")
             .cell(),
        &m.counter("volley_net_reconnects_total",
                   "Successful session resumes (Hello{resume} accepted)")
             .cell(),
    };
  }

  static const LinkMetrics& get() { return obs::scoped_handles(&make); }
};
}  // namespace

UpstreamLink::UpstreamLink(Reactor& reactor, UpstreamLinkOptions options,
                           HelloFactory hello, FrameHandler on_frame)
    : reactor_(reactor),
      options_(std::move(options)),
      hello_(std::move(hello)),
      on_frame_(std::move(on_frame)),
      backoff_ms_(options_.reconnect_backoff_ms),
      jitter_rng_(options_.jitter_seed) {}

void UpstreamLink::cancel(Reactor::TimerId& timer) {
  if (timer != 0) reactor_.cancel_timer(timer);
  timer = 0;
}

void UpstreamLink::attempt() {
  retry_timer_ = 0;
  if (state_ == State::kClosed) return;
  if (ever_connected_ || failed_attempts_ > 0)
    LinkMetrics::get().reconnect_attempts->inc();
  bool in_progress = false;
  try {
    conn_ = TcpConnection::start_connect(options_.host, options_.port,
                                         in_progress);
  } catch (const std::system_error&) {
    fail_attempt();  // refused at once
    return;
  }
  state_ = State::kConnecting;
  if (!in_progress) {
    on_connected();
    return;
  }
  reactor_.add_fd(conn_.fd(), [this](std::uint32_t ev) { on_io(ev); },
                  /*want_write=*/true);
  connect_timer_ = reactor_.add_timer(options_.connect_timeout_ms, [this] {
    connect_timer_ = 0;
    fail_attempt();
  });
}

void UpstreamLink::on_connected() {
  cancel(connect_timer_);
  reactor_.add_fd(conn_.fd(), [this](std::uint32_t ev) { on_io(ev); });
  state_ = State::kConnected;
  failed_attempts_ = 0;
  backoff_ms_ = options_.reconnect_backoff_ms;
  last_rx_ms_ = Reactor::now_ms();
  const bool resume = ever_connected_;
  if (resume) {
    ++reconnects_;
    LinkMetrics::get().reconnects->inc();
    VLOG_INFO(options_.log_component, "reconnected to coordinator (resume)");
  }
  ever_connected_ = true;
  if (!send(hello_(resume))) return;
  heartbeat();
  arm_silence_check();
}

void UpstreamLink::fail_attempt() {
  teardown();
  state_ = State::kIdle;
  if (++failed_attempts_ >= options_.max_reconnect_attempts) {
    VLOG_ERROR(options_.log_component, "giving up on coordinator after ",
               failed_attempts_, " attempts; running without it to the end");
    lost_ = true;
    return;
  }
  // Timed from now, the end of the failed attempt: an attempt that waited
  // out connect_timeout_ms still leaves the full backoff before the next.
  // The jitter keeps a fleet from reconnecting in lockstep after a restart.
  const auto delay = static_cast<std::int64_t>(
      backoff_ms_ * jitter_rng_.uniform(0.75, 1.25));
  obs::trace().record(obs::TraceKind::kReconnectAttempt, 0, options_.id,
                      static_cast<double>(failed_attempts_),
                      static_cast<double>(delay));
  backoff_ms_ = std::min(backoff_ms_ * 2, options_.reconnect_backoff_max_ms);
  retry_timer_ = reactor_.add_timer(delay, [this] { attempt(); });
}

void UpstreamLink::drop(const char* why) {
  VLOG_WARN(options_.log_component, "lost coordinator link (", why,
            "); reconnecting");
  teardown();
  state_ = State::kIdle;
  // First retry at once, on a later loop turn: never re-register an fd
  // number mid-dispatch of the batch that reported the old one.
  retry_timer_ = reactor_.add_timer(0, [this] { attempt(); });
}

void UpstreamLink::close() {
  teardown();
  cancel(retry_timer_);
  state_ = State::kClosed;
}

void UpstreamLink::teardown() {
  if (conn_.valid()) reactor_.remove_fd(conn_.fd());
  conn_.close();
  reader_ = FrameReader{};
  writer_.clear();
  write_armed_ = false;
  ++generation_;
  cancel(connect_timer_);
  cancel(heartbeat_timer_);
  cancel(silence_timer_);
}

bool UpstreamLink::send(const Message& message) {
  if (state_ != State::kConnected) return false;
  writer_.enqueue(frame_payload(encode(message)));
  flush();
  return state_ == State::kConnected;
}

void UpstreamLink::flush() {
  switch (writer_.flush(conn_.fd())) {
    case FrameWriter::FlushResult::kDrained:
      if (write_armed_) reactor_.set_want_write(conn_.fd(), false);
      write_armed_ = false;
      break;
    case FrameWriter::FlushResult::kBlocked:
      if (!write_armed_) reactor_.set_want_write(conn_.fd(), true);
      write_armed_ = true;
      break;
    case FrameWriter::FlushResult::kPeerGone:
      drop("send failed");
      break;
  }
}

void UpstreamLink::heartbeat() {
  heartbeat_timer_ = 0;
  if (!send(Heartbeat{options_.id, ++heartbeat_seq_})) return;
  heartbeat_timer_ = reactor_.add_timer(options_.heartbeat_interval_ms,
                                        [this] { heartbeat(); });
}

void UpstreamLink::arm_silence_check() {
  // One timer chasing the silence deadline: traffic moves last_rx_ms_, and
  // a timer that finds it moved re-arms at the new deadline.
  const std::int64_t due = last_rx_ms_ + options_.coordinator_timeout_ms;
  silence_timer_ = reactor_.add_timer(
      std::max<std::int64_t>(due - Reactor::now_ms(), 0) + 1, [this] {
        silence_timer_ = 0;
        if (Reactor::now_ms() - last_rx_ms_ > options_.coordinator_timeout_ms) {
          drop("coordinator silent for too long");
        } else {
          arm_silence_check();
        }
      });
}

void UpstreamLink::on_io(std::uint32_t events) {
  if (state_ == State::kConnecting) {
    if (!Reactor::writable(events) && !Reactor::hangup(events)) return;
    if (conn_.connect_error() != 0) {
      fail_attempt();
    } else {
      on_connected();
    }
    return;
  }
  if (state_ != State::kConnected) return;
  if (Reactor::writable(events)) {
    flush();
    if (state_ != State::kConnected) return;
  }
  if (!Reactor::readable(events)) return;
  std::array<std::byte, 8192> buf;
  bool peer_closed = false;
  for (;;) {
    const auto n = conn_.recv_some(buf);
    if (!n) break;  // EAGAIN
    if (*n == 0) {  // frames already received still count
      peer_closed = true;
      break;
    }
    last_rx_ms_ = Reactor::now_ms();
    reader_.feed(std::span<const std::byte>(buf.data(), *n));
    // Short read: the socket is empty for now, and level-triggered
    // readiness reports later bytes (or EOF) on the next turn.
    if (*n < buf.size()) break;
  }
  const std::uint64_t generation = generation_;
  while (auto payload = reader_.next()) {
    const auto message = decode(*payload);
    if (!message) {
      VLOG_WARN(options_.log_component, "dropping malformed frame");
      continue;
    }
    on_frame_(*message);
    if (generation != generation_) return;  // the handler ended the session
  }
  if (peer_closed) {
    drop("coordinator closed the connection");
  } else if (reader_.corrupt()) {
    drop("corrupt stream");
  }
}

}  // namespace volley::net
