#include "net/chaos_proxy.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "common/log.h"
#include "net/messages.h"

namespace volley::net {

namespace {
constexpr int kPartialWriteGapMs = 3;
}  // namespace

ChaosProxy::ChaosProxy(const ChaosProxyOptions& options)
    : options_(options),
      listener_(options.listen_port),
      rng_(options.plan.message_loss.seed) {
  options_.plan.validate();
  if (options_.upstream_port == 0)
    throw std::invalid_argument("ChaosProxy: upstream_port required");
  listener_.set_nonblocking(true);
}

void ChaosProxy::cut(Link& link) {
  if (link.closed) return;
  if (link.client.valid()) reactor_.remove_fd(link.client.fd());
  if (link.upstream.valid()) reactor_.remove_fd(link.upstream.fd());
  if (link.timer_armed) {
    reactor_.cancel_timer(link.timer);
    link.timer_armed = false;
  }
  link.client.close();
  link.upstream.close();
  link.closed = true;
}

void ChaosProxy::admit_frame(Link& link, bool from_client,
                             std::vector<std::byte> payload,
                             std::int64_t now) {
  const NetFaultPlan& plan = options_.plan;
  // Frame-type-targeted drops: the simulator's message-loss semantics
  // applied on the wire.
  const auto message = decode(payload);
  if (message) {
    if (std::holds_alternative<LocalViolation>(*message) &&
        rng_.bernoulli(plan.message_loss.violation_report_loss)) {
      ++stats_.dropped_violations;
      return;
    }
    if (std::holds_alternative<PollResponse>(*message) &&
        rng_.bernoulli(plan.message_loss.poll_response_loss)) {
      ++stats_.dropped_responses;
      return;
    }
    if ((std::holds_alternative<Heartbeat>(*message) ||
         std::holds_alternative<HeartbeatAck>(*message)) &&
        rng_.bernoulli(plan.heartbeat_loss)) {
      ++stats_.dropped_heartbeats;
      return;
    }
  }

  QueuedFrame frame;
  frame.bytes = frame_payload(payload);
  frame.due_ms = now;
  if (plan.delay_prob > 0.0 && rng_.bernoulli(plan.delay_prob)) {
    frame.due_ms = now + plan.delay_ms;
    ++stats_.delayed_frames;
  }
  if (plan.partial_write_prob > 0.0 &&
      rng_.bernoulli(plan.partial_write_prob) && frame.bytes.size() > 1) {
    frame.partial = true;
    ++stats_.partial_writes;
  }
  (from_client ? link.to_upstream : link.to_client)
      .push_back(std::move(frame));

  ++link.frames;
  ++stats_.forwarded_frames;
  if (options_.plan.disconnect_after_frames > 0 &&
      link.frames >= options_.plan.disconnect_after_frames &&
      stats_.disconnects < options_.plan.max_disconnects) {
    ++stats_.disconnects;
    VLOG_WARN("chaos", "cutting proxied connection after ", link.frames,
              " frames");
    cut(link);
  }
}

void ChaosProxy::ingest(Link& link, bool from_client,
                        std::span<const std::byte> data, std::int64_t now) {
  FrameReader& reader =
      from_client ? link.client_reader : link.upstream_reader;
  reader.feed(data);
  while (auto payload = reader.next()) {
    admit_frame(link, from_client, std::move(*payload), now);
    if (link.closed) return;
  }
  if (reader.corrupt()) {
    // Peer loss, like a hang-up: flush what is queued, then cut both sides.
    flush(link, now + (1 << 20));
    cut(link);
  }
}

void ChaosProxy::flush(Link& link, std::int64_t now) {
  const auto flush_direction = [&](std::deque<QueuedFrame>& queue,
                                   TcpConnection& out) {
    while (!queue.empty() && !link.closed) {
      QueuedFrame& frame = queue.front();
      if (frame.due_ms > now) break;  // FIFO: later frames wait behind it
      if (frame.partial && frame.offset == 0) {
        // First half now, the rest a few milliseconds later.
        const std::size_t half = frame.bytes.size() / 2;
        if (!out.send_all(std::span<const std::byte>(frame.bytes.data(),
                                                     half))) {
          cut(link);
          return;
        }
        frame.offset = half;
        frame.partial = false;
        frame.due_ms = now + kPartialWriteGapMs;
        break;
      }
      if (!out.send_all(std::span<const std::byte>(
              frame.bytes.data() + frame.offset,
              frame.bytes.size() - frame.offset))) {
        cut(link);
        return;
      }
      queue.pop_front();
    }
  };
  flush_direction(link.to_upstream, link.upstream);
  flush_direction(link.to_client, link.client);
}

// An idle proxy (no queued frames) sleeps in the reactor with no timers
// armed — zero wakeups until a byte arrives — and a held (delayed or split)
// frame arms one timer at exactly its due time.
//
// One loop for every link: they share one fault-injection RNG, so the
// drop/delay/split decisions follow one order — the determinism the fault
// suites replay against.
void ChaosProxy::run() {
  reactor_.add_fd(listener_.fd(), [this](std::uint32_t) { on_accept(); });
  while (!stop_.load()) {
    reactor_.run_once(-1);
    loop_wakeups_.fetch_add(1, std::memory_order_relaxed);
    // Closed links had their fds and timer deregistered in cut(); their
    // storage is only reclaimed here, between dispatch batches.
    std::erase_if(links_,
                  [](const std::unique_ptr<Link>& l) { return l->closed; });
  }
  reactor_.remove_fd(listener_.fd());
  for (auto& link : links_) cut(*link);
}

void ChaosProxy::on_accept() {
  while (auto client = listener_.accept()) {
    auto upstream = TcpConnection::try_connect(
        options_.upstream_host, options_.upstream_port,
        options_.upstream_connect_timeout_ms);
    if (!upstream) {
      VLOG_WARN("chaos", "upstream refused; dropping client");
      continue;
    }
    client->set_nonblocking(true);
    upstream->set_nonblocking(true);
    auto link = std::make_unique<Link>();
    link->client = std::move(*client);
    link->upstream = std::move(*upstream);
    Link* raw = link.get();
    // Raw captures are safe: cut() deregisters both fds and the timer
    // before the link can be garbage-collected.
    reactor_.add_fd(raw->client.fd(), [this, raw](std::uint32_t ev) {
      on_link(*raw, /*from_client=*/true, ev);
    });
    reactor_.add_fd(raw->upstream.fd(), [this, raw](std::uint32_t ev) {
      on_link(*raw, /*from_client=*/false, ev);
    });
    links_.push_back(std::move(link));
    ++stats_.connections;
  }
}

void ChaosProxy::on_link(Link& link, bool from_client,
                                 std::uint32_t events) {
  if (link.closed || !Reactor::readable(events)) return;
  std::array<std::byte, 8192> buf;
  TcpConnection& in = from_client ? link.client : link.upstream;
  while (!link.closed) {
    const auto n = in.recv_some(buf);
    if (!n) break;  // EAGAIN
    const std::int64_t now = Reactor::now_ms();
    if (*n == 0) {
      // One side hung up: flush what is queued, then mirror the close.
      flush(link, now + (1 << 20));
      cut(link);
      return;
    }
    ingest(link, from_client, std::span<const std::byte>(buf.data(), *n),
           now);
    // Short read: the socket is empty for now, and level-triggered
    // readiness reports later bytes (or EOF) on the next turn.
    if (*n < buf.size()) break;
  }
  if (!link.closed) {
    flush(link, Reactor::now_ms());
    schedule_link_timer(link);
  }
}

void ChaosProxy::schedule_link_timer(Link& link) {
  std::optional<std::int64_t> due;
  if (!link.to_upstream.empty()) due = link.to_upstream.front().due_ms;
  if (!link.to_client.empty()) {
    const std::int64_t d = link.to_client.front().due_ms;
    if (!due || d < *due) due = d;
  }
  if (!due || link.closed) {
    if (link.timer_armed) {
      reactor_.cancel_timer(link.timer);
      link.timer_armed = false;
    }
    return;
  }
  // An armed earlier-or-equal deadline only fires early; the callback
  // re-evaluates and re-arms, so keep it.
  if (link.timer_armed && link.timer_due <= *due) return;
  if (link.timer_armed) reactor_.cancel_timer(link.timer);
  Link* raw = &link;
  const std::int64_t delay =
      std::max<std::int64_t>(*due - Reactor::now_ms(), 0) + 1;
  link.timer = reactor_.add_timer(delay, [this, raw] {
    raw->timer_armed = false;
    if (raw->closed) return;
    flush(*raw, Reactor::now_ms());
    schedule_link_timer(*raw);
  });
  link.timer_armed = true;
  link.timer_due = *due;
}

}  // namespace volley::net
