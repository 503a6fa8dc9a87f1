// A fault-injecting TCP proxy for the Volley wire runtime.
//
// The proxy sits between monitors and a coordinator: monitors connect to
// the proxy's listen port, the proxy opens a matching upstream connection
// to the real coordinator, and every byte flows through it. Because the
// Volley protocol is length-framed (net/framing.h), the proxy reassembles
// complete frames, decodes their type, and injects faults from a *seeded*
// sim::NetFaultPlan — the net-runtime twin of the simulator's FaultPlan:
//
//  * frame drops by type  — LocalViolation frames with
//    violation_report_loss, PollResponse frames with poll_response_loss
//    (identical Bernoulli semantics to sim/faults.cpp), Heartbeat/Ack
//    frames with heartbeat_loss;
//  * delays               — a surviving frame is held delay_ms before
//    forwarding (reordering across links, never within one: queues are
//    FIFO, so TCP's in-order contract per connection is preserved);
//  * partial writes       — a frame is forwarded in two chunks a few
//    milliseconds apart, exercising the receiver's incremental FrameReader;
//  * mid-stream disconnects — after disconnect_after_frames forwarded
//    frames a link is cut on both sides (bounded by max_disconnects),
//    which is what a monitor crash or network partition looks like to the
//    nodes; the reconnecting monitor simply dials the proxy again.
//
// Determinism: all randomness comes from Rng(plan.message_loss.seed) in
// frame-arrival order, so a given message sequence sees the same faults.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/framing.h"
#include "net/reactor.h"
#include "net/socket.h"
#include "sim/faults.h"

namespace volley::net {

struct ChaosProxyOptions {
  std::uint16_t listen_port{0};  // 0 = pick a free port; read via port()
  std::string upstream_host{"127.0.0.1"};
  std::uint16_t upstream_port{0};
  int upstream_connect_timeout_ms{1000};
  NetFaultPlan plan;
};

/// Injection accounting, readable after run() returns.
struct ChaosStats {
  std::int64_t connections{0};
  std::int64_t forwarded_frames{0};
  std::int64_t dropped_violations{0};
  std::int64_t dropped_responses{0};
  std::int64_t dropped_heartbeats{0};
  std::int64_t delayed_frames{0};
  std::int64_t partial_writes{0};
  std::int64_t disconnects{0};
};

class ChaosProxy {
 public:
  explicit ChaosProxy(const ChaosProxyOptions& options);

  std::uint16_t port() const { return listener_.port(); }

  /// Blocking event loop; returns after request_stop(). Run it on its own
  /// thread next to the nodes under test.
  void run();
  void request_stop() {
    stop_.store(true);
    reactor_.wakeup();  // a sleeping reactor loop re-checks stop_ now
  }

  const ChaosStats& stats() const { return stats_; }

  /// Event-loop turns so far, readable while run() is in flight. An idle
  /// proxy performs zero wakeups between deadlines — asserted by the
  /// NetFaults idle-proxy regression test.
  std::int64_t loop_wakeups() const {
    return loop_wakeups_.load(std::memory_order_relaxed);
  }

 private:
  struct QueuedFrame {
    std::vector<std::byte> bytes;  // framed (length prefix included)
    std::int64_t due_ms{0};
    std::size_t offset{0};  // > 0 while a partial write is in flight
    bool partial{false};
  };

  struct Link {  // one proxied monitor <-> coordinator connection
    TcpConnection client;    // monitor side
    TcpConnection upstream;  // coordinator side
    FrameReader client_reader;
    FrameReader upstream_reader;
    std::deque<QueuedFrame> to_upstream;
    std::deque<QueuedFrame> to_client;
    std::int64_t frames{0};
    bool closed{false};
    // One timer per link, armed at the earliest queued frame's due time
    // (FIFO — only queue fronts can become actionable).
    Reactor::TimerId timer{0};
    bool timer_armed{false};
    std::int64_t timer_due{0};
  };

  void on_accept();
  void on_link(Link& link, bool from_client, std::uint32_t events);
  void schedule_link_timer(Link& link);

  void ingest(Link& link, bool from_client, std::span<const std::byte> data,
              std::int64_t now);
  /// Applies the plan to one complete frame; queues it unless dropped.
  void admit_frame(Link& link, bool from_client,
                   std::vector<std::byte> payload, std::int64_t now);
  void flush(Link& link, std::int64_t now);
  void cut(Link& link);

  ChaosProxyOptions options_;
  TcpListener listener_;
  Rng rng_;
  std::vector<std::unique_ptr<Link>> links_;
  Reactor reactor_;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> loop_wakeups_{0};
  ChaosStats stats_;
};

}  // namespace volley::net
