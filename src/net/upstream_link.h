// The one client leg of the wire protocol: a node's session to the
// coordinator above it — a monitor's to its coordinator, an aggregator's to
// its root (DESIGN.md §6, §13) — driven entirely by the caller's Reactor.
//
//  * Connect: non-blocking, bounded by a connect_timeout_ms timer, so an
//    attempt never blocks the loop — a monitor keeps its tick cadence and
//    an aggregator keeps serving its shard while a SYN sits in a full
//    accept queue.
//  * Handshake: every session opens with the caller's hello frame (Hello
//    or ShardHello), with resume = true once a session has been up before.
//  * Reconnect: a lost session (EOF, send error, corrupt stream, or
//    coordinator_timeout_ms of inbound silence) retries at once; each
//    failed attempt then backs off (capped doubling, ±25 % jitter seeded
//    per node) from the moment it failed, and max_reconnect_attempts
//    consecutive failures give the link up for good.
//  * Liveness: a Heartbeat every heartbeat_interval_ms; the coordinator's
//    acks keep a healthy link from ever going silent.
//  * I/O: FrameReader ingress, each decoded frame handed to the caller;
//    FrameWriter egress that arms EPOLLOUT on EAGAIN instead of spinning.
//
// Everything, the handlers included, runs on the reactor's thread.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.h"
#include "net/framing.h"
#include "net/messages.h"
#include "net/reactor.h"
#include "net/socket.h"

namespace volley::net {

struct UpstreamLinkOptions {
  std::uint32_t id{0};  // Heartbeat sender and trace-event monitor id
  std::string host{"127.0.0.1"};
  std::uint16_t port{0};
  int heartbeat_interval_ms{500};
  int coordinator_timeout_ms{2500};
  int connect_timeout_ms{1000};
  int reconnect_backoff_ms{50};
  int reconnect_backoff_max_ms{1000};
  int max_reconnect_attempts{60};
  std::uint64_t jitter_seed{0};
  const char* log_component{"monitor"};
};

/// The link knobs of a node's options: MonitorNodeOptions and
/// AggregatorNodeOptions name them alike.
template <typename NodeOptions>
UpstreamLinkOptions upstream_link_options(const NodeOptions& o,
                                          std::uint32_t id,
                                          std::uint64_t jitter_seed,
                                          const char* log_component) {
  return UpstreamLinkOptions{id,
                             o.coordinator_host,
                             o.coordinator_port,
                             o.heartbeat_interval_ms,
                             o.coordinator_timeout_ms,
                             o.connect_timeout_ms,
                             o.reconnect_backoff_ms,
                             o.reconnect_backoff_max_ms,
                             o.max_reconnect_attempts,
                             jitter_seed,
                             log_component};
}

class UpstreamLink {
 public:
  /// The frame that opens a session.
  using HelloFactory = std::function<Message(bool resume)>;
  /// Every decoded inbound frame; it may call send() and close().
  using FrameHandler = std::function<void(const Message&)>;

  /// `reactor` must outlive the link.
  UpstreamLink(Reactor& reactor, UpstreamLinkOptions options,
               HelloFactory hello, FrameHandler on_frame);
  ~UpstreamLink() { close(); }

  /// Starts the first connect attempt.
  void start() { attempt(); }

  /// Queues one frame and flushes what the kernel takes now. False when no
  /// session is up (the frame is dropped) or the send lost the session.
  bool send(const Message& message);

  /// Ends the link for good: no reconnect, no timers, socket closed.
  void close();

  bool connected() const { return state_ == State::kConnected; }
  bool connecting() const { return state_ == State::kConnecting; }
  /// True once reconnection was abandoned after max_reconnect_attempts.
  bool lost() const { return lost_; }
  /// Sessions resumed after a lost one.
  std::int64_t reconnects() const { return reconnects_; }

 private:
  enum class State { kIdle, kConnecting, kConnected, kClosed };

  void attempt();
  void on_connected();
  void fail_attempt();
  /// An established session died: log `why`, retry at once.
  void drop(const char* why);
  void on_io(std::uint32_t events);
  void flush();
  void heartbeat();
  void arm_silence_check();
  /// Closes the socket and cancels every timer but the retry timer.
  void teardown();
  void cancel(Reactor::TimerId& timer);

  Reactor& reactor_;
  UpstreamLinkOptions options_;
  HelloFactory hello_;
  FrameHandler on_frame_;

  State state_{State::kIdle};
  TcpConnection conn_;
  FrameReader reader_;
  FrameWriter writer_;
  bool write_armed_{false};
  /// Bumped by every teardown, so a frame handler that dropped or closed
  /// the session stops the dispatch of frames read from it.
  std::uint64_t generation_{0};

  bool ever_connected_{false};
  bool lost_{false};
  int failed_attempts_{0};
  int backoff_ms_{0};
  std::int64_t reconnects_{0};
  std::int64_t last_rx_ms_{0};
  std::uint64_t heartbeat_seq_{0};
  Reactor::TimerId connect_timer_{0};
  Reactor::TimerId retry_timer_{0};
  Reactor::TimerId heartbeat_timer_{0};
  Reactor::TimerId silence_timer_{0};
  Rng jitter_rng_;
};

}  // namespace volley::net
