// The middle tier of a two-level Volley fleet (DESIGN.md §13): one
// AggregatorNode owns a shard of the monitor fleet and speaks both sides of
// the wire protocol.
//
//   monitors  --Hello-->  [embedded CoordinatorNode]   (downstream)
//   aggregator --ShardHello--> root coordinator        (upstream link)
//
// Downstream, the node embeds a full CoordinatorNode: the shard's monitors
// connect to it and it runs the complete single-tier protocol over the
// subset — adaptive sampling, local violations, subset polls against the
// shard's threshold slice T_s, and AIMD allowance reallocation within the
// shard's budget err_s. Nothing about a monitor changes when it reports to
// an aggregator instead of a root coordinator (the topology is invisible
// one level down).
//
// Upstream, the node is a super-monitor of weight n_s, speaking through
// the same UpstreamLink a MonitorNode uses (net/upstream_link.h):
//  * ShardHello{shard, monitors} announces the shard and its weight; the
//    root slices threshold and budget by weight (T·w/W, err·w/W).
//  * A downstream alert (subset aggregate > T_s) escalates as
//    LocalViolation{monitor = shard}; the root then polls every shard.
//  * PollRequest is answered from the downstream coordinator's latest
//    settled subset aggregate — cached-value semantics, the net tier's
//    analogue of the stale-value fallback (a quiet shard's last sum stands
//    in; the sim tier force-samples instead, see shard/sharded_coordinator).
//  * Once per summary interval, every live task's accumulated coordination
//    stats compress into a ShardSummary{r, e, yield, allowance_used} frame —
//    the root feeds (r, e) to the identical allocation algorithm it would
//    run over raw monitors.
//  * ShardAllowance (the root's budget push) goes straight into the
//    embedded coordinator's control path, rescaling the shard's live
//    allowance split in place — no sampler restarts.
//  * Task control fans through: TaskAttach/TaskDetach from the root replay
//    as AddTask/UpdateTask/RemoveTask against the embedded registry, gated
//    by the root's epochs so replays and stale pushes are no-ops.
//
// One thread, one loop: the link lives on the embedded coordinator's
// reactor and calls the coordinator in-process. Resilience is the link's:
// heartbeats, capped-backoff reconnect with ShardHello{resume}, and a root
// loss leaves the shard running standalone (monitors keep their subset
// guarantees) to completion.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "net/coordinator_node.h"
#include "net/messages.h"
#include "net/upstream_link.h"

namespace volley::net {

struct AggregatorNodeOptions {
  /// The shard's id in the root's monitor-id space.
  std::uint32_t shard_id{0};
  std::string coordinator_host{"127.0.0.1"};
  std::uint16_t coordinator_port{0};  // upstream root
  /// Downstream listener for the shard's monitors (0 = pick a free port;
  /// read back via port()).
  std::uint16_t listen_port{0};
  /// Downstream monitor count — the shard's weight upstream.
  std::size_t monitors{1};
  /// Boot task slices: T_s (the shard's threshold slice, what the subset's
  /// local thresholds sum to) and err_s (the shard's error budget).
  double global_threshold{0.0};
  double error_allowance{0.01};
  bool adaptive_allocation{true};
  // Downstream coordinator knobs (see CoordinatorNodeOptions).
  int poll_timeout_ms{1000};
  int idle_timeout_ms{30000};
  int heartbeat_timeout_ms{2000};
  int staleness_bound_ms{6000};
  std::string registry_path{};
  // Upstream client knobs (see MonitorNodeOptions).
  int heartbeat_interval_ms{500};
  int summary_interval_ms{500};
  int coordinator_timeout_ms{2500};
  int connect_timeout_ms{1000};
  int reconnect_backoff_ms{50};
  int reconnect_backoff_max_ms{1000};
  int max_reconnect_attempts{60};
  int shutdown_grace_ms{2000};
};

class AggregatorNode {
 public:
  explicit AggregatorNode(const AggregatorNodeOptions& options);

  /// The downstream listener port monitors connect to.
  std::uint16_t port() const { return downstream_->port(); }

  /// Blocking: runs the shard until its monitors finish, then reports the
  /// shard's Bye upstream and waits for the root's Shutdown (or the
  /// shutdown grace / a lost root).
  void run();

  /// Asks a running node to stop: the embedded coordinator drops its
  /// sessions (a crash, as CoordinatorNode::request_stop) and the node
  /// exits without a Bye. Safe from any thread.
  void request_stop();

  // Results, valid after run() returns.
  const CoordinatorNode& downstream() const { return *downstream_; }
  std::int64_t escalations() const { return escalations_; }
  std::int64_t summaries_sent() const { return summaries_sent_; }
  std::int64_t reconnects() const { return link_.reconnects(); }
  bool coordinator_lost() const { return link_.lost(); }

 private:
  /// A settled subset poll above T_s: the shard's local violation one
  /// level up.
  void escalate(TaskId task, Tick tick, double value);
  /// Sends every live task's ShardSummary, then re-arms for the next
  /// summary interval.
  void send_summaries();
  void on_frame(const Message& message);
  void apply_attach(const TaskAttach& attach);
  void apply_detach(const TaskDetach& detach);

  AggregatorNodeOptions options_;
  std::unique_ptr<CoordinatorNode> downstream_;
  UpstreamLink link_;  // on downstream_'s reactor
  std::atomic<bool> stop_{false};
  bool shutdown_received_{false};

  /// The root's epoch per task id (tombstones included), gating the
  /// attach/detach fan-through exactly like MonitorNode::known_epochs_.
  std::map<TaskId, std::uint64_t> upstream_epochs_;
  std::set<TaskId> downstream_tasks_;  // live in the embedded registry

  std::int64_t escalations_{0};
  std::int64_t summaries_sent_{0};
};

}  // namespace volley::net
