// Volley wire protocol messages (Figure 3's arrows, serialized).
//
//   monitor -> coordinator:  Hello, LocalViolation, PollResponse, StatsReport,
//                            Heartbeat, Bye
//   coordinator -> monitor:  PollRequest, AllowanceUpdate, HeartbeatAck,
//                            Shutdown
//   any client <-> coordinator:  StatsRequest / StatsReply (introspection:
//                            a client — e.g. tools/volley_stats — connects,
//                            sends StatsRequest *instead of* Hello, gets one
//                            StatsReply carrying the coordinator's metrics
//                            snapshot and optional trace export, and is
//                            disconnected; it never counts as a monitor)
//   control client <-> coordinator:  AddTask / RemoveTask / UpdateTask /
//                            ListTasks, answered by ControlReply (mutations)
//                            or TaskListReply (list). Served like stats
//                            requests: sent on a fresh connection in place
//                            of Hello, one reply, then disconnect. The
//                            control path (tools/volleyctl) mutates the
//                            coordinator's durable task registry
//                            (src/control) at runtime.
//   coordinator -> monitor:  TaskAttach / TaskDetach — pushes the live task
//                            set (id, epoch, local threshold, allowance,
//                            sampler knobs) so monitors create and retire
//                            samplers without restarting. Epochs are the
//                            registry's monotone revision numbers: a
//                            monitor applies an attach only when its epoch
//                            is not older than what it already runs.
//
// Multi-task scoping: LocalViolation, PollRequest, PollResponse,
// StatsReport and AllowanceUpdate carry the TaskId they belong to (0 is the
// boot task a daemon seeds from its command line), so one session
// multiplexes any number of concurrent monitoring tasks.
//
// Liveness: monitors heartbeat on a wall-clock interval; the coordinator
// acks each one. A silent monitor is declared *suspect* after
// heartbeat_timeout_ms and *dead* after staleness_bound_ms (see
// coordinator_node.h). Hello carries a `resume` flag so a reconnecting
// monitor can reattach to its session and resync its error allowance.
//
// Encoding: 1 type byte (the frame's index in `Message` plus 1) followed by
// the frame's fields, written once per frame in messages.cpp under the rules
// of common/wire_io.h: fixed-width little-endian scalars, one-byte bools
// (0/1) and enums, u32-length strings (UTF-8 by convention, not enforced),
// u32-count vectors capped at wire::kMaxCount on read. Decoding is total: a
// malformed buffer returns nullopt rather than throwing, because it arrives
// from the network. DESIGN.md's wire-format appendix documents every layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "control/task_registry.h"
#include "core/task.h"
#include "core/types.h"

namespace volley::net {

struct Hello {
  MonitorId monitor{0};
  /// True when this connection resumes an interrupted session: the
  /// coordinator reattaches the monitor's state and replies with an
  /// AllowanceUpdate carrying the current allowance (the resync handshake).
  bool resume{false};
};

struct LocalViolation {
  MonitorId monitor{0};
  Tick tick{0};
  double value{0.0};
  TaskId task{0};
};

struct PollRequest {
  Tick tick{0};
  std::uint64_t poll_id{0};
  TaskId task{0};
};

struct PollResponse {
  MonitorId monitor{0};
  std::uint64_t poll_id{0};
  Tick tick{0};
  double value{0.0};
  TaskId task{0};
};

struct StatsReport {
  MonitorId monitor{0};
  double avg_gain{0.0};
  double avg_allowance{0.0};
  std::int64_t observations{0};
  TaskId task{0};
};

struct AllowanceUpdate {
  double error_allowance{0.0};
  TaskId task{0};
};

struct Bye {
  MonitorId monitor{0};
  std::int64_t scheduled_ops{0};
  std::int64_t forced_ops{0};
};

struct Shutdown {};

/// Monitor-side liveness beacon, sent every heartbeat_interval_ms.
struct Heartbeat {
  MonitorId monitor{0};
  std::uint64_t seq{0};
};

/// Coordinator's echo of a Heartbeat; lets the monitor detect a half-open
/// (silently dead) coordinator connection.
struct HeartbeatAck {
  std::uint64_t seq{0};
};

/// Introspection request (any client -> coordinator). Sent on a fresh
/// connection in place of Hello; the coordinator answers with one
/// StatsReply and closes the connection.
struct StatsRequest {
  static constexpr std::uint32_t kIncludeTrace = 1u << 0;  // fill trace_jsonl
  static constexpr std::uint32_t kMetricsJson = 1u << 1;   // JSON, not Prom
  static constexpr std::uint32_t kIncludeShards = 1u << 2;  // fill shards
  std::uint32_t flags{0};
};

/// One shard session row of a StatsReply (kIncludeShards): the aggregator's
/// id, how many monitors it owns (its weight in the root's threshold and
/// allowance splits), its current boot-task budget, and how long ago its
/// last ShardSummary arrived (-1: never).
struct ShardStatsRow {
  std::uint32_t shard{0};
  std::uint32_t monitors{0};
  double allowance{0.0};
  std::int64_t last_summary_age_ms{-1};
};

/// Introspection reply (coordinator -> client): session counters plus the
/// process-global metrics registry snapshot. `metrics` holds the Prometheus
/// text exposition, or the JSON snapshot when kMetricsJson was requested.
/// `trace_jsonl` holds the newest trace events (JSONL, bounded so the frame
/// stays under kMaxFrameBytes) when kIncludeTrace was requested; empty
/// otherwise.
struct StatsReply {
  std::int64_t global_polls{0};
  std::int64_t reallocations{0};
  std::int64_t alerts{0};
  std::string metrics;
  std::string trace_jsonl;
  /// Shard sessions (kIncludeShards); empty otherwise and on flat fleets.
  std::vector<ShardStatsRow> shards{};
};

// --- control plane --------------------------------------------------------

/// Control client -> coordinator: register a new task. The coordinator
/// validates the spec, journals the registry op, seeds the task's error
/// allowance (even split), and pushes TaskAttach to every live monitor.
struct AddTask {
  TaskId task{0};
  TaskSpec spec{};
};

/// Control client -> coordinator: retire a task. Pushes TaskDetach.
struct RemoveTask {
  TaskId task{0};
};

/// Control client -> coordinator: re-spec a live task (new threshold /
/// allowance / sampler knobs). Assigns a fresh epoch and re-runs the
/// allowance allocation for the task before pushing TaskAttach updates.
struct UpdateTask {
  TaskId task{0};
  TaskSpec spec{};
};

/// Control client -> coordinator: enumerate the live task set.
struct ListTasks {};

/// Coordinator -> control client: outcome of Add/Remove/UpdateTask.
/// `status` is control::ControlStatus on the wire (u8); `epoch` is the
/// revision assigned on success; `registry_version` the registry's version
/// after the mutation (also on failure, for observability).
struct ControlReply {
  control::ControlStatus status{control::ControlStatus::kOk};
  std::uint64_t epoch{0};
  std::uint64_t registry_version{0};
  std::string message{};
};

/// One task row of a TaskListReply: the registry record plus the
/// coordinator's current per-monitor error-allowance split for the task.
struct TaskEntry {
  TaskId task{0};
  std::uint64_t epoch{0};
  double global_threshold{0.0};
  double error_allowance{0.0};
  Tick updating_period{0};
  std::vector<std::pair<MonitorId, double>> allowance_split{};
};

/// Coordinator -> control client: the live task set, ascending task id.
struct TaskListReply {
  std::uint64_t registry_version{0};
  std::vector<TaskEntry> tasks{};
};

/// Coordinator -> monitor: run this task (create the sampler if unknown,
/// apply the new revision if the epoch is newer, resync the allowance if it
/// is the same revision). Carries everything a monitor needs to instantiate
/// the task locally.
struct TaskAttach {
  TaskId task{0};
  std::uint64_t epoch{0};
  double local_threshold{0.0};
  double error_allowance{0.0};
  double slack_ratio{0.2};
  std::int32_t patience{20};
  Tick max_interval{40};
  Tick updating_period{1000};
};

/// Coordinator -> monitor: retire this task (drop its sampler). The epoch
/// is the removal revision; an attach with a lower epoch must not resurrect
/// the task.
struct TaskDetach {
  TaskId task{0};
  std::uint64_t epoch{0};
};

// --- shard tier (DESIGN.md §13) -------------------------------------------

/// Aggregator -> root coordinator, in place of Hello: this connection is a
/// shard session. `shard` is the aggregator's id in the root's monitor-id
/// space, `monitors` the number of downstream monitors it owns — its weight
/// in the root's threshold slice T_s = T · w/W and allowance slice
/// err_s = err · w/W. `resume` works like Hello's (reattach + resync).
struct ShardHello {
  std::uint32_t shard{0};
  std::uint32_t monitors{1};
  bool resume{false};
};

/// Aggregator -> root coordinator, once per summary interval per live task:
/// the compressed (r, e, yield, allowance_used) coordination summary of the
/// shard's subset since the previous frame. r and e are the *sums* of the
/// per-monitor averaged gains/allowances of the shard's own reallocation
/// rounds (CoordinatorNode::drain_shard_summaries); yield = r/e is
/// carried redundantly for observability; allowance_used is the shard's
/// current budget err_s. The root feeds (r, e) into the same allowance
/// round (core/error_allocation.h) it runs over raw monitors in a flat
/// fleet; a summary with observations == 0 (no round finished since the
/// previous frame) only refreshes the shard's last-summary age.
struct ShardSummary {
  std::uint32_t shard{0};
  TaskId task{0};
  double r{0.0};
  double e{0.0};
  double yield{0.0};
  double allowance_used{0.0};
  std::int64_t observations{0};
};

/// Root coordinator -> aggregator: the task's new error budget for this
/// shard (pushed after each root reallocation round and on resume resync).
/// The aggregator hands it to its embedded coordinator's control() call,
/// which rescales the live split without restarting samplers (unlike
/// UpdateTask). Also accepted pre-Hello as a control request
/// (`volleyctl budget`).
struct ShardAllowance {
  TaskId task{0};
  double error_allowance{0.0};
};

/// The alternative's index plus 1 is its type byte on the wire, so new
/// frames are appended, never inserted or reordered.
using Message =
    std::variant<Hello, LocalViolation, PollRequest, PollResponse, StatsReport,
                 AllowanceUpdate, Bye, Shutdown, Heartbeat, HeartbeatAck,
                 StatsRequest, StatsReply, AddTask, RemoveTask, UpdateTask,
                 ListTasks, ControlReply, TaskListReply, TaskAttach,
                 TaskDetach, ShardHello, ShardSummary, ShardAllowance>;

/// True for the frames a control client opens a connection with (served
/// pre-Hello, one reply, then disconnect — like StatsRequest).
bool is_control_request(const Message& message);

/// Serializes a message (payload only; add framing separately).
std::vector<std::byte> encode(const Message& message);

/// Parses one payload. nullopt on unknown type or truncated fields.
std::optional<Message> decode(std::span<const std::byte> payload);

}  // namespace volley::net
