#include "net/messages.h"

#include <array>

#include "common/wire_io.h"
#include "control/task_codec.h"
#include "net/framing.h"

namespace volley::net {

// One layout per frame, in wire order (common/wire_io.h). Empty frames
// (Shutdown, ListTasks) have no fields.
void fields(auto& io, wire::Is<Hello> auto& m) { io(m.monitor, m.resume); }
void fields(auto& io, wire::Is<LocalViolation> auto& m) {
  io(m.monitor, m.tick, m.value, m.task);
}
void fields(auto& io, wire::Is<PollRequest> auto& m) {
  io(m.tick, m.poll_id, m.task);
}
void fields(auto& io, wire::Is<PollResponse> auto& m) {
  io(m.monitor, m.poll_id, m.tick, m.value, m.task);
}
void fields(auto& io, wire::Is<StatsReport> auto& m) {
  io(m.monitor, m.avg_gain, m.avg_allowance, m.observations, m.task);
}
void fields(auto& io, wire::Is<AllowanceUpdate> auto& m) {
  io(m.error_allowance, m.task);
}
void fields(auto& io, wire::Is<Bye> auto& m) {
  io(m.monitor, m.scheduled_ops, m.forced_ops);
}
void fields(auto& io, wire::Is<Heartbeat> auto& m) { io(m.monitor, m.seq); }
void fields(auto& io, wire::Is<HeartbeatAck> auto& m) { io(m.seq); }
void fields(auto& io, wire::Is<StatsRequest> auto& m) { io(m.flags); }
void fields(auto& io, wire::Is<ShardStatsRow> auto& m) {
  io(m.shard, m.monitors, m.allowance, m.last_summary_age_ms);
}
void fields(auto& io, wire::Is<StatsReply> auto& m) {
  io(m.global_polls, m.reallocations, m.alerts, m.metrics, m.trace_jsonl,
     m.shards);
}
void fields(auto& io, wire::Is<AddTask> auto& m) { io(m.task, m.spec); }
void fields(auto& io, wire::Is<RemoveTask> auto& m) { io(m.task); }
void fields(auto& io, wire::Is<UpdateTask> auto& m) { io(m.task, m.spec); }
void fields(auto& io, wire::Is<ControlReply> auto& m) {
  io(m.status, m.epoch, m.registry_version, m.message);
}
void fields(auto& io, wire::Is<TaskEntry> auto& m) {
  io(m.task, m.epoch, m.global_threshold, m.error_allowance,
     m.updating_period, m.allowance_split);
}
void fields(auto& io, wire::Is<TaskListReply> auto& m) {
  io(m.registry_version, m.tasks);
}
void fields(auto& io, wire::Is<TaskAttach> auto& m) {
  io(m.task, m.epoch, m.local_threshold, m.error_allowance, m.slack_ratio,
     m.patience, m.max_interval, m.updating_period);
}
void fields(auto& io, wire::Is<TaskDetach> auto& m) { io(m.task, m.epoch); }
void fields(auto& io, wire::Is<ShardHello> auto& m) {
  io(m.shard, m.monitors, m.resume);
}
void fields(auto& io, wire::Is<ShardSummary> auto& m) {
  io(m.shard, m.task, m.r, m.e, m.yield, m.allowance_used, m.observations);
}
void fields(auto& io, wire::Is<ShardAllowance> auto& m) {
  io(m.task, m.error_allowance);
}

namespace {

// A corrupt count reserves at most a full-cap vector of the largest element
// before the missing elements fail the read; that stays under one frame.
static_assert(wire::kMaxCount * sizeof(TaskEntry) < kMaxFrameBytes);

/// Decodes the payload after the type byte as alternative I; the payload
/// must be consumed exactly.
template <std::size_t I>
std::optional<Message> decode_as(std::span<const std::byte> payload) {
  wire::ByteReader r(payload, 1);
  std::variant_alternative_t<I, Message> m{};
  if (!r(m) || !r.done()) return std::nullopt;
  return Message{std::in_place_index<I>, std::move(m)};
}

/// One decoder per alternative, indexed by type byte - 1.
template <std::size_t... I>
constexpr auto decoders(std::index_sequence<I...>) {
  return std::array{&decode_as<I>...};
}
constexpr auto kDecoders =
    decoders(std::make_index_sequence<std::variant_size_v<Message>>{});

}  // namespace

std::vector<std::byte> encode(const Message& message) {
  std::vector<std::byte> out;
  // Every hot frame (heartbeat, violation, poll request/response, ack) is
  // under 64 bytes: one allocation instead of a regrowth per field.
  out.reserve(64);
  wire::ByteWriter w(out);
  w(static_cast<std::uint8_t>(message.index() + 1));
  std::visit([&w](const auto& m) { w(m); }, message);
  return out;
}

std::optional<Message> decode(std::span<const std::byte> payload) {
  if (payload.empty()) return std::nullopt;
  const auto type = static_cast<std::size_t>(payload[0]);
  if (type == 0 || type > kDecoders.size()) return std::nullopt;
  return kDecoders[type - 1](payload);
}

bool is_control_request(const Message& message) {
  return std::holds_alternative<AddTask>(message) ||
         std::holds_alternative<RemoveTask>(message) ||
         std::holds_alternative<UpdateTask>(message) ||
         std::holds_alternative<ListTasks>(message) ||
         std::holds_alternative<ShardAllowance>(message);
}

}  // namespace volley::net
