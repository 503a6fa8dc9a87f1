// volleyctl — mutate and inspect a live coordinator's task registry.
//
//   volleyctl add    port=P task=ID threshold=T [err=E] [id_seconds=S]
//                    [max_interval=I] [slack=G] [patience=N]
//                    [updating_period=U]
//   volleyctl update port=P task=ID threshold=T [same knobs as add]
//   volleyctl remove port=P task=ID
//   volleyctl list   port=P
//   volleyctl watch  port=P [interval_ms=MS] [count=N]
//   volleyctl shards port=P
//   volleyctl budget port=P task=ID err=E
//
// Common options: host=H (default 127.0.0.1), timeout_ms=MS (default 2000).
//
// Each verb opens a fresh connection, sends one control frame in place of
// Hello (AddTask / UpdateTask / RemoveTask / ListTasks), prints the single
// reply (ControlReply or TaskListReply) and exits; the coordinator drops
// the connection after answering, and the tool never counts as a monitor.
// `watch` re-lists every interval_ms and prints the task table whenever the
// registry version changes (count=N stops after N lists; 0 = forever).
//
// Two-tier fleets (DESIGN.md §13): `shards` lists a root coordinator's
// shard sessions (one row per aggregator: monitors owned, boot-task
// allowance, last-summary age); `budget` sets a task's error budget *in
// place* via ShardAllowance — the live allowance split rescales without the
// sampler restarts an `update` would cause.
//
// Exit status — distinct codes so scripts can branch on the failure class:
//   0  success
//   1  transport/protocol failure after connecting (send failed, no reply
//      within the timeout, malformed or unexpected reply frame)
//   2  bad usage (unknown verb, missing/invalid arguments)
//   3  mutation rejected by the coordinator (kNotFound / kExists / kInvalid)
//   4  cannot connect (refused or connect timeout — the coordinator is not
//      reachable at host:port)
#include <cstdio>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "control/task_registry.h"
#include "net/messages.h"
#include "net/request_reply.h"

namespace {

using namespace volley;

void usage() {
  std::printf(
      "usage: volleyctl <verb> port=P [host=H] [timeout_ms=MS] ...\n"
      "  add    task=ID threshold=T [err=E] [id_seconds=S]\n"
      "         [max_interval=I] [slack=G] [patience=N] [updating_period=U]\n"
      "  update task=ID threshold=T [same knobs as add]\n"
      "  remove task=ID\n"
      "  list\n"
      "  watch  [interval_ms=MS] [count=N]\n"
      "  shards\n"
      "  budget task=ID err=E\n");
}

// Exit codes (see the header comment).
constexpr int kExitOk = 0;
constexpr int kExitTransport = 1;
constexpr int kExitUsage = 2;
constexpr int kExitRejected = 3;
constexpr int kExitConnectRefused = 4;

/// One-shot control exchange. On failure, `exit_code` distinguishes a dead
/// coordinator (kExitConnectRefused) from an established-but-broken
/// exchange (kExitTransport).
std::optional<net::Message> round_trip(const std::string& host,
                                       std::uint16_t port, int timeout_ms,
                                       const net::Message& request,
                                       int& exit_code) {
  net::RequestError error{};
  auto reply = net::request_reply(host, port, timeout_ms, request, &error);
  if (reply) return reply;
  if (error == net::RequestError::kConnect) {
    std::fprintf(stderr,
                 "volleyctl: cannot connect to %s:%u "
                 "(connection refused or timed out after %d ms) — is the "
                 "coordinator running?\n",
                 host.c_str(), port, timeout_ms);
    exit_code = kExitConnectRefused;
  } else {
    std::fprintf(stderr, "volleyctl: no valid reply within %d ms\n",
                 timeout_ms);
    exit_code = kExitTransport;
  }
  return std::nullopt;
}

/// Builds the TaskSpec an add/update verb describes. `threshold` is
/// required; everything else falls back to the TaskSpec defaults.
TaskSpec spec_from_config(const Config& config) {
  TaskSpec spec;
  spec.global_threshold = config.get_double("threshold", 0.0);
  spec.error_allowance = config.get_double("err", spec.error_allowance);
  spec.id_seconds = config.get_double("id_seconds", spec.id_seconds);
  spec.max_interval =
      static_cast<Tick>(config.get_int("max_interval", spec.max_interval));
  spec.slack_ratio = config.get_double("slack", spec.slack_ratio);
  spec.patience = static_cast<int>(config.get_int("patience", spec.patience));
  spec.updating_period = static_cast<Tick>(
      config.get_int("updating_period", spec.updating_period));
  return spec;
}

int print_control_reply(const net::Message& reply) {
  const auto* control = std::get_if<net::ControlReply>(&reply);
  if (!control) {
    std::fprintf(stderr, "volleyctl: unexpected reply type\n");
    return kExitTransport;
  }
  if (control->status != control::ControlStatus::kOk) {
    std::fprintf(stderr,
                 "volleyctl: coordinator rejected the mutation: %s%s%s "
                 "(registry version %llu)\n",
                 control::control_status_name(control->status),
                 control->message.empty() ? "" : ": ",
                 control->message.c_str(),
                 static_cast<unsigned long long>(control->registry_version));
    return kExitRejected;
  }
  std::printf("ok: epoch=%llu registry_version=%llu\n",
              static_cast<unsigned long long>(control->epoch),
              static_cast<unsigned long long>(control->registry_version));
  return kExitOk;
}

void print_task_table(const net::TaskListReply& list) {
  std::printf("registry version %llu, %zu task(s)\n",
              static_cast<unsigned long long>(list.registry_version),
              list.tasks.size());
  std::printf("%6s %8s %12s %12s %10s  %s\n", "task", "epoch", "threshold",
              "err", "period", "allowance split");
  for (const auto& task : list.tasks) {
    std::printf("%6u %8llu %12.4f %12.6f %10lld  ", task.task,
                static_cast<unsigned long long>(task.epoch),
                task.global_threshold, task.error_allowance,
                static_cast<long long>(task.updating_period));
    for (std::size_t i = 0; i < task.allowance_split.size(); ++i) {
      const auto& [monitor, allowance] = task.allowance_split[i];
      std::printf("%s%u:%.6f", i == 0 ? "" : " ", monitor, allowance);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The verb is the one token without '='; Config rejects it, so split it
  // out before parsing the key=value remainder.
  std::string verb;
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "help" || arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (arg.find('=') == std::string::npos && verb.empty()) {
      verb = arg;
    } else {
      tokens.push_back(arg);
    }
  }
  if (verb.empty()) {
    usage();
    return kExitUsage;
  }

  Config config;
  try {
    config = Config::from_args(tokens);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad arguments: %s\n", e.what());
    return kExitUsage;
  }

  try {
    const std::string host = config.get_string("host", "127.0.0.1");
    const auto port = static_cast<std::uint16_t>(config.get_int("port", 0));
    const int timeout_ms =
        static_cast<int>(config.get_int("timeout_ms", 2000));
    if (port == 0) {
      std::fprintf(stderr, "volleyctl: port=P is required\n");
      return kExitUsage;
    }

    if (verb == "add" || verb == "update") {
      if (!config.has("task") || !config.has("threshold")) {
        std::fprintf(stderr, "volleyctl: %s needs task=ID threshold=T\n",
                     verb.c_str());
        return kExitUsage;
      }
      const auto task = static_cast<TaskId>(config.get_int("task", 0));
      const TaskSpec spec = spec_from_config(config);
      const net::Message request =
          verb == "add" ? net::Message{net::AddTask{task, spec}}
                        : net::Message{net::UpdateTask{task, spec}};
      int exit_code = kExitTransport;
      const auto reply =
          round_trip(host, port, timeout_ms, request, exit_code);
      return reply ? print_control_reply(*reply) : exit_code;
    }

    if (verb == "remove") {
      if (!config.has("task")) {
        std::fprintf(stderr, "volleyctl: remove needs task=ID\n");
        return kExitUsage;
      }
      const auto task = static_cast<TaskId>(config.get_int("task", 0));
      int exit_code = kExitTransport;
      const auto reply = round_trip(host, port, timeout_ms,
                                    net::RemoveTask{task}, exit_code);
      return reply ? print_control_reply(*reply) : exit_code;
    }

    if (verb == "budget") {
      if (!config.has("task") || !config.has("err")) {
        std::fprintf(stderr, "volleyctl: budget needs task=ID err=E\n");
        return kExitUsage;
      }
      const auto task = static_cast<TaskId>(config.get_int("task", 0));
      const double err = config.get_double("err", 0.0);
      int exit_code = kExitTransport;
      const auto reply = round_trip(host, port, timeout_ms,
                                    net::ShardAllowance{task, err}, exit_code);
      return reply ? print_control_reply(*reply) : exit_code;
    }

    if (verb == "shards") {
      net::StatsRequest request;
      request.flags |= net::StatsRequest::kIncludeShards;
      int exit_code = kExitTransport;
      const auto reply =
          round_trip(host, port, timeout_ms, request, exit_code);
      if (!reply) return exit_code;
      const auto* stats = std::get_if<net::StatsReply>(&*reply);
      if (!stats) {
        std::fprintf(stderr, "volleyctl: unexpected reply type\n");
        return kExitTransport;
      }
      std::printf("%zu shard session(s)\n", stats->shards.size());
      std::printf("%6s %10s %14s %18s\n", "shard", "monitors", "allowance",
                  "last_summary_ms");
      for (const auto& row : stats->shards) {
        if (row.last_summary_age_ms < 0) {
          std::printf("%6u %10u %14.6f %18s\n", row.shard, row.monitors,
                      row.allowance, "never");
        } else {
          std::printf("%6u %10u %14.6f %18lld\n", row.shard, row.monitors,
                      row.allowance,
                      static_cast<long long>(row.last_summary_age_ms));
        }
      }
      return kExitOk;
    }

    if (verb == "list" || verb == "watch") {
      const bool watch = verb == "watch";
      const int interval_ms =
          static_cast<int>(config.get_int("interval_ms", 1000));
      const std::int64_t count = config.get_int("count", watch ? 0 : 1);
      std::uint64_t last_version = ~0ull;
      for (std::int64_t i = 0; count == 0 || i < count; ++i) {
        if (i > 0)
          std::this_thread::sleep_for(
              std::chrono::milliseconds(interval_ms));
        int exit_code = kExitTransport;
        const auto reply = round_trip(host, port, timeout_ms,
                                      net::ListTasks{}, exit_code);
        if (!reply) return exit_code;
        const auto* list = std::get_if<net::TaskListReply>(&*reply);
        if (!list) {
          std::fprintf(stderr, "volleyctl: unexpected reply type\n");
          return kExitTransport;
        }
        if (!watch || list->registry_version != last_version) {
          print_task_table(*list);
          last_version = list->registry_version;
        }
        if (!watch && count == 1) break;
      }
      return kExitOk;
    }

    std::fprintf(stderr, "volleyctl: unknown verb '%s'\n", verb.c_str());
    usage();
    return kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "volleyctl: %s\n", e.what());
    return kExitTransport;
  }
}
