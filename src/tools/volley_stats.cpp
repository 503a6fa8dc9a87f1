// volley_stats — query a live coordinator's observability snapshot.
//
//   volley_stats port=7601 [host=127.0.0.1] [format=prometheus|json]
//                [trace=0|1] [timeout_ms=2000]
//   volley_stats --tasks port=7601 [host=127.0.0.1] [timeout_ms=2000]
//   volley_stats --shards port=7601 [host=127.0.0.1] [timeout_ms=2000]
//
// Connects to a running volleyd_coordinator, sends a StatsRequest in place
// of Hello, and pretty-prints the single StatsReply: session counters
// (global polls, reallocations, alerts), the process-global metrics
// registry (Prometheus text by default, JSON with format=json), and — with
// trace=1 — the newest structured trace events as JSONL. With --tasks it
// sends a ListTasks control frame instead and prints the live task set:
// id, epoch, global threshold, task error allowance, and the coordinator's
// current per-monitor allowance split. With --shards the StatsRequest asks
// for the shard-session table (two-tier fleets, DESIGN.md §13): one row per
// aggregator — monitors owned, current boot-task allowance, and the age of
// its last ShardSummary. The coordinator drops the connection after
// replying; this tool never counts as a monitor.
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"
#include "net/messages.h"
#include "net/request_reply.h"

int main(int argc, char** argv) {
  using namespace volley;
  // --tasks is the one flag without '='; Config rejects it, so peel it off
  // before parsing the key=value remainder.
  bool want_tasks = false;
  bool want_shards = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tasks" || arg == "tasks") {
      want_tasks = true;
    } else if (arg == "--shards" || arg == "shards") {
      want_shards = true;
    } else {
      args.push_back(arg);
    }
  }
  Config config;
  try {
    config = Config::from_args(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad arguments: %s\n", e.what());
    return 2;
  }
  if (config.has("help")) {
    std::printf("usage: volley_stats [--tasks] [--shards] port=P [host=H] "
                "[format=prometheus|json] [trace=0|1] [timeout_ms=MS]\n");
    return 0;
  }

  try {
    const std::string host = config.get_string("host", "127.0.0.1");
    const auto port = static_cast<std::uint16_t>(config.get_int("port", 0));
    const std::string format = config.get_string("format", "prometheus");
    const bool want_trace = config.get_int("trace", 0) != 0;
    const int timeout_ms =
        static_cast<int>(config.get_int("timeout_ms", 2000));
    if (port == 0) {
      std::fprintf(stderr, "volley_stats: port=P is required\n");
      return 2;
    }
    if (format != "prometheus" && format != "json") {
      std::fprintf(stderr, "volley_stats: format must be prometheus|json\n");
      return 2;
    }

    net::Message request_message;
    if (want_tasks) {
      request_message = net::ListTasks{};
    } else {
      net::StatsRequest request;
      if (want_trace) request.flags |= net::StatsRequest::kIncludeTrace;
      if (format == "json") request.flags |= net::StatsRequest::kMetricsJson;
      if (want_shards) request.flags |= net::StatsRequest::kIncludeShards;
      request_message = request;
    }
    // timeout_ms bounds the whole exchange, so a wedged coordinator cannot
    // hang the tool.
    net::RequestError error{};
    const auto reply =
        net::request_reply(host, port, timeout_ms, request_message, &error);
    if (!reply) {
      if (error == net::RequestError::kConnect) {
        std::fprintf(stderr, "volley_stats: cannot reach %s:%u\n",
                     host.c_str(), port);
      } else {
        std::fprintf(stderr, "volley_stats: no reply within %d ms\n",
                     timeout_ms);
      }
      return 1;
    }
    if (want_tasks) {
      const auto* list = std::get_if<net::TaskListReply>(&*reply);
      if (!list) {
        std::fprintf(stderr, "volley_stats: unexpected reply type\n");
        return 1;
      }
      std::printf("# coordinator %s:%u registry_version=%llu tasks=%zu\n",
                  host.c_str(), port,
                  static_cast<unsigned long long>(list->registry_version),
                  list->tasks.size());
      std::printf("%6s %8s %12s %12s %10s  %s\n", "task", "epoch",
                  "threshold", "err", "period", "allowance split");
      for (const auto& task : list->tasks) {
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
      return 0;
    }
    const auto* stats = std::get_if<net::StatsReply>(&*reply);
    if (!stats) {
      std::fprintf(stderr, "volley_stats: unexpected reply type\n");
      return 1;
    }

    std::printf("# coordinator %s:%u\n", host.c_str(), port);
    std::printf("# global_polls=%lld reallocations=%lld alerts=%lld\n",
                static_cast<long long>(stats->global_polls),
                static_cast<long long>(stats->reallocations),
                static_cast<long long>(stats->alerts));
    if (want_shards) {
      std::printf("# shard sessions: %zu\n", stats->shards.size());
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
    }
    std::fputs(stats->metrics.c_str(), stdout);
    if (!stats->metrics.empty() && stats->metrics.back() != '\n')
      std::fputc('\n', stdout);
    if (want_trace) {
      std::printf("# trace (newest events, oldest first)\n");
      std::fputs(stats->trace_jsonl.c_str(), stdout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "volley_stats: %s\n", e.what());
    return 1;
  }
}
