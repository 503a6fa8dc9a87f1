// Tests for the two-tier shard subsystem (DESIGN.md §13): placement, sharded
// sim runs (flat identity at shards == 1, forced-op savings and detection
// at shards > 1, faults by global monitor id), two-level allowance
// conservation, the shard
// wire frames, a full 1-root / 2-aggregator / 8-monitor localhost
// fleet, and the aggregator's upstream link against a restarted, an
// unreachable and a stalled root, task fan-through, root budget pushes,
// and the root's handling of shard summaries and budgets.
#include <gtest/gtest.h>

#include <poll.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/metric_source.h"
#include "net/aggregator_node.h"
#include "net/coordinator_node.h"
#include "net/framing.h"
#include "net/messages.h"
#include "net/monitor_node.h"
#include "net/request_reply.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "shard/placement.h"
#include "shard/sharded_coordinator.h"
#include "sim/faults.h"
#include "sim/runner.h"
#include "stalled_listener.h"

namespace volley {
namespace {

TEST(Placement, SlicesAreContiguousNearEqualAndInvertible) {
  const auto placement = shard::contiguous_placement(10, 3);
  ASSERT_EQ(placement.size(), 3u);
  // First monitors % shards ranges carry the extra element.
  EXPECT_EQ(placement[0].size(), 4u);
  EXPECT_EQ(placement[1].size(), 3u);
  EXPECT_EQ(placement[2].size(), 3u);
  std::size_t at = 0;
  for (const auto& range : placement) {
    EXPECT_EQ(range.begin, at);
    at = range.end;
  }
  EXPECT_EQ(at, 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    const std::size_t s = shard::shard_of(placement, i);
    EXPECT_TRUE(placement[s].contains(i));
  }
  EXPECT_THROW(shard::shard_of(placement, 10), std::out_of_range);
}

TEST(Placement, RejectsDegenerateShapes) {
  EXPECT_THROW(shard::contiguous_placement(0, 1), std::invalid_argument);
  EXPECT_THROW(shard::contiguous_placement(4, 0), std::invalid_argument);
  EXPECT_THROW(shard::contiguous_placement(4, 5), std::invalid_argument);
}

TEST(Codec, ShardFramesRoundTrip) {
  {
    const net::Message m = net::ShardHello{7, 125, true};
    const auto out = net::decode(net::encode(m));
    ASSERT_TRUE(out.has_value());
    const auto* hello = std::get_if<net::ShardHello>(&*out);
    ASSERT_NE(hello, nullptr);
    EXPECT_EQ(hello->shard, 7u);
    EXPECT_EQ(hello->monitors, 125u);
    EXPECT_TRUE(hello->resume);
  }
  {
    const net::Message m = net::ShardSummary{3, 1, 0.25, 0.5, 0.5, 0.01, 42};
    const auto out = net::decode(net::encode(m));
    ASSERT_TRUE(out.has_value());
    const auto* summary = std::get_if<net::ShardSummary>(&*out);
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->shard, 3u);
    EXPECT_EQ(summary->task, 1u);
    EXPECT_DOUBLE_EQ(summary->r, 0.25);
    EXPECT_DOUBLE_EQ(summary->e, 0.5);
    EXPECT_DOUBLE_EQ(summary->yield, 0.5);
    EXPECT_DOUBLE_EQ(summary->allowance_used, 0.01);
    EXPECT_EQ(summary->observations, 42);
  }
  {
    const net::Message m = net::ShardAllowance{2, 0.015};
    EXPECT_TRUE(net::is_control_request(m));
    const auto out = net::decode(net::encode(m));
    ASSERT_TRUE(out.has_value());
    const auto* budget = std::get_if<net::ShardAllowance>(&*out);
    ASSERT_NE(budget, nullptr);
    EXPECT_EQ(budget->task, 2u);
    EXPECT_DOUBLE_EQ(budget->error_allowance, 0.015);
  }
  {
    net::StatsReply reply;
    reply.global_polls = 5;
    reply.shards.push_back(net::ShardStatsRow{0, 4, 0.02, 130});
    reply.shards.push_back(net::ShardStatsRow{1, 4, 0.02, -1});
    const auto out = net::decode(net::encode(net::Message{reply}));
    ASSERT_TRUE(out.has_value());
    const auto* stats = std::get_if<net::StatsReply>(&*out);
    ASSERT_NE(stats, nullptr);
    ASSERT_EQ(stats->shards.size(), 2u);
    EXPECT_EQ(stats->shards[0].shard, 0u);
    EXPECT_EQ(stats->shards[0].monitors, 4u);
    EXPECT_DOUBLE_EQ(stats->shards[0].allowance, 0.02);
    EXPECT_EQ(stats->shards[0].last_summary_age_ms, 130);
    EXPECT_EQ(stats->shards[1].last_summary_age_ms, -1);
  }
}

TimeSeries quiet_series(Tick ticks, std::uint64_t seed, double level,
                        double noise = 0.01) {
  Rng rng(seed);
  TimeSeries s(static_cast<std::size_t>(ticks));
  for (Tick t = 0; t < ticks; ++t) {
    s[static_cast<std::size_t>(t)] = level + rng.normal(0.0, noise);
  }
  return s;
}

TaskSpec shard_spec(double threshold, double err = 0.02) {
  TaskSpec spec;
  spec.global_threshold = threshold;
  spec.error_allowance = err;
  spec.max_interval = 16;
  spec.patience = 5;
  spec.updating_period = 200;
  return spec;
}

// One Monitor per series, with global id i and local threshold 1.0. The
// sources land in `sources`, which must outlive the monitors.
std::vector<std::unique_ptr<Monitor>> series_monitors(
    const std::vector<TimeSeries>& series, const TaskSpec& spec,
    std::vector<std::unique_ptr<SeriesSource>>& sources) {
  std::vector<std::unique_ptr<Monitor>> monitors;
  for (std::size_t i = 0; i < series.size(); ++i) {
    sources.push_back(std::make_unique<SeriesSource>(series[i]));
    monitors.push_back(std::make_unique<Monitor>(
        static_cast<MonitorId>(i), *sources.back(),
        spec.sampler_options(spec.error_allowance), 1.0));
  }
  return monitors;
}

// shards == 1 must be the flat Coordinator, bit for bit: every tick's
// result, every monitor's ops after every tick, and the run-scoped metrics
// snapshot, so any stray shard-tier counter on the single-shard path shows
// up here. It holds at every fleet size: 64 monitors sits in the 51–100
// lane range where a second floor rule once made the single shard's
// allocator differ from flat. The sim driver, perfbench and bench_shard
// rely on this identity.
TEST(ShardedRunner, SingleShardIsByteIdenticalToFlat) {
  constexpr Tick kTicks = 1200;
  struct Recording {
    std::vector<Coordinator::TickResult> ticks;
    std::vector<std::int64_t> ops;  // per tick, per monitor: total_ops()
    std::vector<std::int64_t> accounting;
    double total_cost{0.0};
    std::string metrics_json;
  };
  for (const std::size_t monitors : {6u, 64u}) {
    SCOPED_TRACE(monitors);
    std::vector<TimeSeries> series;
    for (std::size_t i = 0; i < monitors; ++i) {
      // Uneven noise so the adaptive allocator moves allowance around.
      series.push_back(
          quiet_series(kTicks, 100 + i, 0.2, i % 4 == 0 ? 0.05 : 0.01));
    }
    // One sustained global violation window.
    for (Tick t = 700; t < 760; ++t) {
      for (auto& s : series) s[static_cast<std::size_t>(t)] = 2.0;
    }
    const TaskSpec spec = shard_spec(static_cast<double>(monitors));
    const auto allocators = make_allocator_factory(AllocatorKind::kAdaptive);

    const auto record = [&](const auto& make) {
      Recording out;
      obs::MetricsRegistry registry;
      {
        obs::ScopedMetricsRegistry scope(registry);
        std::vector<std::unique_ptr<SeriesSource>> sources;
        auto coordinator = make(series_monitors(series, spec, sources));
        for (Tick t = 0; t < kTicks; ++t) {
          out.ticks.push_back(coordinator->run_tick(t));
          for (std::size_t i = 0; i < monitors; ++i)
            out.ops.push_back(coordinator->monitor(i).total_ops());
        }
        for (std::size_t i = 0; i < monitors; ++i) {
          out.accounting.push_back(coordinator->monitor(i).scheduled_ops());
          out.accounting.push_back(coordinator->monitor(i).forced_ops());
        }
        out.accounting.push_back(coordinator->global_polls());
        out.accounting.push_back(coordinator->global_violations());
        out.accounting.push_back(coordinator->reallocations());
        out.total_cost = coordinator->total_cost();
      }
      out.metrics_json = registry.to_json();
      return out;
    };
    const Recording flat = record([&](auto fleet) {
      return std::make_unique<Coordinator>(spec, std::move(fleet),
                                           allocators(monitors));
    });
    const Recording sharded = record([&](auto fleet) {
      return std::make_unique<shard::ShardedCoordinator>(
          spec, std::move(fleet), 1, allocators);
    });

    ASSERT_EQ(sharded.ticks.size(), flat.ticks.size());
    for (std::size_t t = 0; t < flat.ticks.size(); ++t) {
      SCOPED_TRACE(t);
      const auto& a = flat.ticks[t];
      const auto& b = sharded.ticks[t];
      EXPECT_EQ(a.any_due, b.any_due);
      EXPECT_EQ(a.local_violations, b.local_violations);
      EXPECT_EQ(a.global_poll, b.global_poll);
      EXPECT_EQ(a.global_value, b.global_value);
      EXPECT_EQ(a.global_violation, b.global_violation);
    }
    EXPECT_EQ(sharded.ops, flat.ops);
    EXPECT_EQ(sharded.accounting, flat.accounting);
    EXPECT_EQ(sharded.total_cost, flat.total_cost);
    EXPECT_EQ(sharded.metrics_json, flat.metrics_json);
  }
}

// The scaling mechanism: a local violation confined to one shard forces
// that shard's subset poll (n/S samples), not a fleet-wide poll (n
// samples). The fleet-wide violation window must still be detected via
// escalation.
TEST(ShardedRunner, ShardsContainLocalViolationsAndStillDetect) {
  constexpr Tick kTicks = 1500;
  constexpr std::size_t kMonitors = 12;
  std::vector<TimeSeries> series;
  for (std::size_t i = 0; i < kMonitors; ++i) {
    series.push_back(quiet_series(kTicks, 300 + i, 0.1, 0.02));
  }
  // Monitor 0 trips its local threshold often, but its shard's subset
  // aggregate stays under T_s — the root tier never hears about it.
  for (Tick t = 100; t < 1400; t += 50) {
    series[0][static_cast<std::size_t>(t)] = 2.0;
  }
  // One genuine fleet-wide violation window.
  for (Tick t = 900; t < 950; ++t) {
    for (auto& s : series) s[static_cast<std::size_t>(t)] = 1.5;
  }
  const TaskSpec spec = shard_spec(12.0);
  const std::vector<double> thresholds(kMonitors, 1.0);

  const auto flat = run_volley(spec, series, thresholds);
  RunOptions sharded_options;
  sharded_options.shards = 4;
  const auto sharded =
      run_volley(spec, series, thresholds, sharded_options);

  EXPECT_GE(sharded.detected_episodes, 1);
  EXPECT_EQ(sharded.true_episodes, flat.true_episodes);
  // Forced samples: subset polls cost n/S, so the repeated monitor-0
  // violations are ~4x cheaper than under the flat coordinator.
  EXPECT_LT(sharded.forced_ops, flat.forced_ops);
}

// The fault model names monitors by their task-wide id, whichever shard
// polls them. An outage of monitor 5 (shard 2's second monitor) silences
// monitor 5 alone for its window: the second monitors of the other shards
// (1, 3 and 7) keep sampling.
TEST(ShardedFaults, OutageFollowsTheGlobalMonitorId) {
  constexpr Tick kTicks = 1000;
  constexpr Tick kDown = 300, kUp = 700;
  std::vector<TimeSeries> series;
  for (std::size_t i = 0; i < 8; ++i)
    series.push_back(quiet_series(kTicks, 900 + i, 0.1, 0.05));
  FaultPlan plan;
  plan.outages = {{5, kDown, kUp}};
  FaultModel faults = plan.model();
  RunOptions options;
  options.shards = 4;
  options.record_ops = true;
  SimDriver driver(series, options, {}, &faults);

  const TaskChurnEvent boot{TaskChurnEvent::Kind::kArrive, 0, 0,
                            shard_spec(8.0)};
  std::vector<std::vector<Tick>> op_ticks;
  SimDriver::Hooks hooks;
  hooks.on_retire = [&](const SimTask& task, Tick end) {
    op_ticks = task.result(end).op_ticks;
  };
  const SimTotals totals =
      driver.run(std::span<const TaskChurnEvent>(&boot, 1), hooks);
  EXPECT_EQ(totals.outage_monitor_ticks, kUp - kDown);

  ASSERT_EQ(op_ticks.size(), 8u);
  const auto ops_within = [&](std::size_t monitor, Tick begin, Tick end) {
    return std::count_if(op_ticks[monitor].begin(), op_ticks[monitor].end(),
                         [&](Tick t) { return t >= begin && t < end; });
  };
  EXPECT_EQ(ops_within(5, kDown, kUp), 0);
  EXPECT_GT(ops_within(5, 0, kDown), 0);
  EXPECT_GT(ops_within(5, kUp, kTicks), 0);
  for (const std::size_t monitor : {1u, 3u, 7u}) {
    SCOPED_TRACE(monitor);
    EXPECT_GT(ops_within(monitor, kDown, kUp), 0);
  }
}

// Two-level conservation: Σ_s err_s == err after every root reallocation
// round, and within each shard the per-monitor split sums to that shard's
// budget — β_c ≤ Σ_shards Σ_i β_i ≤ err needs both.
TEST(ShardedCoordinator, BudgetsConserveErrAtBothLevels) {
  constexpr Tick kTicks = 2400;
  constexpr std::size_t kMonitors = 8;
  constexpr std::size_t kShards = 4;
  constexpr double kErr = 0.02;

  // Heterogeneous noise so yields differ across shards and the adaptive
  // allocator actually moves budget at both levels.
  std::vector<TimeSeries> series;
  for (std::size_t i = 0; i < kMonitors; ++i) {
    series.push_back(
        quiet_series(kTicks, 500 + i, 0.1, i < 2 ? 0.25 : 0.01));
  }
  std::vector<std::unique_ptr<SeriesSource>> sources;
  const TaskSpec spec = shard_spec(8.0, kErr);
  shard::ShardedCoordinator coordinator(
      spec, series_monitors(series, spec, sources), kShards,
      make_allocator_factory(AllocatorKind::kAdaptive));

  const auto check_conservation = [&] {
    const auto& budgets = coordinator.budgets();
    ASSERT_EQ(budgets.size(), kShards);
    const double total =
        std::accumulate(budgets.begin(), budgets.end(), 0.0);
    EXPECT_NEAR(total, kErr, 1e-12);
    for (std::size_t s = 0; s < kShards; ++s) {
      const auto& split = coordinator.shard(s).allocation();
      const double shard_sum =
          std::accumulate(split.begin(), split.end(), 0.0);
      EXPECT_NEAR(shard_sum, budgets[s], 1e-12);
      // The live samplers carry the same split.
      for (std::size_t j = 0; j < split.size(); ++j) {
        EXPECT_DOUBLE_EQ(coordinator.shard(s).monitor(j).error_allowance(),
                         split[j]);
      }
    }
  };

  check_conservation();
  for (Tick t = 0; t < kTicks; ++t) {
    coordinator.run_tick(t);
    if ((t + 1) % spec.updating_period == 0) check_conservation();
  }
  // The run must actually have exercised the root tier for the invariant
  // checks above to mean anything.
  EXPECT_GT(coordinator.root_reallocations(), 0);
  check_conservation();
}

// End-to-end two-tier fleet over localhost TCP: one root coordinator, two
// aggregator shards, eight monitors (four per shard). Monitor 0 of shard 0
// carries a sustained violation window heavy enough to push the *global*
// aggregate over T: the shard escalates, the root polls both shards
// (cached subset aggregates), and records a global alert.
TEST(NetIntegration, TwoTierFleetDetectsViolationThroughAggregators) {
  constexpr Tick kTicks = 400;
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kPerShard = 4;
  constexpr double kGlobalThreshold = 16.0;

  net::CoordinatorNodeOptions root_options;
  root_options.monitors = kShards;
  root_options.total_weight = kShards * kPerShard;
  root_options.global_threshold = kGlobalThreshold;
  root_options.error_allowance = 0.04;
  net::CoordinatorNode root(root_options);

  std::vector<std::unique_ptr<net::AggregatorNode>> aggregators;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    net::AggregatorNodeOptions agg_options;
    agg_options.shard_id = s;
    agg_options.coordinator_port = root.port();
    agg_options.monitors = kPerShard;
    // The shard's slice: T_s = T * w/W, err_s = err * w/W.
    agg_options.global_threshold = kGlobalThreshold / kShards;
    agg_options.error_allowance = 0.04 / kShards;
    agg_options.summary_interval_ms = 50;
    agg_options.heartbeat_interval_ms = 100;
    aggregators.push_back(std::make_unique<net::AggregatorNode>(agg_options));
  }

  std::vector<std::unique_ptr<CallableSource>> sources;
  std::vector<std::unique_ptr<net::MonitorNode>> nodes;
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::size_t i = 0; i < kPerShard; ++i) {
      const bool hot = s == 0 && i == 0;
      sources.push_back(std::make_unique<CallableSource>(
          [hot](Tick t) {
            return hot && t >= 150 && t < 280 ? 20.0 : 0.5;
          },
          kTicks));
      net::MonitorNodeOptions mon_options;
      mon_options.id = static_cast<MonitorId>(i);
      mon_options.coordinator_port = aggregators[s]->port();
      mon_options.local_threshold =
          kGlobalThreshold / (kShards * kPerShard);
      mon_options.sampler.error_allowance = 0.005;
      mon_options.sampler.patience = 3;
      mon_options.sampler.max_interval = 8;
      mon_options.ticks = kTicks;
      mon_options.updating_period = 100;
      mon_options.tick_micros = 300;
      nodes.push_back(
          std::make_unique<net::MonitorNode>(mon_options, *sources.back()));
    }
  }

  std::thread root_thread([&root] { root.run(); });
  std::vector<std::thread> aggregator_threads;
  for (auto& aggregator : aggregators) {
    aggregator_threads.emplace_back([&aggregator] { aggregator->run(); });
  }
  // Give the aggregators a beat to join the root before monitors start.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<std::thread> monitor_threads;
  for (auto& node : nodes) {
    monitor_threads.emplace_back([&node] { node->run(); });
  }
  for (auto& t : monitor_threads) t.join();
  for (auto& t : aggregator_threads) t.join();
  root_thread.join();

  // Shard 0 saw the subset violation and escalated upstream.
  EXPECT_FALSE(aggregators[0]->downstream().alerts().empty());
  EXPECT_GT(aggregators[0]->escalations(), 0);
  EXPECT_FALSE(aggregators[0]->coordinator_lost());
  EXPECT_FALSE(aggregators[1]->coordinator_lost());
  // Both shards kept the root's summary stream alive.
  for (const auto& aggregator : aggregators) {
    EXPECT_GT(aggregator->summaries_sent(), 0);
  }
  // The root polled on escalation and the cached subset aggregates crossed
  // the global threshold.
  EXPECT_GT(root.global_polls(), 0);
  ASSERT_FALSE(root.alerts().empty());
  for (const auto& alert : root.alerts()) {
    EXPECT_GT(alert.value, kGlobalThreshold);
  }
  // Each shard's Bye carried the summed downstream sampling ops.
  ASSERT_EQ(root.reported_ops().size(), kShards);
  for (const auto& [shard, ops] : root.reported_ops()) {
    EXPECT_GT(ops, 0);
    EXPECT_LT(ops, static_cast<std::int64_t>(kTicks * kPerShard));
  }
}

// --- aggregator upstream link and root shard handling ---------------------

/// The ListTasks row of `task` at the coordinator on `port`.
std::optional<net::TaskEntry> list_task(std::uint16_t port, TaskId task) {
  const auto reply =
      net::request_reply("127.0.0.1", port, 3000, net::ListTasks{});
  if (!reply) return std::nullopt;
  const auto* list = std::get_if<net::TaskListReply>(&*reply);
  if (list == nullptr) return std::nullopt;
  for (const auto& entry : list->tasks) {
    if (entry.task == task) return entry;
  }
  return std::nullopt;
}

double split_sum(const net::TaskEntry& entry) {
  double sum = 0.0;
  for (const auto& [id, allowance] : entry.allowance_split) sum += allowance;
  return sum;
}

/// A scripted session peer of a coordinator: says `hello`, then sends and
/// awaits frames from the test thread.
class RawSession {
 public:
  RawSession(std::uint16_t port, const net::Message& hello)
      : conn_(TcpConnection::connect("127.0.0.1", port, 2000)) {
    send(hello);
  }

  void send(const net::Message& message) {
    EXPECT_TRUE(conn_.send_all(frame_payload(net::encode(message))));
  }

  /// The next frame of type T within `timeout_ms` (other types skipped).
  template <typename T>
  std::optional<T> await(int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::array<std::byte, 4096> buf;
    for (;;) {
      while (auto payload = reader_.next()) {
        const auto message = net::decode(*payload);
        if (message && std::holds_alternative<T>(*message))
          return std::get<T>(*message);
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) return std::nullopt;
      pollfd pfd{conn_.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
      const auto n = conn_.recv_some(buf);
      if (!n || *n == 0) return std::nullopt;
      reader_.feed(std::span<const std::byte>(buf.data(), *n));
    }
  }

 private:
  TcpConnection conn_;
  FrameReader reader_;
};

/// One aggregator with its monitors, built and run by the tests below.
struct ShardUnderTest {
  std::unique_ptr<net::AggregatorNode> aggregator;
  std::vector<std::unique_ptr<CallableSource>> sources;
  std::vector<std::unique_ptr<net::MonitorNode>> monitors;
};

/// A shard of `per_shard` monitors behind an aggregator built from `agg`
/// (monitors and the upstream knobs filled in here). Monitor 0 of a `hot`
/// shard reads 20.0 over ticks [100, 250) — above the shard's slice on its
/// own — and every other reading is 0.5.
ShardUnderTest make_shard(net::AggregatorNodeOptions agg,
                          std::size_t per_shard, Tick ticks, int tick_micros,
                          bool hot) {
  agg.monitors = per_shard;
  agg.heartbeat_interval_ms = 50;
  agg.coordinator_timeout_ms = 400;
  agg.reconnect_backoff_ms = 20;
  agg.reconnect_backoff_max_ms = 100;
  agg.shutdown_grace_ms = 500;
  ShardUnderTest shard;
  shard.aggregator = std::make_unique<net::AggregatorNode>(agg);
  for (std::size_t i = 0; i < per_shard; ++i) {
    const bool hot_monitor = hot && i == 0;
    shard.sources.push_back(std::make_unique<CallableSource>(
        [hot_monitor](Tick t) {
          return hot_monitor && t >= 100 && t < 250 ? 20.0 : 0.5;
        },
        ticks));
    net::MonitorNodeOptions mon;
    mon.id = static_cast<MonitorId>(i);
    mon.coordinator_port = shard.aggregator->port();
    mon.local_threshold = agg.global_threshold / static_cast<double>(per_shard);
    mon.sampler.error_allowance = 0.005;
    mon.sampler.patience = 3;
    mon.sampler.max_interval = 8;
    mon.ticks = ticks;
    mon.updating_period = 100;
    mon.tick_micros = tick_micros;
    shard.monitors.push_back(
        std::make_unique<net::MonitorNode>(mon, *shard.sources.back()));
  }
  return shard;
}

/// Runs every aggregator and monitor of `shards` on its own thread (the
/// aggregators get a head start to join their root), calls `during` on the
/// test thread, and returns once every node's run() returned.
void run_shards(std::vector<ShardUnderTest>& shards,
                const std::function<void()>& during = [] {}) {
  std::vector<std::thread> threads;
  for (auto& shard : shards) {
    threads.emplace_back([&shard] { shard.aggregator->run(); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (auto& shard : shards) {
    for (std::size_t i = 0; i < shard.monitors.size(); ++i) {
      threads.emplace_back([&shard, i] { shard.monitors[i]->run(); });
    }
  }
  during();
  for (auto& t : threads) t.join();
}

/// Root options over `shards` shards of `per_shard` monitors each.
net::CoordinatorNodeOptions root_options(std::size_t shards,
                                         std::size_t per_shard) {
  net::CoordinatorNodeOptions root;
  root.monitors = shards;
  root.total_weight = shards * per_shard;
  root.global_threshold = 16.0;
  root.error_allowance = 0.04;
  return root;
}

/// The aggregator slice of root_options for shard `s` of `shards`.
net::AggregatorNodeOptions shard_slice(std::uint32_t s, std::size_t shards,
                                       std::uint16_t root_port) {
  net::AggregatorNodeOptions agg;
  agg.shard_id = s;
  agg.coordinator_port = root_port;
  agg.global_threshold = 16.0 / static_cast<double>(shards);
  agg.error_allowance = 0.04 / static_cast<double>(shards);
  agg.summary_interval_ms = 50;
  return agg;
}

// The root crashes mid-run (request_stop: connections drop, no Shutdown)
// and a successor comes up on the same port. The aggregator reconnects
// with ShardHello{resume} and the successor carries the shard to its Bye.
TEST(NetIntegration, AggregatorResumesAgainstRestartedRoot) {
  auto root_opts = root_options(1, 2);
  auto first = std::make_unique<net::CoordinatorNode>(root_opts);
  const std::uint16_t port = first->port();
  std::thread first_thread([&first] { first->run(); });

  auto agg = shard_slice(0, 1, port);
  agg.max_reconnect_attempts = 200;
  std::vector<ShardUnderTest> shards;
  shards.push_back(make_shard(agg, 2, 1500, 400, /*hot=*/false));

  std::unique_ptr<net::CoordinatorNode> successor;
  std::thread successor_thread;
  run_shards(shards, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    first->request_stop();
    first_thread.join();
    first.reset();  // closes the listener and the shard's connection
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    root_opts.port = port;
    successor = std::make_unique<net::CoordinatorNode>(root_opts);
    successor_thread = std::thread([&successor] { successor->run(); });
  });
  successor_thread.join();

  const auto& aggregator = *shards[0].aggregator;
  EXPECT_GT(aggregator.reconnects(), 0);
  EXPECT_FALSE(aggregator.coordinator_lost());
  // The successor bound a resumed shard session and saw its Bye.
  EXPECT_GE(successor->fault_stats().reconnects, 1);
  EXPECT_EQ(successor->reported_ops().size(), 1u);
}

// No root ever answers: the aggregator gives up after
// max_reconnect_attempts and its shard still runs to completion, detecting
// the subset violation on its own.
TEST(NetIntegration, AggregatorRunsStandaloneWhenRootUnreachable) {
  std::uint16_t dead_port = 0;
  {
    TcpListener listener(0);
    dead_port = listener.port();
  }  // closed: every connect is refused
  auto agg = shard_slice(0, 1, dead_port);
  agg.max_reconnect_attempts = 3;
  std::vector<ShardUnderTest> shards;
  shards.push_back(make_shard(agg, 2, 400, 300, /*hot=*/true));
  run_shards(shards);

  const auto& aggregator = *shards[0].aggregator;
  EXPECT_TRUE(aggregator.coordinator_lost());
  EXPECT_EQ(aggregator.escalations(), 0);
  EXPECT_FALSE(aggregator.downstream().alerts().empty());
  EXPECT_EQ(aggregator.downstream().reported_ops().size(), 2u);
}

// A root that is up but never completes a handshake (its accept queue is
// full) must not stall the shard: each upstream connect waits out its 1 s
// deadline on a timer while the aggregator's loop keeps serving. A connect
// that blocked the loop would hold everything the loop serves (polls,
// control requests, the monitors' Shutdown) for up to a whole deadline. So
// the test probes the loop while the first connect is pending: one
// ListTasks round trip every 10 ms over the run, and the slowest must stay
// under half the connect deadline. Host contention slows every probe a
// little; only a blocked loop holds one for most of a second.
TEST(NetIntegration, StalledRootLeavesShardAtTickCadence) {
  constexpr Tick kTicks = 400;
  constexpr int kTickMicros = 1000;  // 0.4 s of ticks
  testing::StalledListener root;
  const auto agg = shard_slice(0, 1, root.port());
  std::vector<ShardUnderTest> shards;
  shards.push_back(make_shard(agg, 2, kTicks, kTickMicros, /*hot=*/true));
  const std::uint16_t agg_port = shards[0].aggregator->port();

  double slowest_ms = 0.0;
  int probes = 0;
  run_shards(shards, [&] {
    using Clock = std::chrono::steady_clock;
    const auto end = Clock::now() + std::chrono::microseconds(
                                        kTicks * kTickMicros);
    while (Clock::now() < end) {
      const auto start = Clock::now();
      const auto reply = net::request_reply(
          "127.0.0.1", agg_port, 3 * agg.connect_timeout_ms, net::ListTasks{});
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      EXPECT_TRUE(reply.has_value()) << "probe " << probes;
      slowest_ms = std::max(slowest_ms, ms);
      ++probes;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  EXPECT_GT(probes, 0);
  EXPECT_LT(slowest_ms, 0.5 * agg.connect_timeout_ms)
      << "the aggregator's loop stalled while its upstream connect was "
         "pending ("
      << probes << " probes)";
  const auto& shard = shards[0];
  EXPECT_FALSE(shard.aggregator->downstream().alerts().empty());
  EXPECT_EQ(shard.aggregator->downstream().reported_ops().size(), 2u);
  EXPECT_EQ(shard.aggregator->escalations(), 0);
}

// AddTask at the root reaches every monitor of both shards: the root
// pushes TaskAttach to each aggregator, which re-slices the task for its
// own monitors.
TEST(NetIntegration, RootAddTaskFansThroughBothShards) {
  net::CoordinatorNode root(root_options(2, 2));
  std::thread root_thread([&root] { root.run(); });
  std::vector<ShardUnderTest> shards;
  for (std::uint32_t s = 0; s < 2; ++s) {
    shards.push_back(
        make_shard(shard_slice(s, 2, root.port()), 2, 1500, 400, false));
  }
  constexpr TaskId kTask = 7;
  run_shards(shards, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    TaskSpec spec;
    spec.global_threshold = 40.0;
    spec.error_allowance = 0.02;
    const auto reply = net::request_reply("127.0.0.1", root.port(), 3000,
                                          net::AddTask{kTask, spec});
    ASSERT_TRUE(reply.has_value());
    const auto* ok = std::get_if<net::ControlReply>(&*reply);
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(ok->status, control::ControlStatus::kOk);
  });
  root_thread.join();

  for (const auto& shard : shards) {
    EXPECT_NE(shard.aggregator->downstream().registry().find(kTask), nullptr);
    for (const auto& monitor : shard.monitors) {
      EXPECT_EQ(monitor->task_epochs().count(kTask), 1u);
      EXPECT_EQ(monitor->live_tasks(), 2u);
    }
  }
}

// A root budget push (ShardAllowance, what `volleyctl budget` sends)
// rescales each shard's live split onto the shard's new slice in place:
// no epoch moves at either tier and no monitor restarts its sampler.
TEST(NetIntegration, RootShardAllowanceRescalesShardSplitInPlace) {
  net::CoordinatorNode root(root_options(2, 2));
  std::thread root_thread([&root] { root.run(); });
  std::vector<ShardUnderTest> shards;
  for (std::uint32_t s = 0; s < 2; ++s) {
    auto agg = shard_slice(s, 2, root.port());
    agg.summary_interval_ms = 60000;  // no root reallocation rounds
    shards.push_back(make_shard(agg, 2, 1500, 400, false));
  }
  run_shards(shards, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const auto reply = net::request_reply("127.0.0.1", root.port(), 3000,
                                          net::ShardAllowance{0, 0.02});
    ASSERT_TRUE(reply.has_value());
    ASSERT_NE(std::get_if<net::ControlReply>(&*reply), nullptr);
    EXPECT_EQ(std::get<net::ControlReply>(*reply).status,
              control::ControlStatus::kOk);
    // The push travels root -> aggregator -> embedded coordinator; wait
    // for every shard's split to land on its slice of the new budget.
    bool settled = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!settled && std::chrono::steady_clock::now() < deadline) {
      const auto top = list_task(root.port(), kBootTaskId);
      settled = top && std::abs(split_sum(*top) - 0.02) < 1e-12;
      for (std::uint32_t id = 0; settled && id < shards.size(); ++id) {
        const auto row = list_task(shards[id].aggregator->port(), kBootTaskId);
        double slice = -1.0;  // the root's split entry for this shard
        for (const auto& [shard, a] : top->allowance_split) {
          if (shard == id) slice = a;
        }
        settled = row && row->epoch == 1 &&
                  std::abs(row->error_allowance - slice) < 1e-12 &&
                  std::abs(split_sum(*row) - slice) < 1e-12;
      }
      if (!settled)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(settled) << "shard splits never matched the new budget";
    const auto top = list_task(root.port(), kBootTaskId);
    ASSERT_TRUE(top.has_value());
    EXPECT_EQ(top->epoch, 1u);
  });
  root_thread.join();

  for (const auto& shard : shards) {
    for (const auto& monitor : shard.monitors) {
      EXPECT_EQ(monitor->task_epochs().at(kBootTaskId), 1u);
    }
  }
}

// `volleyctl budget` to 0 and back: the all-zero split must be rebuilt
// from the *new* budget, so Σ split equals it right away.
TEST(ShardTier, BudgetBackFromZeroRestoresTheSplit) {
  net::CoordinatorNodeOptions options;
  options.monitors = 2;
  options.global_threshold = 10.0;
  options.error_allowance = 0.03;
  net::CoordinatorNode coordinator(options);
  std::thread coord_thread([&coordinator] { coordinator.run(); });
  RawSession m0(coordinator.port(), net::Hello{0});
  RawSession m1(coordinator.port(), net::Hello{1});
  const bool attached = m0.await<net::TaskAttach>(2000).has_value() &&
                        m1.await<net::TaskAttach>(2000).has_value();
  std::vector<std::optional<net::Message>> replies;
  for (const double err : {0.0, 0.02}) {
    replies.push_back(net::request_reply("127.0.0.1", coordinator.port(),
                                         3000, net::ShardAllowance{0, err}));
  }
  const auto row = list_task(coordinator.port(), kBootTaskId);
  coordinator.request_stop();
  coord_thread.join();

  ASSERT_TRUE(attached);
  for (const auto& reply : replies) {
    ASSERT_TRUE(reply.has_value());
    ASSERT_NE(std::get_if<net::ControlReply>(&*reply), nullptr);
    EXPECT_EQ(std::get<net::ControlReply>(*reply).status,
              control::ControlStatus::kOk);
  }
  ASSERT_TRUE(row.has_value());
  EXPECT_NEAR(split_sum(*row), 0.02, 1e-12);
  EXPECT_NEAR(row->error_allowance, 0.02, 1e-12);
}

// A shard whose downstream finished no round since its last summary sends
// an empty one (observations == 0). That is not a report: the root must
// not reallocate on it, or budget drifts away from a shard whose round
// merely fell into another summary window.
TEST(ShardTier, EmptySummaryDoesNotCountAsAReport) {
  net::CoordinatorNode root(root_options(2, 4));
  std::thread root_thread([&root] { root.run(); });
  RawSession s0(root.port(), net::ShardHello{0, 4, false});
  RawSession s1(root.port(), net::ShardHello{1, 4, false});
  EXPECT_TRUE(s0.await<net::TaskAttach>(2000).has_value());
  EXPECT_TRUE(s1.await<net::TaskAttach>(2000).has_value());

  s0.send(net::ShardSummary{0, kBootTaskId, 0.8, 0.02, 40.0, 0.02, 500});
  s1.send(net::ShardSummary{1, kBootTaskId, 0.0, 0.0, 0.0, 0.02, 0});
  EXPECT_FALSE(s0.await<net::ShardAllowance>(300).has_value())
      << "the root reallocated on an empty summary";

  s1.send(net::ShardSummary{1, kBootTaskId, 0.1, 0.02, 5.0, 0.02, 500});
  EXPECT_TRUE(s0.await<net::ShardAllowance>(2000).has_value());
  EXPECT_TRUE(s1.await<net::ShardAllowance>(2000).has_value());
  root.request_stop();
  root_thread.join();
}

}  // namespace
}  // namespace volley
