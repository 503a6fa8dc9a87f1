// Tests for the two-tier shard subsystem (DESIGN.md §13): placement, sharded
// sim runs (flat identity at shards == 1, forced-op savings and detection
// at shards > 1, unsupported shapes rejected), two-level allowance
// conservation, the shard
// wire frames, and a full 1-root / 2-aggregator / 8-monitor localhost
// fleet.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/metric_source.h"
#include "net/aggregator_node.h"
#include "net/coordinator_node.h"
#include "net/messages.h"
#include "net/monitor_node.h"
#include "shard/placement.h"
#include "shard/sharded_coordinator.h"
#include "sim/faults.h"
#include "sim/runner.h"
#include "sim_grid.h"

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

void expect_identical_results(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.monitors, b.monitors);
  EXPECT_EQ(a.scheduled_ops, b.scheduled_ops);
  EXPECT_EQ(a.forced_ops, b.forced_ops);
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.true_alert_ticks, b.true_alert_ticks);
  EXPECT_EQ(a.detected_alert_ticks, b.detected_alert_ticks);
  EXPECT_EQ(a.true_episodes, b.true_episodes);
  EXPECT_EQ(a.detected_episodes, b.detected_episodes);
  EXPECT_EQ(a.local_violations, b.local_violations);
  EXPECT_EQ(a.global_polls, b.global_polls);
  EXPECT_EQ(a.reallocations, b.reallocations);
  EXPECT_EQ(a.op_ticks, b.op_ticks);
  EXPECT_EQ(a.interval_trajectory, b.interval_trajectory);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

// shards == 1 must be the flat runner, bit for bit — including the
// run-scoped metrics snapshot, so any stray shard-tier counter or trace
// event on the single-shard path shows up here. It holds at every fleet
// size: 64 monitors sits in the 51–100 lane range where a second floor
// rule once made the single shard's allocator differ from flat.
TEST(ShardedRunner, SingleShardIsByteIdenticalToFlat) {
  constexpr Tick kTicks = 1200;
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
    const std::vector<double> thresholds(monitors, 1.0);

    RunOptions flat_options;
    flat_options.record_ops = true;
    flat_options.record_intervals = true;
    const auto flat = run_volley(spec, series, thresholds, flat_options);

    RunOptions sharded_options = flat_options;
    sharded_options.shards = 1;
    const auto sharded =
        run_volley(spec, series, thresholds, sharded_options);

    expect_identical_results(flat, sharded);
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

// The shard tier has no fault semantics yet; the driver names the
// combination instead of running it.
TEST(ShardedRunner, RejectsShardedFaults) {
  std::vector<TimeSeries> series;
  for (std::size_t i = 0; i < 4; ++i)
    series.push_back(quiet_series(200, 700 + i, 0.1, 0.02));
  const TaskSpec spec = shard_spec(4.0);
  RunOptions options;
  options.shards = 2;
  const TaskChurnEvent boot{TaskChurnEvent::Kind::kArrive, 0, 0, spec};

  FaultModel faults = FaultPlan{}.model();
  SimDriver faulty(series, options, {}, &faults);
  try {
    faulty.run(std::span<const TaskChurnEvent>(&boot, 1), {});
    ADD_FAILURE() << "sharded × faults ran";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sharded × faults"),
              std::string::npos);
  }
}

// Under churn a single shard is still the flat coordinator: the golden
// churn schedule gives every retired instance the same accounting and the
// same detection flags, so the shard tier's reallocation clock starts at
// the instance's arrival exactly as the flat one does.
TEST(ShardedRunner, SingleShardChurnMatchesFlat) {
  struct Retired {
    TaskId id;
    std::uint64_t epoch;
    Tick arrived;
    Tick end;
    RunResult result;
    std::vector<char> detected;
  };
  const auto series = grid::churn_series();
  const auto events = grid::churn_events();
  const auto run = [&](std::size_t shards) {
    RunOptions options;
    options.record_ops = true;
    options.record_intervals = true;
    options.shards = shards;
    SimDriver driver(series, options);
    std::vector<Retired> retired;
    SimDriver::Hooks hooks;
    hooks.on_retire = [&](const SimTask& task, Tick end) {
      retired.push_back({task.id(), task.epoch(), task.arrived(), end,
                         task.result(end),
                         {task.detected().begin(), task.detected().end()}});
    };
    driver.run(events, hooks);
    return retired;
  };
  const auto flat = run(0);
  const auto sharded = run(1);
  ASSERT_EQ(flat.size(), 8u);
  ASSERT_EQ(sharded.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    SCOPED_TRACE(flat[i].id);
    EXPECT_EQ(sharded[i].id, flat[i].id);
    EXPECT_EQ(sharded[i].epoch, flat[i].epoch);
    EXPECT_EQ(sharded[i].arrived, flat[i].arrived);
    EXPECT_EQ(sharded[i].end, flat[i].end);
    expect_identical_results(flat[i].result, sharded[i].result);
    EXPECT_EQ(sharded[i].detected, flat[i].detected);
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
  std::vector<std::unique_ptr<Monitor>> monitors;
  TaskSpec spec = shard_spec(8.0, kErr);
  for (std::size_t i = 0; i < kMonitors; ++i) {
    sources.push_back(std::make_unique<SeriesSource>(series[i]));
    monitors.push_back(std::make_unique<Monitor>(
        static_cast<MonitorId>(i), *sources[i],
        spec.sampler_options(spec.error_allowance), 1.0));
  }
  shard::ShardedCoordinator coordinator(
      spec, std::move(monitors), kShards,
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

}  // namespace
}  // namespace volley
