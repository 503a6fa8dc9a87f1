// Two-tier shard scaling benchmark (DESIGN.md §13).
//
// Part 1 — flat vs sharded coordination at 10k / 100k / 1M monitors on the
// sim tier. The fleet is quiet (every sampler pinned at Im) except for a
// small hot block of monitors that trips local violations every few ticks
// while its shard's subset aggregate stays under T_s. That is the scaling
// mechanism under test: the flat coordinator answers each local violation
// with an n-sample global poll, the sharded tier with an n/S-sample subset
// poll, so the hot block's cost shrinks by ~S while detection is untouched
// (Σ T_s = T: all subsets quiet ⇒ no global violation). Timed wall-clock
// throughput (ticks/sec over the hot window) and the op counts are both
// reported; the headline is sharded/flat throughput at 100k+.
//
// Part 2 — the shards == 1 identity: a ShardedCoordinator with one shard
// is driven against a flat Coordinator built with the same allocator over
// the same fleet, and every accounting field plus the run-scoped metrics
// snapshot must match exactly (the discipline the due index and likelihood
// kernel already live under).
//
// Part 3 — a real two-tier fleet over loopback TCP: one root coordinator,
// three AggregatorNode shards, twelve MonitorNodes. A hot monitor in shard
// 0 pushes the global aggregate over T: the bench reports escalations,
// summary frames, and the root's alerts.
//
// VOLLEY_BENCH_QUICK=1 shrinks all parts to smoke size. Emits
// BENCH_shard.json (schema checked by the CI bench-smoke job). No trace
// sink is bound, so per-sample trace events are not recorded and the
// numbers measure the coordination hot path, not the trace ring.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/coordinator.h"
#include "core/error_allocation.h"
#include "core/metric_source.h"
#include "core/monitor.h"
#include "core/task.h"
#include "net/aggregator_node.h"
#include "net/coordinator_node.h"
#include "net/monitor_node.h"
#include "obs/metrics.h"
#include "shard/sharded_coordinator.h"
#include "sim/driver.h"

namespace volley {
namespace {

/// Deterministic value hash (as in bench_scale): per-monitor series are
/// computed on the fly — 1M monitors of TimeSeries would dwarf the
/// structures being measured — and every mode replays the same values.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = (a + 1) * 0x9e3779b97f4a7c15ull ^
                    (b + 0x2545f4914f6cdd1dull) * 0xbf58476d1ce4e5b9ull;
  h ^= h >> 31;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 28;
  return h;
}

struct FleetShape {
  std::size_t monitors{0};
  std::size_t shards{0};  // 0 = flat coordinator
  Tick warmup{0};
  Tick timed{0};
  Tick max_interval{0};
  Tick hot_every{0};         // hot-block violation period (timed phase)
  Tick hot_window{0};        // consecutive hot ticks per period
  std::size_t hot_block{0};  // leading monitors that go hot
};

struct FleetOutcome {
  std::int64_t total_ops{0};
  std::int64_t forced_ops{0};
  double total_cost{0.0};
  std::int64_t local_violations{0};
  std::int64_t polls{0};  // flat: global polls; sharded: subset polls
  std::int64_t escalations{0};
  std::int64_t reallocations{0};
  double timed_seconds{0.0};
  Tick timed_ticks{0};
  std::string metrics_json;

  double ticks_per_sec() const {
    return timed_seconds > 0.0
               ? static_cast<double>(timed_ticks) / timed_seconds
               : 0.0;
  }
};

TaskSpec fleet_spec(std::size_t n, Tick max_interval, Tick total) {
  TaskSpec spec;
  // Local threshold 2.0 per monitor: the quiet baseline (~1.0) leaves a
  // large margin relative to its tiny wiggle, so every sampler climbs to
  // Im; hot monitors at 3.0 trip it. A hot block of B monitors moves the
  // subset aggregate by ~2B, far under T_s = 2 n_s for n_s >> B.
  spec.global_threshold = 2.0 * static_cast<double>(n);
  spec.error_allowance = 0.05;
  spec.max_interval = max_interval;
  spec.patience = 1;
  // No reallocation round inside the measured window: draining stats is
  // O(monitors) at both tiers and would blur the poll-containment numbers
  // (tests/test_shard.cpp exercises the realloc path).
  spec.updating_period = total + 1;
  spec.estimator.stats_window = 32;
  return spec;
}

std::vector<std::unique_ptr<Monitor>> build_fleet(
    const FleetShape& shape, const TaskSpec& spec,
    std::vector<std::unique_ptr<CallableSource>>& sources) {
  const Tick total = shape.warmup + shape.timed;
  const Tick warmup = shape.warmup;
  const Tick hot_every = shape.hot_every;
  const Tick hot_window = shape.hot_window;
  // A monitor pinned at Im would sample right past short hot windows, so
  // the block goes continuously hot over the last Im warmup ticks: the one
  // scheduled sample that lands there resets its interval, and from then
  // on the periodic windows keep it in the low-interval violation regime —
  // the steady state the timed phase measures.
  const Tick hot_ramp = warmup - shape.max_interval;
  sources.reserve(shape.monitors);
  std::vector<std::unique_ptr<Monitor>> monitors;
  monitors.reserve(shape.monitors);
  for (std::size_t i = 0; i < shape.monitors; ++i) {
    const auto id = static_cast<MonitorId>(i);
    const bool hot = i < shape.hot_block;
    // Quiet: ~1.0 with a deterministic 1e-6 wiggle (margin/noise large
    // enough that β̄ stays under even the 1M-way per-monitor allowance
    // split, so the AIMD climb reaches Im). Hot: 3.0 for hot_window
    // consecutive ticks every hot_every ticks.
    sources.push_back(std::make_unique<CallableSource>(
        [id, hot, warmup, hot_every, hot_window, hot_ramp](Tick t) {
          const bool burning =
              hot && t >= hot_ramp &&
              (t < warmup || (t - warmup) % hot_every < hot_window);
          if (burning) return 3.0;
          const std::uint64_t h = mix(id, static_cast<std::uint64_t>(t));
          return 1.0 + 1e-6 * static_cast<double>(h & 1023u) / 1024.0;
        },
        total));
    monitors.push_back(std::make_unique<Monitor>(
        id, *sources.back(), spec.sampler_options(spec.error_allowance),
        2.0));
  }
  return monitors;
}

FleetOutcome run_flat(const FleetShape& shape) {
  FleetOutcome out;
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetricsRegistry scope(registry);
    const Tick total = shape.warmup + shape.timed;
    const TaskSpec spec = fleet_spec(shape.monitors, shape.max_interval,
                                     total);
    std::vector<std::unique_ptr<CallableSource>> sources;
    auto monitors = build_fleet(shape, spec, sources);
    // Same allocator the sharded tiers use (never fires: updating_period
    // exceeds the run), so the S == 1 identity compares equals.
    Coordinator coordinator(
        spec, std::move(monitors),
        make_allocator_factory(AllocatorKind::kAdaptive)(
            shape.monitors));

    for (Tick t = 0; t < shape.warmup; ++t) {
      coordinator.run_tick(t);
    }
    // Ops/polls are reported for the timed window only: the warm-up (AIMD
    // climb plus the hot block's catch ramp) is identical noise in every
    // mode.
    const std::int64_t base_ops = coordinator.total_ops();
    const double base_cost = coordinator.total_cost();
    const std::int64_t base_polls = coordinator.global_polls();
    std::int64_t base_forced = 0;
    for (std::size_t i = 0; i < coordinator.monitor_count(); ++i) {
      base_forced += coordinator.monitor(i).forced_ops();
    }
    const double t0 = bench::now_seconds();
    for (Tick t = shape.warmup; t < total; ++t) {
      const auto tick = coordinator.run_tick(t);
      out.local_violations += tick.local_violations;
    }
    out.timed_seconds = bench::now_seconds() - t0;
    out.timed_ticks = shape.timed;
    out.total_ops = coordinator.total_ops() - base_ops;
    out.total_cost = coordinator.total_cost() - base_cost;
    out.polls = coordinator.global_polls() - base_polls;
    out.reallocations = coordinator.reallocations();
    out.forced_ops = -base_forced;
    for (std::size_t i = 0; i < coordinator.monitor_count(); ++i) {
      out.forced_ops += coordinator.monitor(i).forced_ops();
    }
    out.metrics_json = registry.to_json();
  }
  return out;
}

FleetOutcome run_sharded(const FleetShape& shape) {
  FleetOutcome out;
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetricsRegistry scope(registry);
    const Tick total = shape.warmup + shape.timed;
    const TaskSpec spec = fleet_spec(shape.monitors, shape.max_interval,
                                     total);
    std::vector<std::unique_ptr<CallableSource>> sources;
    auto monitors = build_fleet(shape, spec, sources);
    shard::ShardedCoordinator coordinator(
        spec, std::move(monitors), shape.shards,
        make_allocator_factory(AllocatorKind::kAdaptive));

    for (Tick t = 0; t < shape.warmup; ++t) {
      coordinator.run_tick(t);
    }
    const std::int64_t base_ops = coordinator.total_ops();
    const double base_cost = coordinator.total_cost();
    const std::int64_t base_polls = coordinator.shard_polls();
    std::int64_t base_forced = 0;
    for (std::size_t i = 0; i < coordinator.monitor_count(); ++i) {
      base_forced += coordinator.monitor(i).forced_ops();
    }
    const double t0 = bench::now_seconds();
    for (Tick t = shape.warmup; t < total; ++t) {
      const auto tick = coordinator.run_tick(t);
      out.local_violations += tick.local_violations;
    }
    out.timed_seconds = bench::now_seconds() - t0;
    out.timed_ticks = shape.timed;
    out.total_ops = coordinator.total_ops() - base_ops;
    out.total_cost = coordinator.total_cost() - base_cost;
    out.polls = coordinator.shard_polls() - base_polls;
    out.escalations = coordinator.escalations();
    out.reallocations = coordinator.reallocations();
    out.forced_ops = -base_forced;
    for (std::size_t i = 0; i < coordinator.monitor_count(); ++i) {
      out.forced_ops += coordinator.monitor(i).forced_ops();
    }
    out.metrics_json = registry.to_json();
  }
  return out;
}

bool same_outcome(const FleetOutcome& a, const FleetOutcome& b) {
  return a.total_ops == b.total_ops && a.forced_ops == b.forced_ops &&
         a.total_cost == b.total_cost &&
         a.local_violations == b.local_violations && a.polls == b.polls &&
         a.reallocations == b.reallocations &&
         a.metrics_json == b.metrics_json;
}

struct ScaleRow {
  std::size_t monitors{0};
  std::size_t shards{0};
  FleetOutcome flat;
  FleetOutcome sharded;

  double speedup() const {
    return flat.ticks_per_sec() > 0.0
               ? sharded.ticks_per_sec() / flat.ticks_per_sec()
               : 0.0;
  }
  double ops_ratio() const {
    return sharded.total_ops > 0
               ? static_cast<double>(flat.total_ops) /
                     static_cast<double>(sharded.total_ops)
               : 0.0;
  }
};

// --- Part 3: loopback two-tier fleet ----------------------------------

struct NetOutcome {
  std::size_t shards{0};
  std::size_t monitors{0};
  std::int64_t root_polls{0};
  std::size_t root_alerts{0};
  std::int64_t escalations{0};
  std::int64_t summaries{0};
  std::int64_t subset_polls{0};
  double run_seconds{0.0};
};

NetOutcome run_net_fleet(std::size_t shards, std::size_t per_shard,
                         Tick ticks) {
  NetOutcome out;
  out.shards = shards;
  out.monitors = shards * per_shard;
  const double global_threshold = 2.0 * static_cast<double>(out.monitors);

  net::CoordinatorNodeOptions root_options;
  root_options.monitors = shards;
  root_options.total_weight = out.monitors;
  root_options.global_threshold = global_threshold;
  root_options.error_allowance = 0.04;
  net::CoordinatorNode root(root_options);

  std::vector<std::unique_ptr<net::AggregatorNode>> aggregators;
  for (std::uint32_t s = 0; s < shards; ++s) {
    net::AggregatorNodeOptions agg_options;
    agg_options.shard_id = s;
    agg_options.coordinator_port = root.port();
    agg_options.monitors = per_shard;
    agg_options.global_threshold =
        global_threshold / static_cast<double>(shards);
    agg_options.error_allowance = 0.04 / static_cast<double>(shards);
    agg_options.summary_interval_ms = 50;
    agg_options.heartbeat_interval_ms = 100;
    aggregators.push_back(std::make_unique<net::AggregatorNode>(agg_options));
  }

  std::vector<std::unique_ptr<CallableSource>> sources;
  std::vector<std::unique_ptr<net::MonitorNode>> nodes;
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t i = 0; i < per_shard; ++i) {
      // Monitor 0 of shard 0 carries a window heavy enough to push the
      // global aggregate over T through the escalation path.
      const bool hot = s == 0 && i == 0;
      const double spike = 3.0 * static_cast<double>(out.monitors);
      sources.push_back(std::make_unique<CallableSource>(
          [hot, spike, ticks](Tick t) {
            return hot && t >= ticks / 4 && t < ticks / 2 ? spike : 1.0;
          },
          ticks));
      net::MonitorNodeOptions mon_options;
      mon_options.id = static_cast<MonitorId>(i);
      mon_options.coordinator_port = aggregators[s]->port();
      mon_options.local_threshold =
          global_threshold / static_cast<double>(out.monitors);
      mon_options.sampler.error_allowance = 0.005;
      mon_options.sampler.patience = 3;
      mon_options.sampler.max_interval = 8;
      mon_options.ticks = ticks;
      mon_options.updating_period = 100;
      mon_options.tick_micros = 200;
      nodes.push_back(
          std::make_unique<net::MonitorNode>(mon_options, *sources.back()));
    }
  }

  const double t0 = bench::now_seconds();
  std::thread root_thread([&root] { root.run(); });
  std::vector<std::thread> aggregator_threads;
  for (auto& aggregator : aggregators) {
    aggregator_threads.emplace_back([&aggregator] { aggregator->run(); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<std::thread> monitor_threads;
  for (auto& node : nodes) {
    monitor_threads.emplace_back([&node] { node->run(); });
  }
  for (auto& t : monitor_threads) t.join();
  for (auto& t : aggregator_threads) t.join();
  root_thread.join();
  out.run_seconds = bench::now_seconds() - t0;

  out.root_polls = root.global_polls();
  out.root_alerts = root.alerts().size();
  for (const auto& aggregator : aggregators) {
    out.escalations += aggregator->escalations();
    out.summaries += aggregator->summaries_sent();
    out.subset_polls += aggregator->downstream().global_polls();
  }
  return out;
}

// --- driver -----------------------------------------------------------

void write_shard_json(bool quick, bool identity,
                      const std::vector<ScaleRow>& rows,
                      const NetOutcome& net) {
  std::FILE* f = std::fopen("BENCH_shard.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench shard: cannot write BENCH_shard.json\n");
    return;
  }
  std::fprintf(f, "{\"bench\":\"shard\",\"quick\":%s,\"identity\":%s,\"sim\":[",
               quick ? "true" : "false", identity ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "%s{\"monitors\":%zu,\"shards\":%zu,"
        "\"flat_ticks_per_sec\":%.1f,\"sharded_ticks_per_sec\":%.1f,"
        "\"speedup\":%.3f,\"flat_ops\":%lld,\"sharded_ops\":%lld,"
        "\"flat_forced_ops\":%lld,\"sharded_forced_ops\":%lld,"
        "\"ops_ratio\":%.3f,\"flat_polls\":%lld,\"subset_polls\":%lld,"
        "\"escalations\":%lld}",
        i == 0 ? "" : ",", r.monitors, r.shards, r.flat.ticks_per_sec(),
        r.sharded.ticks_per_sec(), r.speedup(),
        static_cast<long long>(r.flat.total_ops),
        static_cast<long long>(r.sharded.total_ops),
        static_cast<long long>(r.flat.forced_ops),
        static_cast<long long>(r.sharded.forced_ops), r.ops_ratio(),
        static_cast<long long>(r.flat.polls),
        static_cast<long long>(r.sharded.polls),
        static_cast<long long>(r.sharded.escalations));
  }
  std::fprintf(f,
               "],\"net\":{\"shards\":%zu,\"monitors\":%zu,"
               "\"root_polls\":%lld,\"root_alerts\":%zu,"
               "\"escalations\":%lld,\"summaries\":%lld,"
               "\"subset_polls\":%lld,\"run_seconds\":%.3f}}\n",
               net.shards, net.monitors,
               static_cast<long long>(net.root_polls), net.root_alerts,
               static_cast<long long>(net.escalations),
               static_cast<long long>(net.summaries),
               static_cast<long long>(net.subset_polls), net.run_seconds);
  std::fclose(f);
}

void run() {
  const bool quick = bench::quick();

  // (monitors, shards) ladder. Warmup is the untimed AIMD climb to Im; the
  // timed window holds timed/hot_every hot-block violation events.
  struct Size {
    std::size_t monitors;
    std::size_t shards;
  };
  std::vector<Size> sizes = {{10000, 8}, {100000, 32}, {1000000, 64}};
  Tick max_interval = 128;
  Tick warmup = 8600;  // AIMD climb to Im takes ~Im^2/2 ticks at patience 1
  Tick timed = 240;
  Tick hot_every = 30;
  Tick hot_window = 6;
  std::size_t hot_block = 64;
  std::size_t identity_monitors = 10000;
  if (quick) {
    sizes = {{2000, 8}, {10000, 16}};
    max_interval = 32;
    warmup = 700;
    timed = 160;
    hot_every = 20;
    hot_window = 4;
    hot_block = 16;
    identity_monitors = 1000;
  }

  bench::print_header(
      "Shard — two-tier coordination: subset polls contain local violations",
      "Section II-A one level up: Σ T_s = T, all subsets quiet ⇒ no global "
      "violation");
  std::printf(
      "quiet fleet pinned at Im=%lld; a %zu-monitor hot block trips local "
      "violations every %lld ticks. Flat answers each with an n-sample "
      "global poll, the shard tier with an n/S-sample subset poll.\n\n",
      static_cast<long long>(max_interval), hot_block,
      static_cast<long long>(hot_every));

  // Part 2 first (cheap): the S == 1 identity the tiers are built around.
  FleetShape identity_shape;
  identity_shape.monitors = identity_monitors;
  identity_shape.shards = 1;
  identity_shape.warmup = warmup;
  identity_shape.timed = timed;
  identity_shape.max_interval = max_interval;
  identity_shape.hot_every = hot_every;
  identity_shape.hot_window = hot_window;
  identity_shape.hot_block = hot_block;
  const auto identity_flat = run_flat(identity_shape);
  const auto identity_sharded = run_sharded(identity_shape);
  const bool identity = same_outcome(identity_flat, identity_sharded);
  if (!identity) {
    std::fprintf(stderr,
                 "bench shard: shards=1 diverged from the flat coordinator "
                 "at %zu monitors (identity violation)\n",
                 identity_monitors);
    std::exit(1);
  }
  std::printf("shards=1 identity at %zu monitors: ops/cost/polls/metrics "
              "all equal the flat coordinator\n\n",
              identity_monitors);

  bench::print_row({"monitors", "shards", "flat tk/s", "shard tk/s",
                    "speedup", "ops ratio"});
  std::vector<ScaleRow> rows;
  for (const auto& size : sizes) {
    FleetShape shape;
    shape.monitors = size.monitors;
    shape.shards = size.shards;
    shape.warmup = warmup;
    shape.timed = timed;
    shape.max_interval = max_interval;
    shape.hot_every = hot_every;
    shape.hot_window = hot_window;
    shape.hot_block = hot_block;

    ScaleRow row;
    row.monitors = size.monitors;
    row.shards = size.shards;
    row.flat = run_flat(shape);
    row.sharded = run_sharded(shape);
    if (row.sharded.escalations != 0) {
      std::fprintf(stderr,
                   "bench shard: unexpected escalation at %zu monitors — "
                   "the hot block leaked past T_s\n",
                   size.monitors);
      std::exit(1);
    }
    rows.push_back(row);
    bench::print_row({std::to_string(size.monitors),
                      std::to_string(size.shards),
                      bench::fmt(row.flat.ticks_per_sec(), 0),
                      bench::fmt(row.sharded.ticks_per_sec(), 0),
                      bench::fmt(row.speedup(), 2) + "x",
                      bench::fmt(row.ops_ratio(), 2) + "x"});
  }
  std::printf(
      "\n(speedup: sharded vs flat wall-clock over the hot window; ops "
      "ratio: flat/sharded sampling ops — the subset-poll containment. "
      "Detection is untouched: the hot block stays under T_s, no global "
      "violation either way.)\n\n");

  const std::size_t net_shards = 3;
  const std::size_t net_per_shard = 4;
  const Tick net_ticks = quick ? 300 : 400;
  const auto net = run_net_fleet(net_shards, net_per_shard, net_ticks);
  std::printf("loopback fleet: root + %zu aggregators + %zu monitors over "
              "%lld ticks in %.2f s\n",
              net.shards, net.monitors, static_cast<long long>(net_ticks),
              net.run_seconds);
  std::printf("  subset polls %lld, escalations %lld, summaries %lld, "
              "root polls %lld, root alerts %zu\n",
              static_cast<long long>(net.subset_polls),
              static_cast<long long>(net.escalations),
              static_cast<long long>(net.summaries),
              static_cast<long long>(net.root_polls), net.root_alerts);
  if (net.root_alerts == 0 || net.escalations == 0) {
    std::fprintf(stderr,
                 "bench shard: loopback fleet produced no escalation/alert "
                 "(two-tier detection path broken)\n");
    std::exit(1);
  }

  write_shard_json(quick, identity, rows, net);
  std::printf("\n-> BENCH_shard.json\n");
}

}  // namespace
}  // namespace volley

int main() {
  volley::run();
  return 0;
}
