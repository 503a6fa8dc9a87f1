// Due-index identity: Coordinator::run_tick must step exactly the monitors
// whose due(t) holds, in ascending id order, on every tick — the set and
// order the scan-all loop it replaced would step (tests/reference/
// scan_all.h keeps that loop as an oracle). The figure configurations
// (quick sizes) and a busy multi-monitor task run tick by tick under the
// oracle, and the production runner (sim/runner.h) must then reproduce the
// checked run's accounting exactly. The last cases feed the index the
// drains a large fleet makes: phase-locked bursts whose buckets hold
// several interleaved runs, a few due ids spread over a 10k-monitor fleet,
// and jumps past the ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/coordinator.h"
#include "core/error_allocation.h"
#include "reference/scan_all.h"
#include "sim/runner.h"
#include "tasks/network_task.h"
#include "trace/trace.h"

namespace volley {
namespace {

using reference::CheckedRun;

/// Runs every tick of `series` under the scan-all oracle, then asserts the
/// production runner's RunResult matches the checked run's accounting.
void check_against_runner(const TaskSpec& spec,
                          const std::vector<TimeSeries>& series,
                          const std::vector<double>& locals,
                          const RunResult& runner) {
  CheckedRun run(spec, series, locals, std::make_unique<AdaptiveAllocation>());
  for (Tick t = 0; t < series.front().ticks(); ++t) {
    ASSERT_TRUE(run.tick(t));
  }
  const Coordinator& c = run.coordinator();
  std::int64_t scheduled = 0, forced = 0;
  for (std::size_t i = 0; i < c.monitor_count(); ++i) {
    scheduled += c.monitor(i).scheduled_ops();
    forced += c.monitor(i).forced_ops();
  }
  EXPECT_EQ(runner.scheduled_ops, scheduled);
  EXPECT_EQ(runner.forced_ops, forced);
  EXPECT_EQ(runner.total_cost, c.total_cost());  // bit-exact, same op set
  EXPECT_EQ(runner.global_polls, c.global_polls());
  EXPECT_EQ(runner.reallocations, c.reallocations());
}

// --- figure configurations, quick sizes -------------------------------

std::vector<NetworkTask> fig5_style_tasks(double selectivity, double err) {
  NetworkWorkloadOptions options;
  options.netflow.vms = 4;
  options.netflow.ticks = 2880;  // half a day at 15 s
  options.netflow.ticks_per_day = 5760;
  options.netflow.diurnal_phase = 1440;
  options.netflow.diurnal_depth = 0.96;
  options.netflow.mean_flows_per_tick = 10.0;
  options.netflow.off_rate = 1.0 / 1200.0;
  options.netflow.on_rate = 1.0 / 1200.0;
  options.netflow.off_floor = 0.005;
  options.netflow.seed = 91;
  options.attack_prototype.peak_syn_rate = 2500.0;
  options.attack_prototype.ramp = 8;
  options.attack_prototype.plateau = 24;
  options.attack_prototype.decay = 8;
  options.attacks_per_vm = 2;
  options.seed = 93;
  NetworkWorkload workload(options);

  std::vector<NetworkTask> tasks;
  for (auto& vm : workload.generate_traffic()) {
    auto task = NetworkWorkload::make_task(std::move(vm), selectivity, err);
    task.spec.max_interval = 40;
    task.spec.estimator.stats_window = 240;
    tasks.push_back(std::move(task));
  }
  return tasks;
}

class Fig5Identity : public ::testing::TestWithParam<double> {};

TEST_P(Fig5Identity, ScanAndIndexAgreeByteForByte) {
  const double selectivity = GetParam();
  for (const auto& task : fig5_style_tasks(selectivity, 0.008)) {
    const GroundTruth truth =
        GroundTruth::from_series(task.traffic.rho, task.threshold);
    const auto runner = run_volley_single(task.spec, task.traffic.rho, truth);
    check_against_runner(task.spec, {task.traffic.rho},
                         {task.spec.global_threshold}, runner);
  }
}

INSTANTIATE_TEST_SUITE_P(Selectivities, Fig5Identity,
                         ::testing::Values(0.4, 3.2));

TEST(Fig6Identity, CpuWorkloadAgreesAcrossAllowances) {
  // Figure 6's recipe at quick size: busier traffic (higher flow volume,
  // shallower diurnal swing), k = 1, sweeping the error allowance.
  NetworkWorkloadOptions options;
  options.netflow.vms = 4;
  options.netflow.ticks = 1440;
  options.netflow.ticks_per_day = 5760;
  options.netflow.diurnal_phase = 720;
  options.netflow.diurnal_depth = 0.5;
  options.netflow.mean_flows_per_tick = 290.0;
  options.netflow.seed = 121;
  options.attack_prototype.peak_syn_rate = 20000.0;
  options.attacks_per_vm = 1;
  options.poisson_attack_counts = false;
  options.seed = 123;
  NetworkWorkload workload(options);
  const auto traffic = workload.generate_traffic();

  for (double err : {0.008, 0.032}) {
    for (const auto& vm : traffic) {
      VmTraffic copy;
      copy.rho = vm.rho;
      copy.in_packets = vm.in_packets;
      auto task = NetworkWorkload::make_task(std::move(copy), 1.0, err);
      task.spec.max_interval = 40;
      task.spec.estimator.stats_window = 240;
      const GroundTruth truth =
          GroundTruth::from_series(vm.rho, task.threshold);
      const auto runner = run_volley_single(task.spec, vm.rho, truth);
      check_against_runner(task.spec, {vm.rho}, {task.spec.global_threshold},
                           runner);
    }
  }
}

TEST(DistributedIdentity, PollsAndReallocationsAgree) {
  // A multi-monitor task busy enough to exercise every index-maintenance
  // path: scheduled steps, cached and forced poll samples, and allowance
  // reallocation rounds.
  Rng rng(4242);
  const Tick ticks = 6000;
  std::vector<TimeSeries> series;
  for (int m = 0; m < 5; ++m) {
    TimeSeries s(static_cast<std::size_t>(ticks));
    double x = 0.0;
    for (Tick t = 0; t < ticks; ++t) {
      x = 0.9 * x + rng.normal(0.0, 0.3);
      s[static_cast<std::size_t>(t)] = x;
    }
    series.push_back(std::move(s));
  }
  TaskSpec spec;
  spec.global_threshold =
      TimeSeries::sum(series).threshold_for_selectivity(2.0);
  spec.error_allowance = 0.02;
  spec.max_interval = 12;
  spec.updating_period = 500;
  const auto locals = split_threshold(spec.global_threshold, series.size());

  const auto runner = run_volley(spec, series, locals);
  ASSERT_GT(runner.global_polls, 0);
  ASSERT_GT(runner.reallocations, 0);
  check_against_runner(spec, series, locals, runner);
}

// --- direct Coordinator exercises -------------------------------------

std::vector<TimeSeries> walk_series(int monitors, Tick ticks,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TimeSeries> series;
  for (int m = 0; m < monitors; ++m) {
    TimeSeries s(static_cast<std::size_t>(ticks));
    double x = 0.0;
    for (Tick t = 0; t < ticks; ++t) {
      x = 0.85 * x + rng.normal(0.0, 0.4);
      s[static_cast<std::size_t>(t)] = x;
    }
    series.push_back(std::move(s));
  }
  return series;
}

TEST(DueIndex, FirstTickAfterZeroCatchesUp) {
  // run_dynamic_tasks creates a task mid-run and immediately calls
  // run_tick(arrival) with every monitor still scheduled at tick 0: the
  // due index must catch up over the jump exactly like the scan loop.
  const Tick ticks = 2000;
  const auto series = walk_series(3, ticks, 77);
  TaskSpec spec;
  spec.global_threshold =
      TimeSeries::sum(series).threshold_for_selectivity(2.0);
  spec.error_allowance = 0.02;
  spec.max_interval = 10;
  spec.updating_period = 400;
  const auto locals = split_threshold(spec.global_threshold, series.size());

  for (Tick start : {Tick{1}, Tick{7}, Tick{137}, Tick{500}}) {
    CheckedRun run(spec, series, locals,
                   std::make_unique<AdaptiveAllocation>());
    for (Tick t = start; t < ticks; ++t) {
      ASSERT_TRUE(run.tick(t)) << "start=" << start;
    }
    EXPECT_GT(run.coordinator().global_polls(), 0) << "start=" << start;
  }
}

TEST(DueIndex, WideDrainStepsExactlyTheDueMonitors) {
  // Enough monitors that sample ticks drain many at once, with polls and
  // reallocation rounds interleaved.
  const Tick ticks = 3000;
  const auto series = walk_series(24, ticks, 99);
  TaskSpec spec;
  spec.global_threshold =
      TimeSeries::sum(series).threshold_for_selectivity(1.0);
  spec.error_allowance = 0.03;
  spec.max_interval = 8;
  spec.updating_period = 300;
  const auto locals = split_threshold(spec.global_threshold, series.size());

  CheckedRun run(spec, series, locals, std::make_unique<AdaptiveAllocation>());
  std::size_t widest = 0;
  for (Tick t = 0; t < ticks; ++t) {
    widest = std::max(widest, reference::scan_due(run.coordinator(), t).size());
    ASSERT_TRUE(run.tick(t));
  }
  EXPECT_GE(widest, 8u);
  EXPECT_GT(run.coordinator().global_polls(), 0);
  EXPECT_GT(run.coordinator().reallocations(), 0);
}

// --- fleet-shaped drains ----------------------------------------------

/// Replays the order in which a due-index bucket lists its ids: newest
/// insertion first, and each tick that schedules monitors inserts them in
/// ascending id order. So a drained bucket reads as one descending run per
/// tick that filled it, and runs from different ticks interleave in id
/// space. Counts those runs over burst drains, to show that a case feeds
/// the index the input a phase-locked fleet makes.
class BucketRuns {
 public:
  static constexpr std::size_t kBurst = 256;  // ids in a burst drain

  explicit BucketRuns(const Coordinator& c)
      : c_(c), filled_at_(c.monitor_count(), 0), ops_(c.monitor_count(), 0) {}

  /// Before run_tick(t): the runs of the drain that tick makes.
  void before(Tick t) {
    std::vector<std::pair<Tick, MonitorId>> bucket;
    for (const MonitorId id : reference::scan_due(c_, t))
      bucket.emplace_back(filled_at_[id], id);
    std::sort(bucket.rbegin(), bucket.rend());  // newest first, ids descending
    if (bucket.size() < kBurst) return;
    std::size_t runs = 1;
    for (std::size_t i = 1; i < bucket.size(); ++i)
      runs += bucket[i].second > bucket[i - 1].second;
    ++bursts;
    max_runs = std::max(max_runs, runs);
  }

  /// After run_tick(t): every monitor that sampled at t was inserted at t.
  void after(Tick t) {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const std::int64_t ops = c_.monitor(i).total_ops();
      if (ops != ops_[i]) filled_at_[i] = t;
      ops_[i] = ops;
    }
  }

  std::size_t bursts{0};
  std::size_t max_runs{0};

 private:
  const Coordinator& c_;
  std::vector<Tick> filled_at_;
  std::vector<std::int64_t> ops_;
};

/// perfbench's quiet-fleet input: a noise floor far under a local
/// threshold of 1e-9, so the estimator certifies β̄ = 0 and a monitor on
/// it sits at Im.
constexpr double kQuietLocal = 1e-9;

TimeSeries noise_floor(Tick ticks, Rng& rng) {
  TimeSeries s(static_cast<std::size_t>(ticks));
  for (Tick t = 0; t < ticks; ++t)
    s[static_cast<std::size_t>(t)] = 1e-20 * rng.uniform();
  return s;
}

TaskSpec quiet_fleet_spec(std::size_t monitors) {
  TaskSpec spec;
  spec.global_threshold = kQuietLocal * static_cast<double>(monitors);
  spec.error_allowance = 0.01;
  spec.max_interval = 16;
  spec.patience = 3;
  spec.updating_period = 500;
  return spec;
}

/// A phase-locked quiet fleet of 1024 monitors. Most share one noise
/// floor and sit at Im, and every global poll phase-locks them into one
/// bucket. Four pool monitors ramp to 90% of their threshold and then
/// pulse far over T, which triggers the polls. Sixteen jittery monitors
/// are bumped off Im and regrow through every interval. Together they
/// leave several descending runs in each burst bucket, the input on which
/// sorting the drain was slow. Monitors borrow the fleet's series, so it
/// stays where it is built.
struct QuietFleet {
  static constexpr std::size_t kMonitors = 1024;

  QuietFleet(Tick ticks, std::uint64_t seed)
      : spec(quiet_fleet_spec(kMonitors)), locals(kMonitors, kQuietLocal) {
    Rng rng(seed);
    quiet = noise_floor(ticks, rng);
    pool.assign(4, quiet);
    for (Tick start = 450, k = 0; start + 60 < ticks; start += 230, ++k) {
      TimeSeries& s = pool[static_cast<std::size_t>(k) % pool.size()];
      for (Tick r = 0; r < 40; ++r) {
        s[static_cast<std::size_t>(start + r)] =
            0.9 * kQuietLocal * static_cast<double>(r + 1) / 40;
      }
      for (Tick r = 40; r < 42; ++r)
        s[static_cast<std::size_t>(start + r)] = 2.0 * spec.global_threshold;
    }
    jitter.assign(16, quiet);
    for (std::size_t j = 0; j < jitter.size(); ++j) {
      const Tick period = 37 + 11 * static_cast<Tick>(j);
      for (Tick t = period; t < ticks; t += period)
        jitter[j][static_cast<std::size_t>(t)] = 0.5 * kQuietLocal;
    }
    series.assign(kMonitors, &quiet);
    for (std::size_t k = 0; k < pool.size(); ++k)
      series[k * 256 + 7] = &pool[k];
    for (std::size_t j = 0; j < jitter.size(); ++j)
      series[100 + 57 * j] = &jitter[j];
  }
  QuietFleet(const QuietFleet&) = delete;
  QuietFleet& operator=(const QuietFleet&) = delete;

  TaskSpec spec;
  TimeSeries quiet;
  std::vector<TimeSeries> pool;
  std::vector<TimeSeries> jitter;
  std::vector<const TimeSeries*> series;
  std::vector<double> locals;
};

TEST(DueIndex, PhaseLockedQuietFleetDrainsInterleavedRunsInIdOrder) {
  constexpr Tick kTicks = 3000;
  const QuietFleet fleet(kTicks, 2207);
  CheckedRun run(fleet.spec, fleet.series, fleet.locals,
                 std::make_unique<AdaptiveAllocation>());
  BucketRuns runs(run.coordinator());
  for (Tick t = 0; t < kTicks; ++t) {
    runs.before(t);
    ASSERT_TRUE(run.tick(t));
    runs.after(t);
  }
  EXPECT_GE(run.coordinator().global_polls(), 5);
  EXPECT_GT(runs.bursts, 50u);
  EXPECT_GE(runs.max_runs, 4u);  // buckets held interleaved runs
}

TEST(DueIndex, SparseDrainInALargeFleetStepsOnlyTheFewDue) {
  // A few monitors at I = 1 inside a 10240-monitor quiet fleet, at the
  // fleet's edges and on both sides of a 64-id word boundary: most ticks
  // drain only them, far apart in id space.
  constexpr std::size_t kMonitors = 10240;
  constexpr Tick kTicks = 700;
  const TaskSpec spec = quiet_fleet_spec(kMonitors);
  Rng rng(2209);
  const TimeSeries quiet = noise_floor(kTicks, rng);
  const std::vector<MonitorId> busy{0, 63, 64, 5000, 10239};
  std::vector<TimeSeries> noisy;
  for (std::size_t k = 0; k < busy.size(); ++k) {
    TimeSeries s(static_cast<std::size_t>(kTicks));
    for (Tick t = 0; t < kTicks; ++t)
      s[static_cast<std::size_t>(t)] = kQuietLocal * rng.uniform(0.2, 0.8);
    noisy.push_back(std::move(s));
  }
  std::vector<const TimeSeries*> series(kMonitors, &quiet);
  for (std::size_t k = 0; k < busy.size(); ++k) series[busy[k]] = &noisy[k];
  const std::vector<double> locals(kMonitors, kQuietLocal);

  CheckedRun run(spec, series, locals, std::make_unique<AdaptiveAllocation>());
  std::size_t sparse = 0;
  for (Tick t = 0; t < kTicks; ++t) {
    const auto due = reference::scan_due(run.coordinator(), t);
    if (due == busy) ++sparse;
    ASSERT_TRUE(run.tick(t));
  }
  EXPECT_EQ(run.coordinator().global_polls(), 0);
  EXPECT_GT(sparse, static_cast<std::size_t>(kTicks) / 2);
}

TEST(DueIndex, JumpLongerThanTheWindowDrainsEveryBucketInIdOrder) {
  // Ticks that skip ahead drain several buckets at once. Past the ring
  // (window = Im + 2 ticks) every monitor is due, so the drain holds the
  // whole fleet, read back from every slot: the phase-locked bulk from one
  // and the jittery monitors from others.
  constexpr Tick kTicks = 6000;
  const QuietFleet fleet(kTicks, 2211);
  CheckedRun run(fleet.spec, fleet.series, fleet.locals,
                 std::make_unique<AdaptiveAllocation>());
  const Tick window = fleet.spec.max_interval + 2;
  for (Tick t = 0; t < 600; ++t) ASSERT_TRUE(run.tick(t));
  std::size_t whole_fleet = 0;
  Tick t = 600;
  for (const Tick jump : {Tick{2}, Tick{5}, window - 1, window, window + 1,
                          3 * window, Tick{500}, window + 1}) {
    t += jump - 1;
    if (jump > window) {
      EXPECT_EQ(reference::scan_due(run.coordinator(), t).size(),
                QuietFleet::kMonitors);
      ++whole_fleet;
    }
    ASSERT_TRUE(run.tick(t)) << "after a jump of " << jump;
    for (const Tick stop = t + 150; ++t < stop;) ASSERT_TRUE(run.tick(t));
  }
  EXPECT_EQ(whole_fleet, 4u);
  EXPECT_GT(run.coordinator().global_polls(), 0);
}

}  // namespace
}  // namespace volley
