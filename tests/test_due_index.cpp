// Due-index identity: Coordinator::run_tick must step exactly the monitors
// whose due(t) holds, in ascending id order, on every tick — the set and
// order the scan-all loop it replaced would step (tests/reference/
// scan_all.h keeps that loop as an oracle). The figure configurations
// (quick sizes) and a busy multi-monitor task run tick by tick under the
// oracle, and the production runner (sim/runner.h) must then reproduce the
// checked run's accounting exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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

TEST(DueIndex, BatchedDrainStepsExactlyTheDueMonitors) {
  // Enough monitors that sample ticks take the batched β̄ drain, with polls
  // and reallocation rounds interleaved.
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
  EXPECT_GE(widest, 8u);  // the batched drain ran
  EXPECT_GT(run.coordinator().global_polls(), 0);
  EXPECT_GT(run.coordinator().reallocations(), 0);
}

}  // namespace
}  // namespace volley
