// The paper's testbed at full scale, in-process: 20 hosts x 40 VMs =
// 800 VMs, one DDoS-monitoring task per hosted application (8 monitors
// each, 100 tasks). Tasks are independent coordinators, so each one
// runs on its own tick loop (run_volley) at the network default interval.
//
//   build/examples/datacenter_scale
#include <cstdio>
#include <vector>

#include "core/threshold_split.h"
#include "sim/datacenter.h"
#include "sim/runner.h"
#include "tasks/network_task.h"

using namespace volley;

int main() {
  Datacenter datacenter;  // 20 hosts, 40 VMs each
  const Tick ticks = 2880;  // half a day at 15 s

  NetworkWorkloadOptions options;
  options.netflow.vms = datacenter.vm_count();
  options.netflow.ticks = ticks;
  options.netflow.ticks_per_day = 5760;
  options.netflow.diurnal_phase = 1440;
  options.netflow.mean_flows_per_tick = 10.0;
  options.netflow.seed = 31;
  options.attack_prototype.peak_syn_rate = 1500.0;
  options.attacks_per_vm = 1;
  options.seed = 33;
  NetworkWorkload workload(options);
  std::printf("generating traffic for %zu VMs...\n", datacenter.vm_count());
  auto traffic = workload.generate_traffic();

  // One distributed task per hosted application: 8 VMs each (100 tasks
  // over the 800 VMs). Aggregating many independent near-zero-mean rho
  // series into one task is ill-conditioned — local thresholds become so
  // tight that every tick polls — so tasks follow application boundaries,
  // as in the paper's scenarios.
  constexpr std::size_t kVmsPerApp = 8;
  const std::size_t apps = datacenter.vm_count() / kVmsPerApp;
  std::printf("running %zu tasks (%zu monitors)...\n", apps,
              datacenter.vm_count());
  std::int64_t total_ops = 0, total_polls = 0, total_alerts = 0;
  for (std::size_t app = 0; app < apps; ++app) {
    std::vector<TimeSeries> series;
    for (std::size_t i = 0; i < kVmsPerApp; ++i) {
      series.push_back(traffic[app * kVmsPerApp + i].rho);
    }
    const TimeSeries aggregate = TimeSeries::sum(series);
    TaskSpec spec;
    spec.global_threshold = aggregate.threshold_for_selectivity(0.5);
    spec.error_allowance = 0.02;
    spec.id_seconds = 15.0;
    spec.max_interval = 20;
    spec.estimator.stats_window = 240;
    // Local thresholds proportional to each VM's benign noise scale
    // (robust p90-p10 spread — attack ticks are too few to move it), so
    // every monitor gets the same margin in its own sigma units.
    const auto locals = split_by_spread(spec.global_threshold, series);
    const RunResult result = run_volley(spec, series, locals);
    total_ops += result.total_ops();
    total_polls += result.global_polls;
    // Every poll that found the aggregate above T is a true alert tick.
    total_alerts += result.detected_alert_ticks;
  }
  const auto periodic_ops =
      static_cast<std::int64_t>(datacenter.vm_count()) * ticks;
  std::printf("\nsampling ops: %lld vs %lld periodic (%.0f%% saved)\n",
              static_cast<long long>(total_ops),
              static_cast<long long>(periodic_ops),
              100.0 * (1.0 - static_cast<double>(total_ops) /
                                 static_cast<double>(periodic_ops)));
  std::printf("global polls: %lld, state alerts: %lld\n",
              static_cast<long long>(total_polls),
              static_cast<long long>(total_alerts));
  return 0;
}
