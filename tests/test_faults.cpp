// Tests for fault injection (the fault model and run_volley_faulty) and the
// threshold-split strategies:
// graceful degradation under message loss, stale-value fallbacks during
// outages, and the conditioning properties of the split strategies.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "core/threshold_split.h"
#include "sim/faults.h"
#include "sim/runner.h"

namespace volley {
namespace {

TimeSeries noisy_series(Tick ticks, std::uint64_t seed, double sigma,
                        double burst_at = -1, double burst_value = 0,
                        Tick burst_len = 0) {
  Rng rng(seed);
  TimeSeries s(static_cast<std::size_t>(ticks));
  for (Tick t = 0; t < ticks; ++t) {
    double v = rng.normal(0.0, sigma);
    if (burst_at >= 0 && t >= burst_at && t < burst_at + burst_len) {
      v += burst_value;
    }
    s[static_cast<std::size_t>(t)] = v;
  }
  return s;
}

TaskSpec spec_for(double threshold) {
  TaskSpec spec;
  spec.global_threshold = threshold;
  spec.error_allowance = 0.04;
  spec.max_interval = 16;
  spec.updating_period = 500;
  return spec;
}

TEST(FaultPlan, Validation) {
  FaultPlan plan;
  plan.violation_report_loss = 1.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = FaultPlan{};
  plan.outages.push_back(MonitorOutage{0, 10, 5});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlan, RejectsEmptyAndOverlappingOutageWindows) {
  FaultPlan plan;
  plan.outages.push_back(MonitorOutage{0, 10, 10});  // empty: end == start
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  plan = FaultPlan{};
  plan.outages.push_back(MonitorOutage{0, 0, 100});
  plan.outages.push_back(MonitorOutage{0, 50, 150});  // overlaps the first
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  // Order in the plan must not matter: the same overlap listed backwards.
  plan = FaultPlan{};
  plan.outages.push_back(MonitorOutage{0, 50, 150});
  plan.outages.push_back(MonitorOutage{0, 0, 100});
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  // Back-to-back windows (end is exclusive) and overlaps across *different*
  // monitors are both legitimate plans.
  plan = FaultPlan{};
  plan.outages.push_back(MonitorOutage{0, 0, 100});
  plan.outages.push_back(MonitorOutage{0, 100, 150});
  plan.outages.push_back(MonitorOutage{1, 50, 150});
  EXPECT_NO_THROW(plan.validate());
}

TEST(NetFaultPlan, Validation) {
  NetFaultPlan plan;
  EXPECT_NO_THROW(plan.validate());
  plan.heartbeat_loss = 1.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = NetFaultPlan{};
  plan.delay_prob = 0.5;  // delaying with delay_ms == 0 makes no sense
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.delay_ms = 20;
  EXPECT_NO_THROW(plan.validate());
  plan = NetFaultPlan{};
  plan.disconnect_after_frames = 0;  // -1 disables, positive counts frames
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = NetFaultPlan{};
  plan.message_loss.violation_report_loss = 1.5;  // nested plan is checked
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

// An empty plan is the reliable protocol: every RunResult field, the
// run-scoped metrics snapshot included, equals run_volley's.
TEST(FaultyRun, NoFaultsMatchesHealthyDetection) {
  std::vector<TimeSeries> series{
      noisy_series(4000, 1, 0.1, 2000, 5.0, 60),
      noisy_series(4000, 2, 0.1)};
  const std::vector<double> locals{2.0, 2.0};
  const auto faulty =
      run_volley_faulty(spec_for(4.0), series, locals, FaultPlan{});
  const auto healthy = run_volley(spec_for(4.0), series, locals);
  EXPECT_EQ(faulty.lost_reports, 0);
  EXPECT_EQ(faulty.lost_responses, 0);
  EXPECT_EQ(faulty.stale_polls, 0);
  EXPECT_EQ(faulty.outage_monitor_ticks, 0);
  EXPECT_GT(faulty.run.true_episodes, 0);
  EXPECT_EQ(faulty.run.detected_episodes, faulty.run.true_episodes);

  const RunResult& a = faulty.run;
  const RunResult& b = healthy;
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.monitors, b.monitors);
  EXPECT_EQ(a.scheduled_ops, b.scheduled_ops);
  EXPECT_EQ(a.forced_ops, b.forced_ops);
  EXPECT_EQ(a.total_cost, b.total_cost);
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

// RunResult::metrics_json is run-scoped for fault runs too: a second
// identical run in the same process reports the same counters, not a
// cumulative total.
TEST(FaultyRun, RepeatedRunsReportIdenticalMetrics) {
  std::vector<TimeSeries> series{
      noisy_series(3000, 17, 0.05, 1500, 5.0, 50),
      noisy_series(3000, 18, 0.05)};
  const std::vector<double> locals{2.0, 2.0};
  FaultPlan plan;
  plan.violation_report_loss = 0.2;
  plan.poll_response_loss = 0.2;
  plan.outages.push_back(MonitorOutage{1, 400, 600});
  const auto first = run_volley_faulty(spec_for(4.0), series, locals, plan);
  const auto second = run_volley_faulty(spec_for(4.0), series, locals, plan);
  EXPECT_FALSE(first.run.metrics_json.empty());
  EXPECT_EQ(first.run.metrics_json, second.run.metrics_json);
  EXPECT_EQ(first.lost_reports, second.lost_reports);
  EXPECT_EQ(first.lost_responses, second.lost_responses);
}

TEST(FaultModel, OutageWindowsOfOneMonitorCountOnce) {
  // Two overlapping windows on monitor 0 (as two fault profiles hitting
  // one monitor produce), one on monitor 2.
  const FaultModel faults({}, {{0, 10, 30}, {0, 20, 40}, {2, 5, 8}}, 1);
  EXPECT_FALSE(faults.down(0, 9));
  EXPECT_TRUE(faults.down(0, 10));
  EXPECT_TRUE(faults.down(0, 39));
  EXPECT_FALSE(faults.down(0, 40));
  EXPECT_FALSE(faults.down(1, 20));
  EXPECT_TRUE(faults.down(2, 7));
  EXPECT_FALSE(faults.down(7, 7));  // no windows at all
  EXPECT_EQ(faults.outage_ticks(0, 0, 100), 30);
  EXPECT_EQ(faults.outage_ticks(0, 25, 35), 10);
  EXPECT_EQ(faults.outage_ticks(2, 0, 6), 1);
  EXPECT_EQ(faults.outage_ticks(1, 0, 100), 0);
}

TEST(FaultModel, OverlappingLossWindowsComposeAsIndependentDrops) {
  const FaultModel faults({{0, 100, 0.5, 0.0}, {50, 150, 0.5, 0.2}}, {}, 1);
  EXPECT_DOUBLE_EQ(faults.report_loss_at(10), 0.5);
  EXPECT_DOUBLE_EQ(faults.report_loss_at(60), 0.75);
  EXPECT_DOUBLE_EQ(faults.response_loss_at(60), 0.2);
  EXPECT_DOUBLE_EQ(faults.report_loss_at(200), 0.0);
}

TEST(FaultyRun, ReportLossDropsDetections) {
  // Single-tick spikes: each missed report is a missed alert instant.
  Rng rng(7);
  TimeSeries spiky(8000, 0.0);
  for (Tick t = 100; t < 8000; t += 100) {
    spiky[static_cast<std::size_t>(t)] = 10.0;
  }
  TimeSeries quiet = noisy_series(8000, 3, 0.01);
  std::vector<TimeSeries> series{spiky, quiet};
  const std::vector<double> locals{3.0, 3.0};

  FaultPlan lossy;
  lossy.violation_report_loss = 0.5;
  const auto healthy =
      run_volley_faulty(spec_for(6.0), series, locals, FaultPlan{});
  const auto faulty =
      run_volley_faulty(spec_for(6.0), series, locals, lossy);
  EXPECT_GT(faulty.lost_reports, 10);
  EXPECT_LT(faulty.run.detected_alert_ticks, healthy.run.detected_alert_ticks);
  // Roughly half the reports survive.
  const double survived =
      static_cast<double>(faulty.run.detected_alert_ticks) /
      static_cast<double>(healthy.run.detected_alert_ticks);
  EXPECT_NEAR(survived, 0.5, 0.2);
}

TEST(FaultyRun, ResponseLossUsesStaleValues) {
  std::vector<TimeSeries> series{
      noisy_series(3000, 4, 0.05, 1500, 5.0, 50),
      noisy_series(3000, 5, 0.05)};
  const std::vector<double> locals{2.0, 2.0};
  FaultPlan lossy;
  lossy.poll_response_loss = 0.5;
  const auto faulty = run_volley_faulty(spec_for(4.0), series, locals, lossy);
  EXPECT_GT(faulty.lost_responses, 0);
  EXPECT_GT(faulty.stale_polls, 0);
  // The violating monitor itself reports fresh values often enough that
  // the sustained episode is still found.
  EXPECT_EQ(faulty.run.detected_episodes, faulty.run.true_episodes);
}

TEST(FaultyRun, OutageSilencesAMonitor) {
  std::vector<TimeSeries> series{
      noisy_series(2000, 6, 0.05, 1000, 5.0, 40),
      noisy_series(2000, 7, 0.05)};
  const std::vector<double> locals{2.0, 2.0};
  FaultPlan plan;
  // The spiking monitor is down exactly during its violation window.
  plan.outages.push_back(MonitorOutage{0, 990, 1050});
  const auto faulty = run_volley_faulty(spec_for(4.0), series, locals, plan);
  EXPECT_GT(faulty.outage_monitor_ticks, 0);
  EXPECT_EQ(faulty.run.detected_episodes, 0);  // nobody saw it
  const auto healthy =
      run_volley_faulty(spec_for(4.0), series, locals, FaultPlan{});
  EXPECT_GT(healthy.run.detected_episodes, 0);
}

TEST(FaultyRun, OutageOfBystanderKeepsDetection) {
  std::vector<TimeSeries> series{
      noisy_series(2000, 8, 0.05, 1000, 5.0, 40),
      noisy_series(2000, 9, 0.05)};
  const std::vector<double> locals{2.0, 2.0};
  FaultPlan plan;
  plan.outages.push_back(MonitorOutage{1, 900, 1100});  // quiet monitor down
  const auto faulty = run_volley_faulty(spec_for(4.0), series, locals, plan);
  // Stale value of the quiet monitor (~0) still lets the aggregate cross.
  EXPECT_EQ(faulty.run.detected_episodes, faulty.run.true_episodes);
  EXPECT_GT(faulty.stale_polls, 0);
}

// --- threshold-split strategies ------------------------------------

TEST(ThresholdSplit, SpreadGivesNoisyMonitorsMoreRoom) {
  std::vector<TimeSeries> series{noisy_series(5000, 10, 1.0),
                                 noisy_series(5000, 11, 0.1)};
  const auto t = split_by_spread(10.0, series);
  EXPECT_GT(t[0], t[1]);
  EXPECT_NEAR(t[0] / t[1], 10.0, 3.0);  // roughly the sigma ratio
  EXPECT_NEAR(std::accumulate(t.begin(), t.end(), 0.0), 10.0, 1e-9);
}

TEST(ThresholdSplit, SpreadEqualizesViolationRates) {
  // With per-sigma-proportional thresholds, heterogeneous monitors get
  // comparable local violation rates — the conditioning property.
  std::vector<TimeSeries> series{noisy_series(50000, 12, 2.0),
                                 noisy_series(50000, 13, 0.2)};
  const double T = 12.0;
  const auto locals = split_by_spread(T, series);
  std::vector<double> rates;
  for (std::size_t i = 0; i < series.size(); ++i) {
    int violations = 0;
    for (std::size_t t = 0; t < series[i].size(); ++t) {
      if (series[i][t] > locals[i]) ++violations;
    }
    rates.push_back(static_cast<double>(violations) /
                    static_cast<double>(series[i].size()));
  }
  // Same margin in sigma units -> rates within a small factor.
  if (rates[1] > 0) {
    EXPECT_LT(rates[0] / rates[1], 10.0);
  }
}

TEST(ThresholdSplit, Validation) {
  EXPECT_THROW(split_by_spread(1.0, {}), std::invalid_argument);
  std::vector<TimeSeries> one{noisy_series(100, 16, 1.0)};
  EXPECT_THROW(split_by_spread(1.0, one, 90.0, 10.0), std::invalid_argument);
}

}  // namespace
}  // namespace volley
