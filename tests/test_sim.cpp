// Unit tests for the simulation substrate: Dom0 cost model, datacenter
// topology, ground truth and detection scoring.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/cost_model.h"
#include "sim/datacenter.h"
#include "sim/experiment.h"

namespace volley {
namespace {

TEST(CostModel, OpCostIsAffineInPackets) {
  CostModelOptions o;
  o.fixed_cost_seconds = 0.02;
  o.per_packet_cost_seconds = 1e-5;
  Dom0CostModel model(o);
  EXPECT_NEAR(model.op_cost_seconds(0), 0.02, 1e-12);
  EXPECT_NEAR(model.op_cost_seconds(1000), 0.03, 1e-12);
  EXPECT_THROW(model.op_cost_seconds(-1), std::invalid_argument);
}

TEST(CostModel, DefaultCalibrationMatchesPaperBand) {
  // 40 VMs sampled every tick at ~3000 packets/window must land inside the
  // paper's measured 20-34% Dom0 band (documented in cost_model.h).
  Dom0CostModel model;
  const double util =
      40.0 * model.op_cost_seconds(3000.0) / model.options().window_seconds;
  EXPECT_GT(util, 0.20);
  EXPECT_LT(util, 0.34);
}

TEST(CostModel, HostUtilizationAggregatesVmOps) {
  CostModelOptions o;
  o.fixed_cost_seconds = 1.5;  // cost per op
  o.per_packet_cost_seconds = 0.0;
  o.window_seconds = 15.0;
  Dom0CostModel model(o);
  std::vector<std::vector<Tick>> ops{{0, 2}, {0}};
  std::vector<TimeSeries> packets{TimeSeries(3, 0.0), TimeSeries(3, 0.0)};
  const auto util = model.host_utilization(3, ops, packets);
  EXPECT_NEAR(util[0], 2 * 1.5 / 15.0, 1e-12);  // both VMs sampled
  EXPECT_NEAR(util[1], 0.0, 1e-12);
  EXPECT_NEAR(util[2], 1.5 / 15.0, 1e-12);
}

TEST(CostModel, RejectsBadInputs) {
  Dom0CostModel model;
  std::vector<std::vector<Tick>> ops{{5}};
  std::vector<TimeSeries> packets{TimeSeries(3, 0.0)};
  EXPECT_THROW(model.host_utilization(3, ops, packets), std::out_of_range);
  std::vector<TimeSeries> wrong{};
  EXPECT_THROW(model.host_utilization(3, ops, wrong), std::invalid_argument);
}

TEST(Datacenter, PaperTopologyCounts) {
  Datacenter dc;  // defaults = the paper's testbed
  EXPECT_EQ(dc.vm_count(), 800u);
}

TEST(GroundTruth, FindsTicksAndEpisodes) {
  TimeSeries s(std::vector<double>{0, 5, 5, 0, 5, 0, 0, 5});
  const auto truth = GroundTruth::from_series(s, 3.0);
  EXPECT_EQ(truth.alert_ticks, 4);
  ASSERT_EQ(truth.episodes.size(), 3u);
  EXPECT_EQ(truth.episodes[0], (std::pair<Tick, Tick>{1, 3}));
  EXPECT_EQ(truth.episodes[1], (std::pair<Tick, Tick>{4, 5}));
  EXPECT_EQ(truth.episodes[2], (std::pair<Tick, Tick>{7, 8}));
}

TEST(GroundTruth, ThresholdIsStrict) {
  TimeSeries s(std::vector<double>{3.0, 3.0001});
  const auto truth = GroundTruth::from_series(s, 3.0);
  EXPECT_EQ(truth.alert_ticks, 1);
}

TEST(ScoreDetection, PerTickAndPerEpisode) {
  TimeSeries s(std::vector<double>{0, 5, 5, 0, 5, 0});
  const auto truth = GroundTruth::from_series(s, 3.0);
  RunResult r;
  r.ticks = 6;
  r.monitors = 1;
  // Detect only the first tick of the first episode.
  std::vector<char> detected{0, 1, 0, 0, 0, 0};
  score_detection(r, truth, detected);
  EXPECT_EQ(r.true_alert_ticks, 3);
  EXPECT_EQ(r.detected_alert_ticks, 1);
  EXPECT_EQ(r.true_episodes, 2);
  EXPECT_EQ(r.detected_episodes, 1);
  EXPECT_NEAR(r.tick_miss_rate(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.episode_miss_rate(), 0.5, 1e-12);
}

TEST(ScoreDetection, NoAlertsMeansZeroMissRate) {
  TimeSeries s(std::vector<double>{0, 0, 0});
  const auto truth = GroundTruth::from_series(s, 3.0);
  RunResult r;
  std::vector<char> detected{0, 0, 0};
  score_detection(r, truth, detected);
  EXPECT_DOUBLE_EQ(r.tick_miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(r.episode_miss_rate(), 0.0);
}

TEST(RunResult, SamplingRatioAgainstPeriodicReference) {
  RunResult r;
  r.ticks = 100;
  r.monitors = 2;
  r.scheduled_ops = 40;
  r.forced_ops = 10;
  EXPECT_EQ(r.periodic_ops(), 200);
  EXPECT_DOUBLE_EQ(r.sampling_ratio(), 0.25);
}

}  // namespace
}  // namespace volley
