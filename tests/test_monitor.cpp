// Unit tests for core::Monitor: scheduling, local violations, forced
// samples (global polls), op accounting and coordination statistics.
#include <gtest/gtest.h>

#include "core/metric_source.h"
#include "core/monitor.h"

namespace volley {
namespace {

AdaptiveSamplerOptions fast_growth() {
  AdaptiveSamplerOptions o;
  o.error_allowance = 0.1;
  o.patience = 2;
  o.max_interval = 8;
  return o;
}

TEST(Monitor, DueAtStartAndAfterInterval) {
  CallableSource source([](Tick) { return 0.0; }, 1000);
  Monitor monitor(0, source, fast_growth(), 100.0);
  EXPECT_TRUE(monitor.due(0));
  monitor.step(0);
  EXPECT_EQ(monitor.next_sample_tick(), 1);  // starts at the default interval
  EXPECT_FALSE(monitor.due(0));
  EXPECT_TRUE(monitor.due(1));
}

TEST(Monitor, StepWhenNotDueThrows) {
  CallableSource source([](Tick) { return 0.0; }, 1000);
  Monitor monitor(0, source, fast_growth(), 100.0);
  monitor.step(0);
  EXPECT_THROW(monitor.step(0), std::logic_error);
}

TEST(Monitor, DetectsLocalViolation) {
  CallableSource source([](Tick t) { return t == 5 ? 50.0 : 0.0; }, 1000);
  Monitor monitor(0, source, fast_growth(), 10.0);
  for (Tick t = 0; t <= 5; ++t) {
    if (!monitor.due(t)) continue;
    const auto outcome = monitor.step(t);
    EXPECT_EQ(outcome.local_violation, t == 5);
  }
  EXPECT_EQ(monitor.local_violations(), 1);
}

TEST(Monitor, GrowsIntervalOnQuietSource) {
  CallableSource source([](Tick t) { return 0.01 * (t % 2); }, 10000);
  Monitor monitor(0, source, fast_growth(), 1000.0);
  for (Tick t = 0; t < 200; ++t) {
    if (monitor.due(t)) monitor.step(t);
  }
  EXPECT_GT(monitor.interval(), 1);
  // Far fewer ops than ticks.
  EXPECT_LT(monitor.scheduled_ops(), 150);
}

TEST(Monitor, ForcedSampleCountsSeparately) {
  CallableSource source([](Tick) { return 1.0; }, 1000);
  Monitor monitor(0, source, fast_growth(), 10.0);
  monitor.step(0);
  const auto outcome = monitor.force_sample(3);
  EXPECT_EQ(outcome.reason, SampleReason::kGlobalPoll);
  EXPECT_DOUBLE_EQ(outcome.sample.value, 1.0);
  EXPECT_EQ(monitor.scheduled_ops(), 1);
  EXPECT_EQ(monitor.forced_ops(), 1);
}

TEST(Monitor, ForcedSampleAtSameTickIsFree) {
  int reads = 0;
  CallableSource source(
      [&reads](Tick) {
        ++reads;
        return 2.0;
      },
      1000);
  Monitor monitor(0, source, fast_growth(), 10.0);
  monitor.step(0);
  const int reads_after_step = reads;
  const auto outcome = monitor.force_sample(0);  // same tick: cached
  EXPECT_DOUBLE_EQ(outcome.sample.value, 2.0);
  EXPECT_EQ(reads, reads_after_step);  // no second collection
  EXPECT_EQ(monitor.forced_ops(), 0);
}

TEST(Monitor, ForcedSampleReschedulesNextSample) {
  CallableSource source([](Tick) { return 0.0; }, 10000);
  Monitor monitor(0, source, fast_growth(), 1000.0);
  monitor.step(0);
  monitor.force_sample(5);
  // The forced observation restarts the schedule from tick 5.
  EXPECT_GE(monitor.next_sample_tick(), 6);
}

TEST(Monitor, TimeMustMoveForward) {
  CallableSource source([](Tick) { return 0.0; }, 1000);
  Monitor monitor(0, source, fast_growth(), 10.0);
  monitor.force_sample(10);
  EXPECT_THROW(monitor.force_sample(5), std::logic_error);
  // A scheduled step at an already-sampled tick is a logic error too.
  EXPECT_THROW(monitor.step(10), std::logic_error);
}

TEST(Monitor, CoordStatsAverageAndDrain) {
  CallableSource source([](Tick t) { return 0.01 * (t % 2); }, 10000);
  Monitor monitor(0, source, fast_growth(), 1000.0);
  for (Tick t = 0; t < 100; ++t) {
    if (monitor.due(t)) monitor.step(t);
  }
  const auto stats = monitor.drain_coord_stats();
  EXPECT_GT(stats.observations, 0);
  EXPECT_GE(stats.avg_gain, 0.0);
  EXPECT_GE(stats.avg_allowance, 0.0);
  // Drained: the next call starts fresh.
  const auto empty = monitor.drain_coord_stats();
  EXPECT_EQ(empty.observations, 0);
}

TEST(Monitor, TotalCostAccumulatesSourceCosts) {
  class CostlySource final : public MetricSource {
   public:
    double value_at(Tick) const override { return 0.0; }
    Tick length() const override { return 1000; }
    double sampling_cost(Tick t) const override {
      return static_cast<double>(t + 1);
    }
  };
  CostlySource source;
  Monitor monitor(0, source, fast_growth(), 10.0);
  monitor.step(0);        // cost 1
  monitor.force_sample(2);  // cost 3
  EXPECT_DOUBLE_EQ(monitor.total_cost(), 4.0);
}

TEST(Monitor, AllowanceUpdatePropagatesToSampler) {
  CallableSource source([](Tick) { return 0.0; }, 1000);
  Monitor monitor(0, source, fast_growth(), 10.0);
  monitor.set_error_allowance(0.42);
  EXPECT_DOUBLE_EQ(monitor.error_allowance(), 0.42);
  EXPECT_DOUBLE_EQ(monitor.sampler().error_allowance(), 0.42);
}

}  // namespace
}  // namespace volley
