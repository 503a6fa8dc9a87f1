// Golden digests of the simulation entry points over a fixed seed grid.
//
// Every RunResult field is pinned: counts, cost, the accuracy fields, an
// FNV-1a hash of op_ticks / interval_trajectory and of metrics_json, plus
// the soak report of every committed scenario. The digests in
// tests/golden/sim_runs.txt are the identity gate for refactors of the sim
// drivers: a change that moves the tick loop around must leave every line
// unchanged. On a mismatch the test prints the actual line and writes the
// full actual set to sim_runs.actual.txt in the working directory.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "scenario/soak.h"
#include "sim/faults.h"
#include "sim/runner.h"
#include "sim_grid.h"

namespace volley {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string digest(const RunResult& r, bool with_metrics = true) {
  std::ostringstream ops;
  for (const auto& ticks : r.op_ticks) {
    for (const Tick t : ticks) ops << t << ',';
    ops << ';';
  }
  std::ostringstream intervals;
  for (const Tick i : r.interval_trajectory) intervals << i << ',';
  std::ostringstream out;
  out << "ticks=" << r.ticks << " monitors=" << r.monitors
      << " sched=" << r.scheduled_ops << " forced=" << r.forced_ops
      << " cost=" << fmt(r.total_cost) << " alert_ticks="
      << r.detected_alert_ticks << '/' << r.true_alert_ticks
      << " episodes=" << r.detected_episodes << '/' << r.true_episodes
      << " lv=" << r.local_violations << " polls=" << r.global_polls
      << " realloc=" << r.reallocations << " op_ticks="
      << hex(fnv1a(ops.str())) << " intervals="
      << hex(fnv1a(intervals.str()));
  if (with_metrics) out << " metrics=" << hex(fnv1a(r.metrics_json));
  return out.str();
}

std::map<std::string, std::string> compute_entries() {
  std::map<std::string, std::string> out;
  constexpr Tick kTicks = 3000;

  // Flat run_volley at 2, 20 and 64 monitors, with op/interval recording.
  for (const std::size_t n : {2u, 20u, 64u}) {
    const auto series = grid::series(n, kTicks, 11);
    RunOptions options;
    options.record_ops = true;
    options.record_intervals = true;
    out["volley/m" + std::to_string(n)] = digest(
        run_volley(grid::spec(n), series, grid::thresholds(n), options));
  }
  {
    const auto series = grid::series(20, kTicks, 12);
    RunOptions options;
    options.allocator = AllocatorKind::kEven;
    out["volley/m20_even"] = digest(
        run_volley(grid::spec(20), series, grid::thresholds(20), options));
    options.allocator = AllocatorKind::kNone;
    out["volley/m20_none"] = digest(
        run_volley(grid::spec(20), series, grid::thresholds(20), options));
  }
  {
    const auto series = grid::series(1, kTicks, 13);
    TaskSpec spec = grid::spec(1);
    RunOptions options;
    options.record_ops = true;
    options.record_intervals = true;
    out["volley_single"] = digest(run_volley_single(spec, series[0], options));
    const GroundTruth truth =
        GroundTruth::from_series(series[0], spec.global_threshold);
    out["volley_single/truth"] =
        digest(run_volley_single(spec, series[0], truth, options));
  }

  // Sharded: S = 1 and S = 4, at <= 50 and at 64 lanes per shard, over the
  // flat runs' series (S = 1 must reproduce the flat entry).
  const struct {
    const char* name;
    std::size_t monitors;
    std::size_t shards;
  } sharded[] = {{"sharded/s1_m20", 20, 1},
                 {"sharded/s1_m64", 64, 1},
                 {"sharded/s4_m80", 80, 4},
                 {"sharded/s4_m256", 256, 4}};
  for (const auto& shape : sharded) {
    const auto series = grid::series(shape.monitors, kTicks, 11);
    RunOptions options;
    options.shards = shape.shards;
    options.record_ops = true;
    options.record_intervals = true;
    out[shape.name] = digest(
        run_volley(grid::spec(shape.monitors), series,
                   grid::thresholds(shape.monitors), options));
  }

  // Faults: empty plan, each kind alone, all three; then the outage and
  // all-three plans over S = 4 shards, which pin the shard-by-shard draw
  // order (core/fault_model.h) and make no claim of equality with flat.
  // metrics_json is left out (fault runs executed outside a run-scoped
  // registry).
  {
    const auto series = grid::series(8, kTicks, 15);
    FaultPlan report;
    report.violation_report_loss = 0.3;
    FaultPlan response;
    response.poll_response_loss = 0.4;
    FaultPlan outage;
    outage.outages = {{0, 690, 760}, {3, 1650, 1800}, {3, 2000, 2100},
                      {7, 100, 2900}};
    FaultPlan all = outage;
    all.violation_report_loss = 0.2;
    all.poll_response_loss = 0.25;
    all.seed = 5;
    const struct {
      const char* name;
      const FaultPlan* plan;
    } plans[] = {{"faulty/none", nullptr},
                 {"faulty/report", &report},
                 {"faulty/response", &response},
                 {"faulty/outage", &outage},
                 {"faulty/all", &all}};
    const auto faulty_line = [](const FaultyRunResult& r) {
      return digest(r.run, false) + " lost_reports=" +
             std::to_string(r.lost_reports) + " lost_responses=" +
             std::to_string(r.lost_responses) + " outage_ticks=" +
             std::to_string(r.outage_monitor_ticks) + " stale=" +
             std::to_string(r.stale_polls);
    };
    for (const auto& p : plans) {
      out[p.name] = faulty_line(run_volley_faulty(
          grid::spec(8), series, grid::thresholds(8),
          p.plan ? *p.plan : FaultPlan{}));
    }
    const struct {
      const char* name;
      const FaultPlan* plan;
    } sharded_plans[] = {{"faulty/s4_outage", &outage},
                         {"faulty/s4_all", &all}};
    for (const auto& p : sharded_plans) {
      FaultModel faults = p.plan->model();
      RunOptions options;
      options.shards = 4;
      SimDriver driver(series, options, grid::thresholds(8), &faults);
      const TaskSpec spec = grid::spec(8);
      const RunResult run = driver.run_task(
          spec, GroundTruth::from_series(TimeSeries::sum(series),
                                         spec.global_threshold));
      const SimTotals t = driver.totals();
      out[p.name] = faulty_line({run, t.lost_reports, t.lost_responses,
                                 t.outage_monitor_ticks, t.stale_polls});
    }
  }

  // Dynamic task churn over a seed-derived schedule plus a standing task.
  {
    const auto series = grid::churn_series();
    const auto events = grid::churn_events();
    const auto run = run_dynamic_tasks(series, events);
    std::string all = "version=" + std::to_string(run.registry_version) +
                      " arrivals=" + std::to_string(run.arrivals) +
                      " departures=" + std::to_string(run.departures);
    out["dynamic/summary"] = all;
    for (std::size_t i = 0; i < run.tasks.size(); ++i) {
      const auto& task = run.tasks[i];
      out["dynamic/" + std::to_string(i)] =
          "task=" + std::to_string(task.task) + " epoch=" +
          std::to_string(task.epoch) + " window=" +
          std::to_string(task.arrived) + ".." +
          std::to_string(task.departed) + " " + digest(task.result);
    }
  }

  // Every committed scenario, sim mode, quick.
  for (const auto& entry :
       std::filesystem::directory_iterator(VOLLEY_SCENARIO_DIR)) {
    if (entry.path().extension() != ".json") continue;
    const auto scenario =
        scenario::Scenario::from_file(entry.path().string());
    scenario::SoakOptions options;
    options.quick = true;
    const std::string json = scenario::run_scenario_sim(scenario, options)
                                 .to_json();
    out["soak/" + entry.path().stem().string()] =
        "bytes=" + std::to_string(json.size()) + " hash=" +
        hex(fnv1a(json));
  }
  return out;
}

TEST(GoldenRuns, DigestsMatchCommittedGrid) {
  const auto actual = compute_entries();
  std::ifstream in(std::string(VOLLEY_GOLDEN_DIR) + "/sim_runs.txt");
  ASSERT_TRUE(in.good()) << "missing tests/golden/sim_runs.txt";
  std::map<std::string, std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    expected[line.substr(0, space)] =
        space == std::string::npos ? "" : line.substr(space + 1);
  }
  for (const auto& [name, line] : expected) {
    const auto it = actual.find(name);
    if (it == actual.end()) {
      ADD_FAILURE() << "golden entry " << name << " was not produced";
      continue;
    }
    EXPECT_EQ(it->second, line) << "golden entry " << name << " changed";
  }
  for (const auto& [name, line] : actual) {
    EXPECT_TRUE(expected.count(name))
        << "entry missing from golden file: " << name << ' ' << line;
  }
  if (actual != expected) {
    std::ofstream dump("sim_runs.actual.txt", std::ios::trunc);
    for (const auto& [name, line] : actual) dump << name << ' ' << line << '\n';
  }
}

}  // namespace
}  // namespace volley
