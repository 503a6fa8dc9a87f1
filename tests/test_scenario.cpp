// Tests for the declarative scenario engine (common/json, scenario/scenario)
// and the soak runner (scenario/soak): strict JSON parsing, scenario
// validation (unknown profiles, overlapping fault windows, phase tiling),
// deterministic builders, byte-identical sim replay, invariant detection,
// and a net-mode smoke run through the chaos proxy.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "common/json.h"
#include "scenario/scenario.h"
#include "scenario/soak.h"

namespace volley::scenario {
namespace {

// --- JSON parser -----------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  const auto v = JsonValue::parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "hi\nthere", "n": -3})");
  const auto& obj = v.as_object("root");
  EXPECT_DOUBLE_EQ(obj.at("a").as_number("a"), 1.5);
  const auto& arr = obj.at("b").as_array("b");
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].as_bool("b[0]"));
  EXPECT_FALSE(arr[1].as_bool("b[1]"));
  EXPECT_TRUE(arr[2].is_null());
  EXPECT_EQ(obj.at("s").as_string("s"), "hi\nthere");
  EXPECT_EQ(obj.at("n").as_int("n"), -3);
}

TEST(Json, RejectsMalformedDocuments) {
  // Truncated object.
  EXPECT_THROW(JsonValue::parse(R"({"a": 1)"), std::invalid_argument);
  // Trailing comma.
  EXPECT_THROW(JsonValue::parse(R"({"a": 1,})"), std::invalid_argument);
  // Bare identifier.
  EXPECT_THROW(JsonValue::parse("nope"), std::invalid_argument);
  // Trailing content after the document.
  EXPECT_THROW(JsonValue::parse(R"({"a": 1} extra)"), std::invalid_argument);
  // Duplicate keys.
  EXPECT_THROW(JsonValue::parse(R"({"a": 1, "a": 2})"),
               std::invalid_argument);
  // Unterminated string.
  EXPECT_THROW(JsonValue::parse(R"({"a": "x)"), std::invalid_argument);
  // Comments are not JSON.
  EXPECT_THROW(JsonValue::parse("// hi\n{}"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse(""), std::invalid_argument);
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    JsonValue::parse("{\n  \"a\": 1,\n  oops\n}");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("json:3:"), std::string::npos)
        << e.what();
  }
}

// --- scenario parsing ------------------------------------------------------

/// Minimal valid scenario; `extra` is spliced before the closing brace.
std::string scenario_text(const std::string& extra = "") {
  std::string s = R"({
    "name": "t", "seed": 5, "monitors": 2, "ticks": 400,
    "task": {"threshold": 1.5, "error_allowance": 0.02,
             "max_interval": 10, "updating_period": 100})";
  if (!extra.empty()) s += ",\n" + extra;
  s += "\n}";
  return s;
}

TEST(Scenario, ParsesMinimalDocument) {
  const Scenario s = Scenario::from_json_text(scenario_text());
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.seed, 5u);
  EXPECT_EQ(s.monitors, 2u);
  EXPECT_EQ(s.ticks, 400);
  EXPECT_DOUBLE_EQ(s.threshold, 1.5);
  EXPECT_LT(s.threshold_selectivity, 0.0);
}

TEST(Scenario, RejectsMalformedJson) {
  EXPECT_THROW(Scenario::from_json_text("{"), std::invalid_argument);
  EXPECT_THROW(Scenario::from_json_text("[]"), std::invalid_argument);
}

TEST(Scenario, RejectsUnknownKeysAndMissingFields) {
  EXPECT_THROW(Scenario::from_json_text(scenario_text(R"("typo_knob": 1)")),
               std::invalid_argument);
  // Missing task.
  EXPECT_THROW(Scenario::from_json_text(
                   R"({"name": "x", "ticks": 100, "monitors": 1})"),
               std::invalid_argument);
  // Both threshold forms at once.
  EXPECT_THROW(
      Scenario::from_json_text(
          R"({"name": "x", "ticks": 100, "monitors": 1,
              "task": {"threshold": 1, "threshold_selectivity": 5}})"),
      std::invalid_argument);
}

TEST(Scenario, RejectsUnknownFaultProfile) {
  try {
    Scenario::from_json_text(scenario_text(
        R"("faults": [{"profile": "wobbly-cable", "start": 0, "end": 100}])"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wobbly-cable"), std::string::npos) << what;
    // The error lists the valid profile names.
    EXPECT_NE(what.find("flaky-link"), std::string::npos) << what;
  }
}

TEST(Scenario, RejectsOverlappingFaultWindows) {
  // Same profile overlapping on the same monitors — the FaultPlan overlap
  // rule the simulator enforces.
  EXPECT_THROW(Scenario::from_json_text(scenario_text(
                   R"("faults": [
                     {"profile": "flaky-link", "start": 0, "end": 200},
                     {"profile": "flaky-link", "start": 100, "end": 300}])")),
               std::invalid_argument);
  // Disjoint windows of one profile are fine.
  EXPECT_NO_THROW(Scenario::from_json_text(scenario_text(
      R"("faults": [
        {"profile": "flaky-link", "start": 0, "end": 100},
        {"profile": "flaky-link", "start": 200, "end": 300}])")));
  // Overlap of *different* profiles is allowed (they compose).
  EXPECT_NO_THROW(Scenario::from_json_text(scenario_text(
      R"("faults": [
        {"profile": "flaky-link", "start": 0, "end": 200},
        {"profile": "slow-drip", "start": 100, "end": 300}])")));
  // Same profile, disjoint monitor sets: no overlap either.
  EXPECT_NO_THROW(Scenario::from_json_text(scenario_text(
      R"("faults": [
        {"profile": "partition", "start": 0, "end": 200, "monitors": [0]},
        {"profile": "partition", "start": 100, "end": 300, "monitors": [1]}])")));
}

TEST(Scenario, RejectsOutOfRangeWindowsAndPhases) {
  // Fault window past the run end.
  EXPECT_THROW(Scenario::from_json_text(scenario_text(
                   R"("faults": [{"profile": "partition",
                                  "start": 300, "end": 500}])")),
               std::invalid_argument);
  // Inverted window.
  EXPECT_THROW(Scenario::from_json_text(scenario_text(
                   R"("faults": [{"profile": "partition",
                                  "start": 200, "end": 100}])")),
               std::invalid_argument);
  // Monitor index out of range.
  EXPECT_THROW(Scenario::from_json_text(scenario_text(
                   R"("faults": [{"profile": "partition", "start": 0,
                                  "end": 100, "monitors": [7]}])")),
               std::invalid_argument);
  // Phases with a gap.
  EXPECT_THROW(Scenario::from_json_text(scenario_text(
                   R"("phases": [{"name": "a", "start": 0, "end": 100},
                                 {"name": "b", "start": 150, "end": 400}])")),
               std::invalid_argument);
  // Phases not covering the run.
  EXPECT_THROW(Scenario::from_json_text(scenario_text(
                   R"("phases": [{"name": "a", "start": 0, "end": 100}])")),
               std::invalid_argument);
  // Phase past the end.
  EXPECT_THROW(Scenario::from_json_text(scenario_text(
                   R"("phases": [{"name": "a", "start": 0, "end": 500}])")),
               std::invalid_argument);
  // Valid tiling passes.
  EXPECT_NO_THROW(Scenario::from_json_text(scenario_text(
      R"("phases": [{"name": "a", "start": 0, "end": 100},
                    {"name": "b", "start": 100, "end": 400}])")));
}

TEST(Scenario, RejectsBadChurn) {
  // Task id 0 is the reserved boot task.
  EXPECT_THROW(Scenario::from_json_text(scenario_text(
                   R"("churn": {"events": [
                     {"op": "add", "tick": 10, "task": 0}]})")),
               std::invalid_argument);
  // Explicit id colliding with the random id range.
  EXPECT_THROW(Scenario::from_json_text(scenario_text(
                   R"("churn": {
                     "events": [{"op": "add", "tick": 10, "task": 101}],
                     "random": {"arrivals": 4, "first_task": 100}})")),
               std::invalid_argument);
  // Unknown op.
  EXPECT_THROW(Scenario::from_json_text(scenario_text(
                   R"("churn": {"events": [
                     {"op": "explode", "tick": 10, "task": 3}]})")),
               std::invalid_argument);
}

TEST(Scenario, KnownProfilesAreExposed) {
  const auto names = fault_profile_names();
  ASSERT_EQ(names.size(), 4u);
  for (const auto name : names) {
    EXPECT_NE(find_fault_profile(name), nullptr);
  }
  EXPECT_EQ(find_fault_profile("no-such-profile"), nullptr);
}

// --- deterministic builders ------------------------------------------------

Scenario small_scenario() {
  Scenario s;
  s.name = "unit";
  s.seed = 9;
  s.monitors = 3;
  s.ticks = 600;
  s.threshold_selectivity = 6.0;
  s.task.error_allowance = 0.02;
  s.task.max_interval = 10;
  s.task.updating_period = 150;
  s.base.sigma = 0.05;
  return s;
}

TEST(Builders, SeriesAreSeedStableAndMonitorIndependent) {
  const Scenario s = small_scenario();
  const auto a = build_monitor_series(s);
  const auto b = build_monitor_series(s);
  ASSERT_EQ(a.size(), 3u);
  for (std::size_t m = 0; m < a.size(); ++m) {
    ASSERT_EQ(a[m].size(), b[m].size());
    for (std::size_t i = 0; i < a[m].size(); ++i)
      ASSERT_DOUBLE_EQ(a[m][i], b[m][i]) << "monitor " << m << " tick " << i;
  }

  // Adding monitors never perturbs the series of existing ones.
  Scenario wider = s;
  wider.monitors = 5;
  const auto w = build_monitor_series(wider);
  ASSERT_EQ(w.size(), 5u);
  for (std::size_t m = 0; m < a.size(); ++m) {
    for (std::size_t i = 0; i < a[m].size(); ++i)
      ASSERT_DOUBLE_EQ(a[m][i], w[m][i]) << "monitor " << m << " tick " << i;
  }
}

TEST(Builders, SpikeLayerIsCorrelatedAcrossTargets) {
  Scenario s = small_scenario();
  WorkloadLayer spike;
  spike.kind = WorkloadLayer::Kind::kSpike;
  spike.at = 200;
  spike.len = 20;
  spike.value = 5.0;
  spike.monitors = {0, 2};
  s.layers.push_back(spike);

  const auto base = build_monitor_series(small_scenario());
  const auto spiked = build_monitor_series(s);
  for (Tick t = 200; t < 220; ++t) {
    const auto i = static_cast<std::size_t>(t);
    EXPECT_DOUBLE_EQ(spiked[0][i], base[0][i] + 5.0);
    EXPECT_DOUBLE_EQ(spiked[1][i], base[1][i]);  // untargeted
    EXPECT_DOUBLE_EQ(spiked[2][i], base[2][i] + 5.0);
  }
}

TEST(Builders, ScaledRescalesProportionally) {
  Scenario s = small_scenario();
  s.faults.push_back({"flaky-link", 100, 300, {}});
  s.phases.push_back({"a", 0, 300, -1.0});
  s.phases.push_back({"b", 300, 600, -1.0});
  const Scenario q = s.scaled(200);
  EXPECT_EQ(q.ticks, 200);
  ASSERT_EQ(q.faults.size(), 1u);
  EXPECT_EQ(q.faults[0].start, 33);
  EXPECT_EQ(q.faults[0].end, 100);
  ASSERT_EQ(q.phases.size(), 2u);
  EXPECT_EQ(q.phases[0].start, 0);
  EXPECT_EQ(q.phases[1].end, 200);
  EXPECT_NO_THROW(q.validate());
  // No-op when already short enough.
  EXPECT_EQ(s.scaled(10000).ticks, 600);
}

// --- soak runner -----------------------------------------------------------

TEST(Soak, SimReplayIsByteIdentical) {
  Scenario s = small_scenario();
  s.faults.push_back({"flaky-link", 150, 350, {}});
  s.churn.random_arrivals = 2;
  s.churn.hold_min = 100;
  s.churn.hold_max = 250;
  s.phases.push_back({"first", 0, 300, 0.5});
  s.phases.push_back({"second", 300, 600, 0.5});

  SoakOptions options;  // sim, no artifacts
  const SoakReport a = run_scenario_sim(s, options);
  const SoakReport b = run_scenario_sim(s, options);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_FALSE(a.epochs.empty());
  ASSERT_EQ(a.phases.size(), 2u);
  EXPECT_GT(a.phases[0].ops, 0);
  EXPECT_GT(a.phases[0].lost_reports + a.phases[0].global_polls, 0);

  // A different seed produces a different report (the workload, faults and
  // churn all derive from it).
  Scenario other = s;
  other.seed = 10;
  const SoakReport c = run_scenario_sim(other, options);
  EXPECT_NE(a.to_json(), c.to_json());
}

TEST(Soak, InvariantTripIsDetected) {
  // A full blackout with zero tolerance must trip error_budget in the
  // blackout phase — the harness proves it detects violations, not just
  // that green runs stay green.
  Scenario s = small_scenario();
  s.name = "trip";
  WorkloadLayer spike;  // guarantees an episode inside the blackout
  spike.kind = WorkloadLayer::Kind::kSpike;
  spike.at = 250;
  spike.len = 40;
  spike.value = 5.0;
  s.layers.push_back(spike);
  s.faults.push_back({"partition", 150, 450, {}});
  s.phases.push_back({"healthy", 0, 150, 0.5});
  s.phases.push_back({"blackout", 150, 450, 0.0});
  s.phases.push_back({"aftermath", 450, 600, 0.5});

  const SoakReport report = run_scenario_sim(s, {});
  EXPECT_FALSE(report.passed());
  ASSERT_EQ(report.phases.size(), 3u);
  EXPECT_TRUE(report.phases[0].passed()) << report.to_json();
  EXPECT_FALSE(report.phases[1].passed());
  bool budget_failed = false;
  for (const auto& check : report.phases[1].checks) {
    if (check.name == "error_budget" && !check.pass) budget_failed = true;
  }
  EXPECT_TRUE(budget_failed) << report.to_json();
  // The outage is visible in the phase counters too.
  EXPECT_GT(report.phases[1].outage_monitor_ticks, 0);
}

TEST(Soak, SimRunsCommittedStyleScenarioWithChurn) {
  Scenario s = small_scenario();
  s.churn.events.push_back(
      {ChurnSpec::Event::Op::kAdd, 100, 7, 1.2});
  s.churn.events.push_back(
      {ChurnSpec::Event::Op::kUpdate, 250, 7, 1.1});
  s.churn.events.push_back({ChurnSpec::Event::Op::kRemove, 400, 7, 1.0});

  const SoakReport report = run_scenario_sim(s, {});
  // boot add + add + update(depart+arrive) + remove = 5 epochs.
  EXPECT_EQ(report.epochs.size(), 5u);
  for (std::size_t i = 1; i < report.epochs.size(); ++i)
    EXPECT_LT(report.epochs[i - 1], report.epochs[i]);
  for (const auto& check : report.global_checks) {
    EXPECT_TRUE(check.pass) << check.name << ": " << check.detail;
  }
}

TEST(Soak, QuickModeScalesBeforeRunning) {
  Scenario s = small_scenario();
  s.phases.push_back({"all", 0, 600, -1.0});
  SoakOptions options;
  options.quick = true;
  options.quick_ticks = 200;
  const SoakReport report = run_scenario_sim(s, options);
  EXPECT_EQ(report.ticks, 200);
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_EQ(report.phases[0].end, 200);
}

TEST(Soak, ArtifactWriteFailuresThrow) {
  // /dev/full accepts bytes into the stream's buffer and fails them only
  // when they are flushed; the writer must still throw on either artifact.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "soak-artifacts-full";
  for (const std::string artifact : {"report.json", "snapshots.jsonl"}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const Scenario s = small_scenario();
    std::filesystem::create_symlink("/dev/full",
                                    dir / (s.name + "-sim-" + artifact));
    SoakOptions options;
    options.artifact_dir = dir.string();
    EXPECT_THROW(run_scenario_sim(s, options), std::runtime_error)
        << artifact;
  }
  std::filesystem::remove_all(dir);
}

TEST(Soak, NetSmokeThroughChaosProxy) {
  // End-to-end wire run: coordinator + monitors + chaos proxy, a fault
  // window and a churn RPC, judged by the net-mode invariants.
  Scenario s = small_scenario();
  s.name = "net-smoke";
  s.ticks = 400;
  s.monitors = 2;
  s.tick_micros = 200;
  s.faults.push_back({"flaky-link", 100, 300, {}});
  s.churn.events.push_back({ChurnSpec::Event::Op::kAdd, 120, 7, 1.2});
  s.churn.events.push_back({ChurnSpec::Event::Op::kRemove, 280, 7, 1.0});

  const SoakReport report = run_scenario_net(s, {});
  EXPECT_EQ(report.mode, "net");
  // Both churn RPCs answered with monotone epochs.
  EXPECT_EQ(report.epochs.size(), 2u);
  EXPECT_TRUE(report.passed()) << report.to_json();
  bool saw_stuck_check = false;
  for (const auto& check : report.global_checks) {
    if (check.name == "no_stuck_monitors") saw_stuck_check = true;
  }
  EXPECT_TRUE(saw_stuck_check);
}

}  // namespace
}  // namespace volley::scenario
