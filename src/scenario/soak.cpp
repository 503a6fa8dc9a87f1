#include "scenario/soak.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/json.h"
#include "net/chaos_proxy.h"
#include "net/coordinator_node.h"
#include "net/messages.h"
#include "net/monitor_node.h"
#include "net/request_reply.h"
#include "sim/driver.h"
#include "sim/experiment.h"

namespace volley::scenario {

namespace {

// --- deterministic JSON rendering ------------------------------------------

/// Report numbers carry 9 significant digits.
std::string fmt_double(double v) { return json_number(v, 9); }

void append_check(std::string& out, const InvariantCheck& check) {
  out += "{\"name\":\"" + json_escape(check.name) + "\",\"pass\":";
  out += check.pass ? "true" : "false";
  out += ",\"detail\":\"" + json_escape(check.detail) + "\"}";
}

// --- phase bookkeeping ------------------------------------------------------

std::vector<ScenarioPhase> effective_phases(const Scenario& scenario) {
  if (!scenario.phases.empty()) return scenario.phases;
  return {{"run", 0, scenario.ticks, -1.0}};
}

double phase_tolerance(const Scenario& scenario, const ScenarioPhase& phase,
                       bool net) {
  // Net mode always judges against net_tolerance: per-phase tolerances are
  // tuned for the simulator's windowed faults, while the chaos proxy applies
  // the union fault plan to the whole run (scenario.h, build_net_fault_plan),
  // so sim-phase budgets carry no meaning on the wire.
  if (net) return scenario.invariants.net_tolerance;
  return phase.tolerance >= 0.0 ? phase.tolerance
                                : scenario.invariants.tolerance;
}

/// The error_budget detail for one window: "miss=… (d/e episodes)
/// budget=…", with `score` from the windowed scorer.
std::string budget_detail(const RunResult& score, double budget) {
  return "miss=" + fmt_double(score.episode_miss_rate()) + " (" +
         std::to_string(score.detected_episodes) + "/" +
         std::to_string(score.true_episodes) + " episodes) budget=" +
         fmt_double(budget);
}

/// Writes the report and snapshot artifacts; throws std::runtime_error on
/// I/O failure (a soak harness must not silently lose its evidence).
class ArtifactWriter {
 public:
  ArtifactWriter(const std::string& dir, const std::string& scenario,
                 const std::string& mode) {
    if (dir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
      throw std::runtime_error("soak: cannot create artifact dir '" + dir +
                               "': " + ec.message());
    base_ = dir + "/" + scenario + "-" + mode;
    snapshots_.open(base_ + "-snapshots.jsonl",
                    std::ios::binary | std::ios::trunc);
    if (!snapshots_)
      throw std::runtime_error("soak: cannot write " + base_ +
                               "-snapshots.jsonl");
  }

  bool enabled() const { return !base_.empty(); }

  void snapshot(const std::string& line) {
    if (!enabled()) return;
    // Flushed before the check: a buffered write fails only when its bytes
    // leave the buffer.
    snapshots_ << line << '\n' << std::flush;
    if (!snapshots_)
      throw std::runtime_error("soak: snapshot write failed (" + base_ + ")");
  }

  void report(const std::string& json) {
    if (!enabled()) return;
    std::ofstream out(base_ + "-report.json",
                      std::ios::binary | std::ios::trunc);
    out << json << '\n' << std::flush;
    if (!out)
      throw std::runtime_error("soak: cannot write " + base_ +
                               "-report.json");
  }

 private:
  std::string base_;
  std::ofstream snapshots_;
};

void check_epochs_monotone(SoakReport& report) {
  InvariantCheck check;
  check.name = "epochs_monotone";
  std::string bad;
  for (std::size_t i = 1; i < report.epochs.size(); ++i) {
    if (report.epochs[i] <= report.epochs[i - 1]) {
      bad = "epoch " + std::to_string(report.epochs[i]) + " after " +
            std::to_string(report.epochs[i - 1]);
      break;
    }
  }
  check.pass = bad.empty();
  check.detail = check.pass ? std::to_string(report.epochs.size()) +
                                  " mutations, strictly increasing"
                            : bad;
  report.global_checks.push_back(std::move(check));
}

}  // namespace

std::string SoakReport::to_json() const {
  std::string out = "{";
  out += "\"scenario\":\"" + json_escape(scenario) + "\",";
  out += "\"mode\":\"" + mode + "\",";
  out += "\"seed\":" + std::to_string(seed) + ",";
  out += "\"ticks\":" + std::to_string(ticks) + ",";
  out += "\"monitors\":" + std::to_string(monitors) + ",";
  out += "\"boot_threshold\":" + fmt_double(boot_threshold) + ",";
  out += "\"passed\":";
  out += passed() ? "true" : "false";
  out += ",\"epochs\":[";
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(epochs[i]);
  }
  out += "],\"phases\":[";
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const auto& phase = phases[p];
    if (p > 0) out += ',';
    out += "{\"phase\":\"" + json_escape(phase.phase) + "\",";
    out += "\"start\":" + std::to_string(phase.start) + ",";
    out += "\"end\":" + std::to_string(phase.end) + ",";
    out += "\"ops\":" + std::to_string(phase.ops) + ",";
    out += "\"local_violations\":" + std::to_string(phase.local_violations) +
           ",";
    out += "\"global_polls\":" + std::to_string(phase.global_polls) + ",";
    out += "\"reallocations\":" + std::to_string(phase.reallocations) + ",";
    out += "\"lost_reports\":" + std::to_string(phase.lost_reports) + ",";
    out += "\"lost_responses\":" + std::to_string(phase.lost_responses) + ",";
    out += "\"outage_monitor_ticks\":" +
           std::to_string(phase.outage_monitor_ticks) + ",";
    out += "\"stale_polls\":" + std::to_string(phase.stale_polls) + ",";
    out += "\"alerts\":" + std::to_string(phase.alerts) + ",";
    out += "\"passed\":";
    out += phase.passed() ? "true" : "false";
    out += ",\"checks\":[";
    for (std::size_t c = 0; c < phase.checks.size(); ++c) {
      if (c > 0) out += ',';
      append_check(out, phase.checks[c]);
    }
    out += "]}";
  }
  out += "],\"global_checks\":[";
  for (std::size_t c = 0; c < global_checks.size(); ++c) {
    if (c > 0) out += ',';
    append_check(out, global_checks[c]);
  }
  out += "]}";
  return out;
}

// --- sim mode ---------------------------------------------------------------

SoakReport run_scenario_sim(const Scenario& input,
                            const SoakOptions& options) {
  const Scenario scenario =
      options.quick ? input.scaled(options.quick_ticks) : input;
  scenario.validate();

  const std::vector<TimeSeries> series = build_monitor_series(scenario);
  const TimeSeries aggregate = TimeSeries::sum(series);
  const TaskSpec boot = resolve_boot_task(scenario, aggregate);
  TruthCache truths(aggregate);
  FaultModel faults = build_sim_fault_model(scenario);
  const std::vector<ScenarioPhase> phases = effective_phases(scenario);
  const std::size_t n = scenario.monitors;

  // Churn schedule: the boot task arrives at tick 0 ahead of everything
  // else, then the scenario's explicit + seed-derived events.
  std::vector<TaskChurnEvent> events = build_churn_events(scenario, boot);
  events.push_back({TaskChurnEvent::Kind::kArrive, 0, 0, boot});

  ArtifactWriter artifacts(options.artifact_dir, scenario.name, "sim");

  SoakReport report;
  report.scenario = scenario.name;
  report.mode = "sim";
  report.seed = scenario.seed;
  report.ticks = scenario.ticks;
  report.monitors = n;
  report.boot_threshold = boot.global_threshold;

  SimDriver driver(series, RunOptions{}, {}, &faults);

  // Per-phase state: totals and per-instance monitor ops at phase entry,
  // keyed by epoch. An instance arriving mid-phase started from zero ops.
  std::size_t phase_index = 0;
  SimTotals phase_start;
  std::map<std::uint64_t, std::vector<std::int64_t>> phase_ops_baseline;
  const auto begin_phase = [&]() {
    phase_start = driver.totals();
    phase_ops_baseline.clear();
    for (const auto& [id, task] : driver.live()) {
      auto& ops = phase_ops_baseline[task.epoch()];
      for (std::size_t i = 0; i < n; ++i)
        ops.push_back(task.monitor(i).total_ops());
    }
  };

  const auto emit_snapshot = [&](Tick t) {
    if (!artifacts.enabled()) return;
    const SimTotals totals = driver.totals();
    std::string line = "{\"tick\":" + std::to_string(t);
    line += ",\"tasks\":" + std::to_string(driver.live().size());
    line += ",\"ops\":" + std::to_string(totals.ops);
    line += ",\"global_polls\":" + std::to_string(totals.global_polls);
    line += ",\"alerts\":" + std::to_string(totals.alerts);
    line += ",\"lost_reports\":" + std::to_string(totals.lost_reports);
    line += ",\"registry_version\":" +
            std::to_string(driver.registry().version());
    line += "}";
    artifacts.snapshot(line);
  };

  const auto end_phase = [&](const ScenarioPhase& phase) {
    const SimTotals totals = driver.totals();
    PhaseReport out;
    out.phase = phase.name;
    out.start = phase.start;
    out.end = phase.end;
    out.ops = totals.ops - phase_start.ops;
    out.local_violations =
        totals.local_violations - phase_start.local_violations;
    out.global_polls = totals.global_polls - phase_start.global_polls;
    out.reallocations = totals.reallocations - phase_start.reallocations;
    out.lost_reports = totals.lost_reports - phase_start.lost_reports;
    out.lost_responses = totals.lost_responses - phase_start.lost_responses;
    out.outage_monitor_ticks =
        totals.outage_monitor_ticks - phase_start.outage_monitor_ticks;
    out.stale_polls = totals.stale_polls - phase_start.stale_polls;
    out.alerts = totals.alerts - phase_start.alerts;
    const double tolerance = phase_tolerance(scenario, phase, false);

    // error_budget: every live task instance, over phase∩lifetime.
    {
      InvariantCheck check;
      check.name = "error_budget";
      std::string detail;
      for (const auto& [id, task] : driver.live()) {
        const Tick lo = std::max(phase.start, task.arrived());
        const Tick hi = phase.end;
        const Tick min_window = static_cast<Tick>(
            scenario.invariants.stuck_factor) * task.spec().max_interval;
        if (hi - lo < min_window) {
          detail += "task " + std::to_string(id) + ": skipped (window " +
                    std::to_string(hi - lo) + " < " +
                    std::to_string(min_window) + "); ";
          continue;
        }
        RunResult score;
        score_detection(score, truths.at(task.spec().global_threshold),
                        task.detected(), lo, hi);
        const double budget = task.spec().error_allowance + tolerance;
        detail += "task " + std::to_string(id) + ": " +
                  budget_detail(score, budget) + "; ";
        if (score.episode_miss_rate() > budget) check.pass = false;
      }
      check.detail = detail.empty() ? "no live tasks" : detail;
      out.checks.push_back(std::move(check));
    }

    // allowance_conservation: per live task, the monitors' allowances sum
    // to the task's err.
    {
      InvariantCheck check;
      check.name = "allowance_conservation";
      std::string detail;
      for (const auto& [id, task] : driver.live()) {
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i)
          sum += task.monitor(i).error_allowance();
        const double drift = std::abs(sum - task.spec().error_allowance);
        if (drift > scenario.invariants.allowance_epsilon) {
          check.pass = false;
          detail += "task " + std::to_string(id) + ": drift=" +
                    fmt_double(drift) + "; ";
        }
      }
      check.detail = detail.empty() ? std::to_string(driver.live().size()) +
                                          " task(s) conserve"
                                    : detail;
      out.checks.push_back(std::move(check));
    }

    // no_stuck_monitors: sampling progress for every monitor with enough
    // non-outage room in the phase.
    {
      InvariantCheck check;
      check.name = "no_stuck_monitors";
      std::string detail;
      for (const auto& [id, task] : driver.live()) {
        const Tick lo = std::max(phase.start, task.arrived());
        const Tick min_window = static_cast<Tick>(
            scenario.invariants.stuck_factor) * task.spec().max_interval;
        if (phase.end - lo < min_window) continue;
        const auto baseline = phase_ops_baseline.find(task.epoch());
        for (std::size_t i = 0; i < n; ++i) {
          const Tick available =
              phase.end - lo - faults.outage_ticks(i, lo, phase.end);
          if (available <= task.spec().max_interval) continue;  // mostly down
          const std::int64_t entry_ops =
              baseline == phase_ops_baseline.end() ? 0 : baseline->second[i];
          if (task.monitor(i).total_ops() <= entry_ops) {
            check.pass = false;
            detail += "task " + std::to_string(id) + " monitor " +
                      std::to_string(i) + " made no progress; ";
          }
        }
      }
      check.detail = detail.empty() ? "all monitors progressed" : detail;
      out.checks.push_back(std::move(check));
    }

    report.phases.push_back(std::move(out));
    emit_snapshot(phase.end);
  };

  SimDriver::Hooks hooks;
  hooks.after_tick = [&](Tick t) {
    if (scenario.snapshot_every > 0 && t > 0 &&
        t % scenario.snapshot_every == 0)
      emit_snapshot(t);
    // Phase boundary: the phase [start, end) is scored once tick end-1 ran.
    if (t + 1 == phases[phase_index].end) {
      end_phase(phases[phase_index]);
      ++phase_index;
      if (phase_index < phases.size()) begin_phase();
    }
  };
  begin_phase();
  driver.run(events, hooks);

  report.epochs = driver.epochs();
  check_epochs_monotone(report);
  {
    InvariantCheck check;
    check.name = "registry_version_matches";
    const std::uint64_t version = driver.registry().version();
    const std::uint64_t expected =
        report.epochs.empty() ? 0 : report.epochs.back();
    check.pass = version == expected;
    check.detail = "version=" + std::to_string(version) +
                   " last_epoch=" + std::to_string(expected);
    report.global_checks.push_back(std::move(check));
  }

  artifacts.report(report.to_json());
  return report;
}

// --- net mode ---------------------------------------------------------------

namespace {

/// One scheduled control-plane RPC of the net soak run.
struct WireChurnOp {
  Tick tick{0};
  net::Message request;
  std::string label;
};

std::vector<WireChurnOp> build_wire_churn(const Scenario& scenario,
                                          const TaskSpec& boot) {
  std::vector<WireChurnOp> ops;
  for (const auto& event : scenario.churn.events) {
    TaskSpec spec = boot;
    spec.global_threshold = boot.global_threshold * event.threshold_scale;
    WireChurnOp op;
    op.tick = event.tick;
    switch (event.op) {
      case ChurnSpec::Event::Op::kAdd:
        op.request = net::AddTask{event.task, spec};
        op.label = "add " + std::to_string(event.task);
        break;
      case ChurnSpec::Event::Op::kRemove:
        op.request = net::RemoveTask{event.task};
        op.label = "remove " + std::to_string(event.task);
        break;
      case ChurnSpec::Event::Op::kUpdate:
        op.request = net::UpdateTask{event.task, spec};
        op.label = "update " + std::to_string(event.task);
        break;
    }
    ops.push_back(std::move(op));
  }
  if (scenario.churn.random_arrivals > 0) {
    ChurnScheduleOptions schedule;
    schedule.seed = scenario.seed ^ 0xC4CEB9FE1A85EC53ULL;
    schedule.ticks = scenario.ticks;
    schedule.arrivals = scenario.churn.random_arrivals;
    schedule.first_task = scenario.churn.first_task;
    schedule.hold_min = scenario.churn.hold_min;
    schedule.hold_max = scenario.churn.hold_max;
    schedule.spec = boot;
    schedule.spec.global_threshold =
        boot.global_threshold * scenario.churn.threshold_scale;
    for (const auto& event : make_churn_schedule(schedule)) {
      WireChurnOp op;
      op.tick = event.tick;
      if (event.kind == TaskChurnEvent::Kind::kArrive) {
        op.request = net::AddTask{event.task, event.spec};
        op.label = "add " + std::to_string(event.task);
      } else {
        op.request = net::RemoveTask{event.task};
        op.label = "remove " + std::to_string(event.task);
      }
      ops.push_back(std::move(op));
    }
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const WireChurnOp& a, const WireChurnOp& b) {
                     return a.tick < b.tick;
                   });
  return ops;
}

}  // namespace

SoakReport run_scenario_net(const Scenario& input,
                            const SoakOptions& options) {
  const Scenario scenario =
      options.quick ? input.scaled(options.quick_ticks) : input;
  scenario.validate();

  const std::vector<TimeSeries> series = build_monitor_series(scenario);
  const TimeSeries aggregate = TimeSeries::sum(series);
  const TaskSpec boot = resolve_boot_task(scenario, aggregate);
  const std::vector<ScenarioPhase> phases = effective_phases(scenario);
  const std::size_t n = scenario.monitors;
  const std::vector<WireChurnOp> churn = build_wire_churn(scenario, boot);

  ArtifactWriter artifacts(options.artifact_dir, scenario.name, "net");

  SoakReport report;
  report.scenario = scenario.name;
  report.mode = "net";
  report.seed = scenario.seed;
  report.ticks = scenario.ticks;
  report.monitors = n;
  report.boot_threshold = boot.global_threshold;

  net::CoordinatorNodeOptions copt;
  copt.monitors = n;
  copt.global_threshold = boot.global_threshold;
  copt.error_allowance = boot.error_allowance;
  copt.adaptive_allocation = true;
  net::CoordinatorNode coordinator(copt);

  net::ChaosProxyOptions popt;
  popt.upstream_port = coordinator.port();
  popt.plan = build_net_fault_plan(scenario);
  net::ChaosProxy proxy(popt);

  std::vector<std::unique_ptr<SeriesSource>> sources;
  std::vector<std::unique_ptr<net::MonitorNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    sources.push_back(std::make_unique<SeriesSource>(series[i]));
    net::MonitorNodeOptions mopt;
    mopt.id = static_cast<MonitorId>(i);
    mopt.coordinator_port = proxy.port();
    mopt.local_threshold =
        boot.global_threshold / static_cast<double>(n);
    mopt.sampler = boot.sampler_options(boot.error_allowance /
                                        static_cast<double>(n));
    mopt.ticks = scenario.ticks;
    mopt.updating_period = boot.updating_period;
    mopt.tick_micros = scenario.tick_micros;
    nodes.push_back(std::make_unique<net::MonitorNode>(mopt, *sources[i]));
  }

  std::thread coord_thread([&coordinator] { coordinator.run(); });
  std::thread proxy_thread([&proxy] { proxy.run(); });
  std::vector<std::thread> monitor_threads;
  monitor_threads.reserve(nodes.size());
  for (auto& node : nodes)
    monitor_threads.emplace_back([&node] { node->run(); });

  // Churn driver: control RPCs go straight to the coordinator (the fault
  // plan is for the data plane; a dropped AddTask would make the epoch
  // record ambiguous). Ops fire on the scenario's tick schedule mapped to
  // the monitors' compressed wall clock.
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::pair<std::string, bool>> churn_outcomes;
  std::optional<net::TaskListReply> last_list;
  for (const auto& op : churn) {
    std::this_thread::sleep_until(
        wall_start + std::chrono::microseconds(
                         static_cast<std::int64_t>(op.tick) *
                         scenario.tick_micros));
    const auto reply = net::request_reply("127.0.0.1", coordinator.port(),
                                           2000, op.request);
    bool ok = false;
    if (reply) {
      if (const auto* control = std::get_if<net::ControlReply>(&*reply)) {
        ok = control->status == control::ControlStatus::kOk;
        if (ok) report.epochs.push_back(control->epoch);
      }
    }
    churn_outcomes.emplace_back(op.label, ok);
    if (artifacts.enabled()) {
      artifacts.snapshot("{\"churn\":\"" + json_escape(op.label) +
                         "\",\"tick\":" + std::to_string(op.tick) +
                         ",\"ok\":" + (ok ? "true" : "false") + "}");
    }
    if (const auto list_reply =
            net::request_reply("127.0.0.1", coordinator.port(), 2000,
                               net::ListTasks{})) {
      if (const auto* list = std::get_if<net::TaskListReply>(&*list_reply))
        last_list = *list;
    }
  }

  for (auto& t : monitor_threads) t.join();
  coord_thread.join();
  proxy.request_stop();
  proxy_thread.join();

  // Ground truth scoring: the coordinator's boot-task alerts, judged per
  // phase against the composed aggregate.
  const GroundTruth truth =
      GroundTruth::from_series(aggregate, boot.global_threshold);
  std::vector<char> detected(static_cast<std::size_t>(scenario.ticks), 0);
  for (const auto& alert : coordinator.alerts()) {
    if (alert.task == 0 && alert.tick >= 0 && alert.tick < scenario.ticks)
      detected[static_cast<std::size_t>(alert.tick)] = 1;
  }

  for (const auto& phase : phases) {
    PhaseReport out;
    out.phase = phase.name;
    out.start = phase.start;
    out.end = phase.end;
    for (const auto& alert : coordinator.alerts()) {
      if (alert.tick >= phase.start && alert.tick < phase.end) ++out.alerts;
    }

    const double tolerance = phase_tolerance(scenario, phase, true);
    InvariantCheck budget;
    budget.name = "error_budget";
    const Tick min_window =
        static_cast<Tick>(scenario.invariants.stuck_factor) *
        boot.max_interval;
    if (tolerance >= 1.0) {
      budget.detail = "skipped (net_tolerance disables the check)";
    } else if (phase.end - phase.start < min_window) {
      budget.detail = "skipped (phase shorter than " +
                      std::to_string(min_window) + " ticks)";
    } else {
      RunResult score;
      score_detection(score, truth, detected, phase.start, phase.end);
      const double cap = boot.error_allowance + tolerance;
      budget.pass = score.episode_miss_rate() <= cap;
      budget.detail = budget_detail(score, cap);
    }
    out.checks.push_back(std::move(budget));
    report.phases.push_back(std::move(out));
  }

  // Global invariants.
  check_epochs_monotone(report);
  {
    InvariantCheck check;
    check.name = "churn_accepted";
    std::string failed;
    for (const auto& [label, ok] : churn_outcomes) {
      if (!ok) failed += label + "; ";
    }
    check.pass = failed.empty();
    check.detail = check.pass ? std::to_string(churn_outcomes.size()) +
                                    " control op(s) accepted"
                              : "rejected/lost: " + failed;
    report.global_checks.push_back(std::move(check));
  }
  {
    InvariantCheck check;
    check.name = "no_stuck_monitors";
    std::string detail;
    for (std::size_t i = 0; i < n; ++i) {
      const auto it =
          coordinator.reported_ops().find(static_cast<MonitorId>(i));
      if (it == coordinator.reported_ops().end()) {
        check.pass = false;
        detail += "monitor " + std::to_string(i) + " never said Bye; ";
      } else if (it->second <= 0) {
        check.pass = false;
        detail += "monitor " + std::to_string(i) + " reported 0 ops; ";
      }
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i]->coordinator_lost()) {
        check.pass = false;
        detail += "monitor " + std::to_string(i) +
                  " abandoned reconnection; ";
      }
    }
    check.detail = detail.empty() ? "all monitors reported ops" : detail;
    report.global_checks.push_back(std::move(check));
  }
  {
    InvariantCheck check;
    check.name = "allowance_conservation";
    if (!last_list) {
      check.detail = churn.empty()
                         ? "skipped (no churn, no registry snapshot taken)"
                         : "skipped (no ListTasks snapshot survived)";
    } else {
      std::string detail;
      for (const auto& task : last_list->tasks) {
        double sum = 0.0;
        for (const auto& [monitor, allowance] : task.allowance_split)
          sum += allowance;
        const double drift = std::abs(sum - task.error_allowance);
        // The wire runtime reclaims allowance from dead monitors, so the
        // split can be a strict subset mid-fault; conservation means never
        // exceeding the task budget.
        if (sum > task.error_allowance +
                      scenario.invariants.allowance_epsilon) {
          check.pass = false;
          detail += "task " + std::to_string(task.task) + ": over-budget " +
                    fmt_double(drift) + "; ";
        }
      }
      check.detail = detail.empty()
                         ? std::to_string(last_list->tasks.size()) +
                               " task(s) within budget"
                         : detail;
    }
    report.global_checks.push_back(std::move(check));
  }

  artifacts.report(report.to_json());
  return report;
}

SoakReport run_scenario(const Scenario& scenario, const SoakOptions& options) {
  return options.mode == SoakOptions::Mode::kSim
             ? run_scenario_sim(scenario, options)
             : run_scenario_net(scenario, options);
}

}  // namespace volley::scenario
