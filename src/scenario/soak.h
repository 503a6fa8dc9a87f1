// Soak runner: executes a Scenario end to end and judges it against the
// scenario's per-phase invariants, producing a deterministic report plus
// optional JSONL artifacts.
//
// Two execution modes share one report shape:
//
//  * sim — the sim tick driver (sim/driver.h) over the composed series,
//    with the scenario's churn schedule and its fault model
//    (build_sim_fault_model): monitors go dark through outage windows,
//    violation reports and poll responses drop with the windowed
//    probabilities, each task reallocates allowance once per updating
//    period counted from its arrival, and control-plane churn mutates a
//    control::TaskRegistry mid-run. Invariants and snapshots read the
//    driver's live tasks at tick and phase boundaries. The
//    whole run is a pure function of {scenario, seed}: re-running produces a
//    byte-identical report (SoakReport::to_json), which is what the replay
//    discipline and the CI regression assertions stand on.
//
//  * net — the real wire runtime: a CoordinatorNode, the scenario's
//    monitors as MonitorNode threads, every monitor connection interposed
//    by a ChaosProxy armed with the scenario's merged NetFaultPlan, and
//    churn delivered as AddTask/RemoveTask/UpdateTask control RPCs on the
//    scenario's tick schedule. Fault *injection* is seeded and
//    deterministic per frame sequence, but wall-clock interleaving is not —
//    the report's counters are stable in expectation, and the byte-identity
//    guarantee applies to sim mode (EXPERIMENTS.md "Scenarios & soak").
//
// Invariants evaluated per phase (sim; net evaluates the subset it can
// observe):
//  * error_budget          — per task instance, the episode miss rate over
//    the phase∩lifetime window stays within err + tolerance (windows
//    shorter than stuck_factor * Im are reported as skipped: too short to
//    judge);
//  * allowance_conservation — each live task's per-monitor allowances sum
//    to the task's err within allowance_epsilon;
//  * no_stuck_monitors     — every monitor with enough non-outage ticks in
//    the phase made sampling progress;
// and globally:
//  * epochs_monotone       — the registry epochs consumed by churn are
//    strictly increasing (exactly the control plane's ordering contract).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "scenario/scenario.h"

namespace volley::scenario {

struct SoakOptions {
  enum class Mode { kSim, kNet };
  Mode mode{Mode::kSim};
  /// When non-empty, the runner writes `<name>-<mode>-report.json` and
  /// `<name>-<mode>-snapshots.jsonl` here (directories are created).
  std::string artifact_dir{};
  /// Rescale the scenario to at most quick_ticks ticks (CI smoke runs).
  bool quick{false};
  Tick quick_ticks{1200};
};

/// One invariant evaluation. `pass` is true for skipped checks too (the
/// detail says why); only a genuine violation fails a phase.
struct InvariantCheck {
  std::string name;
  bool pass{true};
  std::string detail;
};

struct PhaseReport {
  std::string phase;
  Tick start{0};
  Tick end{0};
  // Counter deltas over the phase.
  std::int64_t ops{0};
  std::int64_t local_violations{0};
  std::int64_t global_polls{0};
  std::int64_t reallocations{0};
  std::int64_t lost_reports{0};
  std::int64_t lost_responses{0};
  std::int64_t outage_monitor_ticks{0};
  std::int64_t stale_polls{0};
  std::int64_t alerts{0};  // detected global-violation ticks in the phase
  std::vector<InvariantCheck> checks;

  bool passed() const {
    for (const auto& check : checks)
      if (!check.pass) return false;
    return true;
  }
};

struct SoakReport {
  std::string scenario;
  std::string mode;  // "sim" | "net"
  std::uint64_t seed{0};
  Tick ticks{0};
  std::size_t monitors{0};
  double boot_threshold{0.0};
  std::vector<PhaseReport> phases;
  /// Registry epochs consumed by churn mutations, in application order.
  std::vector<std::uint64_t> epochs;
  std::vector<InvariantCheck> global_checks;

  bool passed() const {
    for (const auto& phase : phases)
      if (!phase.passed()) return false;
    for (const auto& check : global_checks)
      if (!check.pass) return false;
    return true;
  }

  /// Deterministic rendering: fixed key order, fixed float formatting, no
  /// timestamps — two runs of the same {scenario, seed} in sim mode return
  /// byte-identical strings.
  std::string to_json() const;
};

/// Executes the scenario in the given mode. Throws std::invalid_argument on
/// scenario problems and std::runtime_error on execution failures (e.g. an
/// unwritable artifact dir); an invariant violation is NOT an error — it is
/// a failed check in the returned report.
SoakReport run_scenario(const Scenario& scenario,
                        const SoakOptions& options = {});

SoakReport run_scenario_sim(const Scenario& scenario,
                            const SoakOptions& options = {});
SoakReport run_scenario_net(const Scenario& scenario,
                            const SoakOptions& options = {});

}  // namespace volley::scenario
