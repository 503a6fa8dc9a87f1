// Declarative scenario engine: one JSON file describes a complete hostile
// environment for a Volley deployment — the workload every monitor sees,
// the faults the messaging layer suffers, and the control-plane churn the
// registry absorbs — plus the phases and invariants a soak run is judged
// against (scenario/soak.h executes it, tools/volley_soak drives it).
//
// Everything a scenario produces is a pure function of {file, seed}: the
// composed metric series, the churn schedule, and every fault draw derive
// from Rng(seed) in fixed order. A failing soak run therefore replays
// byte-identically from the same scenario file, which is what turns a chaos
// run into a regression asset (scenarios/ holds the committed exemplars).
//
// File format (see EXPERIMENTS.md "Scenarios & soak" for the full
// reference):
//
//   {
//     "name": "diurnal-burst", "seed": 7, "monitors": 4, "ticks": 4000,
//     "task": {"threshold_selectivity": 4.0, "error_allowance": 0.02, ...},
//     "workload": {
//       "base":   {"mean": 0.5, "theta": 0.05, "sigma": 0.05, ...},
//       "layers": [
//         {"kind": "diurnal", "period": 2000, "depth": 0.6},
//         {"kind": "burst", "mean_gap": 900, "scale": 3.0, ...},
//         {"kind": "spike", "at": 2500, "len": 40, "value": 2.0,
//          "monitors": [0, 1]},
//         {"kind": "regime_shift", "at": 3000, "mean": 0.85, "sigma": 0.1}
//       ]
//     },
//     "faults": [
//       {"profile": "flaky-link", "start": 1200, "end": 1800},
//       {"profile": "partition", "start": 2600, "end": 2900,
//        "monitors": [1]}
//     ],
//     "churn": {
//       "events": [{"op": "add", "tick": 500, "task": 7}, ...],
//       "random": {"arrivals": 4, "hold_min": 300, "hold_max": 900,
//                  "first_task": 100}
//     },
//     "phases": [{"name": "warmup", "start": 0, "end": 1000}, ...],
//     "invariants": {"tolerance": 0.05, "net_tolerance": 1.0,
//                    "allowance_epsilon": 1e-6, "stuck_factor": 4}
//   }
//
// Fault profiles are *named*, netem-style (à la `tc netem` recipes): a
// window references a profile ("flaky-link", "partition", "slow-drip",
// "crash-restart") instead of spelling out probabilities, so scenarios
// stay legible and the sim/net mapping lives in one table. In sim mode a
// profile contributes message-loss probabilities (and, for outage-class
// profiles, MonitorOutage windows) to the tick loop; in net mode the same
// profile maps onto the chaos proxy's NetFaultPlan fields.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/task.h"
#include "sim/faults.h"
#include "sim/runner.h"
#include "trace/generators.h"
#include "trace/trace.h"

namespace volley::scenario {

/// One named fault recipe. Loss fields use the simulator's independent
/// Bernoulli semantics (sim/faults.h); delay/partial-write/disconnect
/// fields only exist on the wire and map onto net::ChaosProxy's plan.
struct FaultProfile {
  std::string_view name;
  double report_loss{0.0};    // LocalViolation drop probability
  double response_loss{0.0};  // PollResponse drop probability
  double heartbeat_loss{0.0};
  double delay_prob{0.0};
  int delay_ms{0};
  double partial_write_prob{0.0};
  /// Outage-class profile: in sim mode each window becomes MonitorOutage
  /// rows for the targeted monitors; in net mode it maps to mid-stream
  /// disconnects (a partitioned/crashed monitor's link is cut and the node
  /// reconnects through its backoff machinery).
  bool outage{false};
  std::int64_t disconnect_after_frames{-1};
  int disconnects_per_window{0};
};

/// nullptr on unknown names. The table: "flaky-link" (correlated loss +
/// jitter), "partition" (outage; link cut), "slow-drip" (heavy delay +
/// partial writes, light loss), "crash-restart" (outage windows shaped
/// like a process crash and supervised restart).
const FaultProfile* find_fault_profile(std::string_view name);
/// All known profile names, for error messages and docs.
std::vector<std::string_view> fault_profile_names();

/// A scheduled application of a profile over [start, end) ticks, hitting
/// `monitors` (empty = all).
struct FaultWindow {
  std::string profile;
  Tick start{0};
  Tick end{0};
  std::vector<std::size_t> monitors;
};

/// One workload layer composed over the base process. Layers apply in file
/// order to the targeted monitors (empty target list = all):
///  * diurnal      — multiplies by a DiurnalCurve (period/depth/phase);
///  * burst        — adds scale * BurstProcess episodes (per-monitor
///                   independent forks of the scenario seed);
///  * spike        — adds a fixed rectangle [at, at+len) of `value` to the
///                   targeted monitors *simultaneously* (the correlated
///                   cross-node spike no per-monitor process can produce);
///  * regime_shift — from tick `at` on, re-targets the base OU process to a
//                    new mean/sigma (stresses the estimator's n>1000
//                    restart discipline).
struct WorkloadLayer {
  enum class Kind { kDiurnal, kBurst, kSpike, kRegimeShift };
  Kind kind{Kind::kDiurnal};
  std::vector<std::size_t> monitors;  // empty = all
  // diurnal
  Tick period{2000};
  double depth{0.5};
  Tick phase{0};
  // burst (BurstProcess::Options) + amplitude
  BurstProcess::Options burst{};
  double scale{1.0};
  // spike
  Tick at{0};
  Tick len{0};
  double value{0.0};
  // regime_shift
  double mean{0.5};
  double sigma{0.05};
};

/// Scheduled control-plane churn. Explicit events carry their tick and
/// task id; `random_arrivals` instances are drawn on top via
/// make_churn_schedule (sim/runner.h) from the scenario seed. Both explicit
/// and random arrivals run the boot task's spec scaled by
/// `threshold_scale` (churned tasks watch the same series at an offset
/// threshold, exercising per-task allowance tuning).
struct ChurnSpec {
  struct Event {
    enum class Op { kAdd, kRemove, kUpdate };
    Op op{Op::kAdd};
    Tick tick{0};
    TaskId task{0};
    double threshold_scale{1.0};  // kAdd/kUpdate: boot threshold multiplier
  };
  std::vector<Event> events;
  int random_arrivals{0};
  Tick hold_min{200};
  Tick hold_max{800};
  TaskId first_task{100};
  double threshold_scale{1.1};  // random arrivals' threshold multiplier
};

/// A scored slice of the run: invariants are evaluated per phase, so a
/// regression report says *when* the system went out of budget, not just
/// that it did. Phases must tile [0, ticks) in ascending order.
struct ScenarioPhase {
  std::string name;
  Tick start{0};
  Tick end{0};
  /// Sim-mode error-budget tolerance for this phase; < 0 uses the
  /// scenario-level invariants.tolerance. Net mode always judges against
  /// invariants.net_tolerance (the proxy applies the union fault plan to
  /// the whole run, so phase-tuned budgets only make sense in sim).
  double tolerance{-1.0};
};

struct ScenarioInvariants {
  /// Sim mode: per-phase episode miss rate may exceed the task's error
  /// allowance by at most this much.
  double tolerance{0.05};
  /// Net mode error-budget tolerance. Wall-clock scheduling adds noise the
  /// simulator doesn't have; 1.0 disables the check (the other invariants
  /// still apply) unless a scenario opts into a strict bound.
  double net_tolerance{1.0};
  /// |sum(per-monitor allowance) - task allowance| bound.
  double allowance_epsilon{1e-6};
  /// A monitor counts as stuck only in phases at least this many
  /// max_interval spans long (shorter phases can't prove liveness).
  int stuck_factor{4};
};

struct Scenario {
  std::string name;
  std::uint64_t seed{1};
  std::size_t monitors{1};
  Tick ticks{0};

  /// Boot task (id 0). Exactly one of `threshold` (absolute) or
  /// `threshold_selectivity` (percent of aggregate ticks above T, resolved
  /// against the composed series) is set; selectivity is the robust choice
  /// for seeded workloads.
  TaskSpec task{};
  double threshold{0.0};
  double threshold_selectivity{-1.0};  // < 0: use absolute `threshold`

  OuProcess::Options base{};
  std::vector<WorkloadLayer> layers;
  std::vector<FaultWindow> faults;
  ChurnSpec churn;
  std::vector<ScenarioPhase> phases;
  ScenarioInvariants invariants;

  /// Net mode pacing: microseconds of wall clock per tick.
  int tick_micros{300};
  /// Artifact cadence: a metrics snapshot every this many ticks (0 = phase
  /// boundaries only).
  Tick snapshot_every{0};

  /// Parses and validates. Throws std::invalid_argument with an actionable
  /// message (JSON syntax errors carry line:col; semantic errors name the
  /// offending field/window/profile).
  static Scenario from_json_text(std::string_view text);
  static Scenario from_file(const std::string& path);

  /// Structural validation (from_json_text already ran it; public for
  /// programmatically built scenarios): probabilities in range, fault
  /// windows within [0, ticks) with no same-profile/same-monitor overlap
  /// (delegated to FaultPlan::validate), known profile names, phases tiling
  /// [0, ticks), churn events in range.
  void validate() const;

  /// Proportionally rescales every tick field to `target_ticks` (quick
  /// CI runs). No-op when ticks <= target_ticks. Degenerate windows the
  /// rescale collapses (end <= start) are dropped.
  Scenario scaled(Tick target_ticks) const;
};

// --- deterministic builders ------------------------------------------------

/// Composes the per-monitor series from {base, layers, seed}. Each monitor
/// forks its own generator stream from Rng(seed), so adding monitors never
/// perturbs existing ones.
std::vector<TimeSeries> build_monitor_series(const Scenario& scenario);

/// The boot TaskSpec with its threshold resolved against the composed
/// aggregate (selectivity scenarios need the series; absolute ones don't).
TaskSpec resolve_boot_task(const Scenario& scenario,
                           const TimeSeries& aggregate);

/// The full churn schedule (explicit + seed-derived random arrivals), in
/// canonical_churn_order, with every spec resolved from the boot task.
std::vector<TaskChurnEvent> build_churn_events(const Scenario& scenario,
                                               const TaskSpec& boot);

/// Sim-mode fault model: each window's profile contributes a loss window
/// (overlapping windows compose as independent drops) and, for
/// outage-class profiles, outage rows for the targeted monitors. Its Rng
/// stream derives from the scenario seed.
FaultModel build_sim_fault_model(const Scenario& scenario);

/// Net-mode fault plan for the chaos proxy: the union of the scenario's
/// windows (the proxy applies one static plan for its lifetime, so loss
/// fields take each profile's maximum across windows and outage-class
/// windows become mid-stream disconnect budgets). Seeded from the scenario
/// seed.
NetFaultPlan build_net_fault_plan(const Scenario& scenario);

}  // namespace volley::scenario
