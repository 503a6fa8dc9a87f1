#include "scenario/scenario.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"
#include "common/json.h"

namespace volley::scenario {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("scenario: " + message);
}

// The named netem-style fault recipes. Loss probabilities follow the
// simulator's Bernoulli semantics; wire-only fields (delay, partial
// writes, disconnects) are what the chaos proxy applies. Keep this the
// single source of truth for both modes.
constexpr std::array<FaultProfile, 4> kProfiles{{
    // Lossy, jittery link: the classic netem "loss 25% delay 20ms" recipe.
    {"flaky-link", 0.25, 0.25, 0.15, 0.5, 20, 0.1, false, -1, 0},
    // Clean cut: the monitor is unreachable for the window (sim outage);
    // on the wire its proxied link is severed and it must reconnect.
    {"partition", 0.0, 0.0, 0.0, 0.0, 0, 0.0, true, 50, 1},
    // Heavy delay and fragmented writes with a trickle of loss — the slow
    // failing NIC / overloaded middlebox shape.
    {"slow-drip", 0.05, 0.05, 0.0, 0.9, 40, 0.5, false, -1, 0},
    // Process crash + supervised restart: offline window in sim; repeated
    // mid-stream cuts on the wire.
    {"crash-restart", 0.0, 0.0, 0.0, 0.0, 0, 0.0, true, 150, 2},
}};

std::string known_profiles_hint() {
  std::string out = "known profiles:";
  for (const auto& p : kProfiles) {
    out += ' ';
    out += p.name;
  }
  return out;
}

/// Rejects unknown keys so a typo'd knob fails loudly instead of silently
/// running the default.
void check_keys(const JsonValue::Object& obj, const std::string& where,
                std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : obj) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end())
      fail(where + ": unknown key '" + key + "'");
  }
}

double get_number(const JsonValue::Object& obj, const std::string& key,
                  const std::string& where, double def) {
  const auto it = obj.find(key);
  return it == obj.end() ? def : it->second.as_number(where + "." + key);
}

std::int64_t get_int(const JsonValue::Object& obj, const std::string& key,
                     const std::string& where, std::int64_t def) {
  const auto it = obj.find(key);
  return it == obj.end() ? def : it->second.as_int(where + "." + key);
}

std::vector<std::size_t> get_monitor_list(const JsonValue::Object& obj,
                                          const std::string& where) {
  std::vector<std::size_t> out;
  const auto it = obj.find("monitors");
  if (it == obj.end()) return out;
  for (const auto& v : it->second.as_array(where + ".monitors")) {
    const auto i = v.as_int(where + ".monitors[]");
    if (i < 0) fail(where + ".monitors: negative monitor index");
    out.push_back(static_cast<std::size_t>(i));
  }
  return out;
}

WorkloadLayer parse_layer(const JsonValue& value, std::size_t index) {
  const std::string where = "workload.layers[" + std::to_string(index) + "]";
  const auto& obj = value.as_object(where);
  const auto kind_it = obj.find("kind");
  if (kind_it == obj.end()) fail(where + ": missing 'kind'");
  const std::string& kind = kind_it->second.as_string(where + ".kind");

  WorkloadLayer layer;
  layer.monitors = get_monitor_list(obj, where);
  if (kind == "diurnal") {
    check_keys(obj, where, {"kind", "monitors", "period", "depth", "phase"});
    layer.kind = WorkloadLayer::Kind::kDiurnal;
    layer.period = static_cast<Tick>(get_int(obj, "period", where, 2000));
    layer.depth = get_number(obj, "depth", where, 0.5);
    layer.phase = static_cast<Tick>(get_int(obj, "phase", where, 0));
  } else if (kind == "burst") {
    check_keys(obj, where,
               {"kind", "monitors", "mean_gap", "ramp", "plateau", "decay",
                "peak_lo", "peak_hi", "scale"});
    layer.kind = WorkloadLayer::Kind::kBurst;
    layer.burst.mean_gap = get_number(obj, "mean_gap", where, 2000.0);
    layer.burst.ramp = static_cast<Tick>(get_int(obj, "ramp", where, 10));
    layer.burst.plateau =
        static_cast<Tick>(get_int(obj, "plateau", where, 20));
    layer.burst.decay = static_cast<Tick>(get_int(obj, "decay", where, 20));
    layer.burst.peak_lo = get_number(obj, "peak_lo", where, 0.5);
    layer.burst.peak_hi = get_number(obj, "peak_hi", where, 1.0);
    layer.scale = get_number(obj, "scale", where, 1.0);
  } else if (kind == "spike") {
    check_keys(obj, where, {"kind", "monitors", "at", "len", "value"});
    layer.kind = WorkloadLayer::Kind::kSpike;
    layer.at = static_cast<Tick>(get_int(obj, "at", where, 0));
    layer.len = static_cast<Tick>(get_int(obj, "len", where, 1));
    layer.value = get_number(obj, "value", where, 1.0);
  } else if (kind == "regime_shift") {
    check_keys(obj, where, {"kind", "monitors", "at", "mean", "sigma"});
    layer.kind = WorkloadLayer::Kind::kRegimeShift;
    layer.at = static_cast<Tick>(get_int(obj, "at", where, 0));
    layer.mean = get_number(obj, "mean", where, 0.5);
    layer.sigma = get_number(obj, "sigma", where, 0.05);
  } else {
    fail(where + ": unknown layer kind '" + kind +
         "' (known: diurnal, burst, spike, regime_shift)");
  }
  return layer;
}

ChurnSpec::Event parse_churn_event(const JsonValue& value,
                                   std::size_t index) {
  const std::string where = "churn.events[" + std::to_string(index) + "]";
  const auto& obj = value.as_object(where);
  check_keys(obj, where, {"op", "tick", "task", "threshold_scale"});
  const auto op_it = obj.find("op");
  if (op_it == obj.end()) fail(where + ": missing 'op'");
  const std::string& op = op_it->second.as_string(where + ".op");

  ChurnSpec::Event event;
  if (op == "add") event.op = ChurnSpec::Event::Op::kAdd;
  else if (op == "remove") event.op = ChurnSpec::Event::Op::kRemove;
  else if (op == "update") event.op = ChurnSpec::Event::Op::kUpdate;
  else fail(where + ": unknown op '" + op + "' (known: add, remove, update)");
  event.tick = static_cast<Tick>(get_int(obj, "tick", where, 0));
  event.task = static_cast<TaskId>(get_int(obj, "task", where, 0));
  event.threshold_scale = get_number(obj, "threshold_scale", where, 1.0);
  return event;
}

}  // namespace

const FaultProfile* find_fault_profile(std::string_view name) {
  for (const auto& profile : kProfiles) {
    if (profile.name == name) return &profile;
  }
  return nullptr;
}

std::vector<std::string_view> fault_profile_names() {
  std::vector<std::string_view> names;
  names.reserve(kProfiles.size());
  for (const auto& profile : kProfiles) names.push_back(profile.name);
  return names;
}

Scenario Scenario::from_json_text(std::string_view text) {
  const JsonValue root = JsonValue::parse(text);
  const auto& top = root.as_object("document");
  check_keys(top, "document",
             {"name", "seed", "monitors", "ticks", "task", "workload",
              "faults", "churn", "phases", "invariants", "tick_micros",
              "snapshot_every"});

  Scenario s;
  if (const auto* name = root.find("name"))
    s.name = name->as_string("name");
  if (s.name.empty()) fail("missing or empty 'name'");
  s.seed = static_cast<std::uint64_t>(get_int(top, "seed", "document", 1));
  s.monitors =
      static_cast<std::size_t>(get_int(top, "monitors", "document", 1));
  s.ticks = static_cast<Tick>(get_int(top, "ticks", "document", 0));
  s.tick_micros =
      static_cast<int>(get_int(top, "tick_micros", "document", 300));
  s.snapshot_every =
      static_cast<Tick>(get_int(top, "snapshot_every", "document", 0));

  if (const auto* task = root.find("task")) {
    const auto& obj = task->as_object("task");
    check_keys(obj, "task",
               {"threshold", "threshold_selectivity", "error_allowance",
                "id_seconds", "max_interval", "slack_ratio", "patience",
                "updating_period"});
    s.threshold = get_number(obj, "threshold", "task", 0.0);
    s.threshold_selectivity =
        get_number(obj, "threshold_selectivity", "task", -1.0);
    s.task.error_allowance =
        get_number(obj, "error_allowance", "task", s.task.error_allowance);
    s.task.id_seconds = get_number(obj, "id_seconds", "task", 1.0);
    s.task.max_interval = static_cast<Tick>(
        get_int(obj, "max_interval", "task", s.task.max_interval));
    s.task.slack_ratio =
        get_number(obj, "slack_ratio", "task", s.task.slack_ratio);
    s.task.patience =
        static_cast<int>(get_int(obj, "patience", "task", s.task.patience));
    s.task.updating_period = static_cast<Tick>(
        get_int(obj, "updating_period", "task", s.task.updating_period));
    if (obj.count("threshold") && obj.count("threshold_selectivity"))
      fail("task: set 'threshold' or 'threshold_selectivity', not both");
    if (!obj.count("threshold") && !obj.count("threshold_selectivity"))
      fail("task: one of 'threshold' / 'threshold_selectivity' is required");
  } else {
    fail("missing 'task' object");
  }

  if (const auto* workload = root.find("workload")) {
    const auto& obj = workload->as_object("workload");
    check_keys(obj, "workload", {"base", "layers"});
    if (const auto* base = workload->find("base")) {
      const auto& b = base->as_object("workload.base");
      check_keys(b, "workload.base",
                 {"mean", "theta", "sigma", "lo", "hi", "start"});
      s.base.mean = get_number(b, "mean", "workload.base", 0.5);
      s.base.theta = get_number(b, "theta", "workload.base", 0.05);
      s.base.sigma = get_number(b, "sigma", "workload.base", 0.02);
      s.base.lo = get_number(b, "lo", "workload.base", 0.0);
      s.base.hi = get_number(b, "hi", "workload.base", 1.0);
      s.base.start = get_number(b, "start", "workload.base", s.base.mean);
    }
    if (const auto* layers = workload->find("layers")) {
      const auto& arr = layers->as_array("workload.layers");
      for (std::size_t i = 0; i < arr.size(); ++i)
        s.layers.push_back(parse_layer(arr[i], i));
    }
  }

  if (const auto* faults = root.find("faults")) {
    const auto& arr = faults->as_array("faults");
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const std::string where = "faults[" + std::to_string(i) + "]";
      const auto& obj = arr[i].as_object(where);
      check_keys(obj, where, {"profile", "start", "end", "monitors"});
      FaultWindow window;
      const auto profile_it = obj.find("profile");
      if (profile_it == obj.end()) fail(where + ": missing 'profile'");
      window.profile = profile_it->second.as_string(where + ".profile");
      window.start = static_cast<Tick>(get_int(obj, "start", where, 0));
      window.end = static_cast<Tick>(get_int(obj, "end", where, 0));
      window.monitors = get_monitor_list(obj, where);
      s.faults.push_back(std::move(window));
    }
  }

  if (const auto* churn = root.find("churn")) {
    const auto& obj = churn->as_object("churn");
    check_keys(obj, "churn", {"events", "random"});
    if (const auto* events = churn->find("events")) {
      const auto& arr = events->as_array("churn.events");
      for (std::size_t i = 0; i < arr.size(); ++i)
        s.churn.events.push_back(parse_churn_event(arr[i], i));
    }
    if (const auto* random = churn->find("random")) {
      const auto& r = random->as_object("churn.random");
      check_keys(r, "churn.random",
                 {"arrivals", "hold_min", "hold_max", "first_task",
                  "threshold_scale"});
      s.churn.random_arrivals =
          static_cast<int>(get_int(r, "arrivals", "churn.random", 0));
      s.churn.hold_min = static_cast<Tick>(
          get_int(r, "hold_min", "churn.random", s.churn.hold_min));
      s.churn.hold_max = static_cast<Tick>(
          get_int(r, "hold_max", "churn.random", s.churn.hold_max));
      s.churn.first_task = static_cast<TaskId>(
          get_int(r, "first_task", "churn.random", s.churn.first_task));
      s.churn.threshold_scale = get_number(r, "threshold_scale",
                                           "churn.random",
                                           s.churn.threshold_scale);
    }
  }

  if (const auto* phases = root.find("phases")) {
    const auto& arr = phases->as_array("phases");
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const std::string where = "phases[" + std::to_string(i) + "]";
      const auto& obj = arr[i].as_object(where);
      check_keys(obj, where, {"name", "start", "end", "tolerance"});
      ScenarioPhase phase;
      const auto name_it = obj.find("name");
      if (name_it == obj.end()) fail(where + ": missing 'name'");
      phase.name = name_it->second.as_string(where + ".name");
      phase.start = static_cast<Tick>(get_int(obj, "start", where, 0));
      phase.end = static_cast<Tick>(get_int(obj, "end", where, 0));
      phase.tolerance = get_number(obj, "tolerance", where, -1.0);
      s.phases.push_back(std::move(phase));
    }
  }

  if (const auto* invariants = root.find("invariants")) {
    const auto& obj = invariants->as_object("invariants");
    check_keys(obj, "invariants",
               {"tolerance", "net_tolerance", "allowance_epsilon",
                "stuck_factor"});
    s.invariants.tolerance =
        get_number(obj, "tolerance", "invariants", s.invariants.tolerance);
    s.invariants.net_tolerance = get_number(obj, "net_tolerance",
                                            "invariants",
                                            s.invariants.net_tolerance);
    s.invariants.allowance_epsilon =
        get_number(obj, "allowance_epsilon", "invariants",
                   s.invariants.allowance_epsilon);
    s.invariants.stuck_factor = static_cast<int>(
        get_int(obj, "stuck_factor", "invariants",
                s.invariants.stuck_factor));
  }

  s.validate();
  return s;
}

Scenario Scenario::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open scenario file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return from_json_text(buffer.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

void Scenario::validate() const {
  if (name.empty()) fail("empty name");
  if (monitors < 1) fail("monitors >= 1");
  if (ticks < 1) fail("ticks >= 1");
  if (tick_micros < 1) fail("tick_micros >= 1");
  if (snapshot_every < 0) fail("snapshot_every >= 0");
  task.validate();
  if (threshold_selectivity >= 0.0 &&
      (threshold_selectivity <= 0.0 || threshold_selectivity >= 100.0))
    fail("task.threshold_selectivity in (0, 100)");
  if (base.theta <= 0.0 || base.theta > 1.0)
    fail("workload.base.theta in (0, 1]");
  if (base.sigma < 0.0) fail("workload.base.sigma >= 0");
  if (base.lo >= base.hi) fail("workload.base: lo < hi");

  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto& layer = layers[i];
    const std::string where = "workload.layers[" + std::to_string(i) + "]";
    for (std::size_t m : layer.monitors) {
      if (m >= monitors)
        fail(where + ": monitor index " + std::to_string(m) +
             " out of range (monitors=" + std::to_string(monitors) + ")");
    }
    switch (layer.kind) {
      case WorkloadLayer::Kind::kDiurnal:
        if (layer.period < 2) fail(where + ": diurnal period >= 2");
        if (layer.depth < 0.0 || layer.depth >= 1.0)
          fail(where + ": diurnal depth in [0, 1)");
        break;
      case WorkloadLayer::Kind::kBurst:
        if (layer.burst.mean_gap <= 0.0) fail(where + ": mean_gap > 0");
        if (layer.burst.ramp < 1 || layer.burst.plateau < 0 ||
            layer.burst.decay < 1)
          fail(where + ": burst ramp/decay >= 1, plateau >= 0");
        if (layer.burst.peak_lo > layer.burst.peak_hi)
          fail(where + ": burst peak_lo <= peak_hi");
        if (layer.scale <= 0.0) fail(where + ": burst scale > 0");
        break;
      case WorkloadLayer::Kind::kSpike:
        if (layer.at < 0 || layer.len < 1 || layer.at + layer.len > ticks)
          fail(where + ": spike window [at, at+len) must lie in [0, ticks)");
        break;
      case WorkloadLayer::Kind::kRegimeShift:
        if (layer.at < 0 || layer.at >= ticks)
          fail(where + ": regime_shift at in [0, ticks)");
        if (layer.sigma < 0.0) fail(where + ": regime_shift sigma >= 0");
        break;
    }
  }

  // Fault windows: known profiles, in-range bounds and targets, and no
  // same-profile overlap on one monitor. Overlap detection delegates to
  // FaultPlan::validate — the exact rule the simulator's fault plans
  // already enforce — by expanding each profile's windows to per-monitor
  // outage rows.
  std::map<std::string, FaultPlan> per_profile;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto& window = faults[i];
    const std::string where = "faults[" + std::to_string(i) + "]";
    const FaultProfile* profile = find_fault_profile(window.profile);
    if (!profile)
      fail(where + ": unknown profile '" + window.profile + "' (" +
           known_profiles_hint() + ")");
    if (window.start < 0 || window.end > ticks || window.end <= window.start)
      fail(where + ": window [start, end) must be non-empty and lie in [0, " +
           std::to_string(ticks) + ")");
    for (std::size_t m : window.monitors) {
      if (m >= monitors)
        fail(where + ": monitor index " + std::to_string(m) +
             " out of range (monitors=" + std::to_string(monitors) + ")");
    }
    auto& plan = per_profile[window.profile];
    if (window.monitors.empty()) {
      for (std::size_t m = 0; m < monitors; ++m)
        plan.outages.push_back({m, window.start, window.end});
    } else {
      for (std::size_t m : window.monitors)
        plan.outages.push_back({m, window.start, window.end});
    }
  }
  for (const auto& [profile, plan] : per_profile) {
    try {
      plan.validate();
    } catch (const std::invalid_argument&) {
      fail("faults: overlapping '" + profile +
           "' windows on one monitor (merge or split the windows)");
    }
  }

  // Churn: boot task id 0 is reserved; explicit ids must stay clear of the
  // random-arrival id range; removes/updates must name plausible targets.
  if (churn.random_arrivals < 0) fail("churn.random.arrivals >= 0");
  if (churn.random_arrivals > 0) {
    if (churn.hold_min < 1 || churn.hold_max < churn.hold_min)
      fail("churn.random: 1 <= hold_min <= hold_max");
    if (churn.first_task == 0) fail("churn.random.first_task != 0 (boot id)");
    if (churn.threshold_scale <= 0.0) fail("churn.random.threshold_scale > 0");
  }
  for (std::size_t i = 0; i < churn.events.size(); ++i) {
    const auto& event = churn.events[i];
    const std::string where = "churn.events[" + std::to_string(i) + "]";
    if (event.task == 0) fail(where + ": task id 0 is the reserved boot task");
    if (event.tick < 0 || event.tick >= ticks)
      fail(where + ": tick in [0, ticks)");
    if (event.op != ChurnSpec::Event::Op::kRemove &&
        event.threshold_scale <= 0.0)
      fail(where + ": threshold_scale > 0");
    if (churn.random_arrivals > 0 &&
        event.task >= churn.first_task &&
        event.task < churn.first_task +
                         static_cast<TaskId>(churn.random_arrivals))
      fail(where + ": task id collides with churn.random id range [" +
           std::to_string(churn.first_task) + ", " +
           std::to_string(churn.first_task + churn.random_arrivals) + ")");
  }

  // Phases must tile [0, ticks) in order — gaps or overlaps would silently
  // skip (or double-score) run slices.
  if (!phases.empty()) {
    if (phases.front().start != 0) fail("phases[0].start must be 0");
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const auto& phase = phases[i];
      const std::string where = "phases[" + std::to_string(i) + "]";
      if (phase.name.empty()) fail(where + ": empty name");
      if (phase.end <= phase.start) fail(where + ": end > start required");
      if (phase.end > ticks)
        fail(where + ": end " + std::to_string(phase.end) +
             " out of range (ticks=" + std::to_string(ticks) + ")");
      if (i > 0 && phase.start != phases[i - 1].end)
        fail(where + ": start must equal phases[" + std::to_string(i - 1) +
             "].end (phases tile the run)");
      if (phase.tolerance >= 0.0 && phase.tolerance > 1.0)
        fail(where + ": tolerance in [0, 1]");
    }
    if (phases.back().end != ticks)
      fail("phases must cover the full run (last end == ticks)");
  }

  if (invariants.tolerance < 0.0 || invariants.tolerance > 1.0)
    fail("invariants.tolerance in [0, 1]");
  if (invariants.net_tolerance < 0.0 || invariants.net_tolerance > 1.0)
    fail("invariants.net_tolerance in [0, 1]");
  if (invariants.allowance_epsilon < 0.0)
    fail("invariants.allowance_epsilon >= 0");
  if (invariants.stuck_factor < 1) fail("invariants.stuck_factor >= 1");
}

Scenario Scenario::scaled(Tick target_ticks) const {
  if (target_ticks < 1) fail("scaled: target_ticks >= 1");
  if (ticks <= target_ticks) return *this;
  Scenario out = *this;
  const auto scale = [&](Tick t) -> Tick {
    return static_cast<Tick>((static_cast<std::int64_t>(t) * target_ticks) /
                             ticks);
  };
  const auto scale_min1 = [&](Tick t) -> Tick {
    return std::max<Tick>(1, scale(t));
  };
  out.ticks = target_ticks;
  out.task.updating_period = scale_min1(task.updating_period);
  for (auto& layer : out.layers) {
    switch (layer.kind) {
      case WorkloadLayer::Kind::kDiurnal:
        layer.period = std::max<Tick>(2, scale(layer.period));
        layer.phase = scale(layer.phase);
        break;
      case WorkloadLayer::Kind::kBurst:
        layer.burst.mean_gap = layer.burst.mean_gap *
                               static_cast<double>(target_ticks) /
                               static_cast<double>(ticks);
        layer.burst.ramp = scale_min1(layer.burst.ramp);
        layer.burst.plateau = scale(layer.burst.plateau);
        layer.burst.decay = scale_min1(layer.burst.decay);
        break;
      case WorkloadLayer::Kind::kSpike:
        layer.at = scale(layer.at);
        layer.len = scale_min1(layer.len);
        if (layer.at + layer.len > target_ticks)
          layer.at = target_ticks - layer.len;
        break;
      case WorkloadLayer::Kind::kRegimeShift:
        layer.at = std::min(scale(layer.at), target_ticks - 1);
        break;
    }
  }
  std::vector<FaultWindow> windows;
  for (auto& window : out.faults) {
    window.start = scale(window.start);
    window.end = scale(window.end);
    if (window.end > window.start) windows.push_back(std::move(window));
  }
  out.faults = std::move(windows);
  for (auto& event : out.churn.events)
    event.tick = std::min(scale(event.tick), target_ticks - 1);
  out.churn.hold_min = scale_min1(churn.hold_min);
  out.churn.hold_max = std::max(out.churn.hold_min, scale(churn.hold_max));
  std::vector<ScenarioPhase> scaled_phases;
  for (auto& phase : out.phases) {
    phase.start = scale(phase.start);
    phase.end = scale(phase.end);
    if (phase.end > phase.start) scaled_phases.push_back(std::move(phase));
  }
  if (!scaled_phases.empty()) {
    scaled_phases.front().start = 0;
    for (std::size_t i = 1; i < scaled_phases.size(); ++i)
      scaled_phases[i].start = scaled_phases[i - 1].end;
    scaled_phases.back().end = target_ticks;
  }
  out.phases = std::move(scaled_phases);
  if (out.snapshot_every > 0)
    out.snapshot_every = scale_min1(out.snapshot_every);
  out.validate();
  return out;
}

std::vector<TimeSeries> build_monitor_series(const Scenario& scenario) {
  scenario.validate();
  Rng root(scenario.seed);
  std::vector<TimeSeries> series;
  series.reserve(scenario.monitors);

  for (std::size_t m = 0; m < scenario.monitors; ++m) {
    // One fork per monitor, drawn in monitor order: monitor m's stream
    // never depends on how many monitors follow it.
    Rng rng = root.fork();

    const auto targets = [&](const WorkloadLayer& layer) {
      return layer.monitors.empty() ||
             std::find(layer.monitors.begin(), layer.monitors.end(), m) !=
                 layer.monitors.end();
    };

    OuProcess ou(scenario.base);
    // Per-monitor burst processes, one per burst layer (independent
    // episodes per node; correlated spikes use the `spike` layer).
    struct ActiveBurst {
      const WorkloadLayer* layer;
      BurstProcess process;
    };
    std::vector<ActiveBurst> bursts;
    for (const auto& layer : scenario.layers) {
      if (layer.kind == WorkloadLayer::Kind::kBurst && targets(layer))
        bursts.push_back({&layer, BurstProcess(layer.burst, rng)});
    }
    // Regime shifts targeting this monitor, ascending activation tick.
    std::vector<const WorkloadLayer*> shifts;
    for (const auto& layer : scenario.layers) {
      if (layer.kind == WorkloadLayer::Kind::kRegimeShift && targets(layer))
        shifts.push_back(&layer);
    }
    std::sort(shifts.begin(), shifts.end(),
              [](const WorkloadLayer* a, const WorkloadLayer* b) {
                return a->at < b->at;
              });
    std::size_t next_shift = 0;

    TimeSeries out(static_cast<std::size_t>(scenario.ticks));
    for (Tick t = 0; t < scenario.ticks; ++t) {
      while (next_shift < shifts.size() && shifts[next_shift]->at <= t) {
        // Re-target the mean-reverting base in place: keep the current
        // level (no teleport) but revert toward the new regime.
        OuProcess::Options opts = scenario.base;
        opts.mean = shifts[next_shift]->mean;
        opts.sigma = shifts[next_shift]->sigma;
        opts.start = ou.current();
        ou = OuProcess(opts);
        ++next_shift;
      }
      double v = ou.next(rng);
      for (const auto& layer : scenario.layers) {
        if (layer.kind == WorkloadLayer::Kind::kDiurnal && targets(layer))
          v *= DiurnalCurve(layer.period, layer.depth, layer.phase)
                   .multiplier(t);
      }
      for (auto& burst : bursts)
        v += burst.layer->scale * burst.process.next(rng);
      for (const auto& layer : scenario.layers) {
        if (layer.kind == WorkloadLayer::Kind::kSpike && targets(layer) &&
            t >= layer.at && t < layer.at + layer.len)
          v += layer.value;
      }
      out[static_cast<std::size_t>(t)] = v;
    }
    series.push_back(std::move(out));
  }
  return series;
}

TaskSpec resolve_boot_task(const Scenario& scenario,
                           const TimeSeries& aggregate) {
  TaskSpec spec = scenario.task;
  spec.global_threshold =
      scenario.threshold_selectivity >= 0.0
          ? aggregate.threshold_for_selectivity(scenario.threshold_selectivity)
          : scenario.threshold;
  return spec;
}

std::vector<TaskChurnEvent> build_churn_events(const Scenario& scenario,
                                               const TaskSpec& boot) {
  std::vector<TaskChurnEvent> events;
  for (const auto& event : scenario.churn.events) {
    TaskSpec spec = boot;
    spec.global_threshold = boot.global_threshold * event.threshold_scale;
    switch (event.op) {
      case ChurnSpec::Event::Op::kAdd:
        events.push_back(
            {TaskChurnEvent::Kind::kArrive, event.tick, event.task, spec});
        break;
      case ChurnSpec::Event::Op::kRemove:
        events.push_back(
            {TaskChurnEvent::Kind::kDepart, event.tick, event.task, {}});
        break;
      case ChurnSpec::Event::Op::kUpdate:
        // The sim mirror of UpdateTask: retire and re-add at the same tick
        // (canonical order applies the depart first). Epoch numbering
        // differs from the wire runtime (two epochs instead of one), but
        // monotonicity — the invariant — is identical.
        events.push_back(
            {TaskChurnEvent::Kind::kDepart, event.tick, event.task, {}});
        events.push_back(
            {TaskChurnEvent::Kind::kArrive, event.tick, event.task, spec});
        break;
    }
  }
  if (scenario.churn.random_arrivals > 0) {
    ChurnScheduleOptions options;
    // Independent stream from the workload composition: same scenario seed,
    // fixed domain-separation constant.
    options.seed = scenario.seed ^ 0xC4CEB9FE1A85EC53ULL;
    options.ticks = scenario.ticks;
    options.arrivals = scenario.churn.random_arrivals;
    options.first_task = scenario.churn.first_task;
    options.hold_min = scenario.churn.hold_min;
    options.hold_max = scenario.churn.hold_max;
    options.spec = boot;
    options.spec.global_threshold =
        boot.global_threshold * scenario.churn.threshold_scale;
    auto random = make_churn_schedule(options);
    events.insert(events.end(), random.begin(), random.end());
  }
  return canonical_churn_order(std::move(events));
}

FaultModel build_sim_fault_model(const Scenario& scenario) {
  std::vector<FaultModel::LossWindow> loss;
  std::vector<MonitorOutage> outages;
  for (const auto& window : scenario.faults) {
    const FaultProfile* profile = find_fault_profile(window.profile);
    if (!profile) fail("build_sim_fault_model: unknown " + window.profile);
    if (profile->outage) {
      if (window.monitors.empty()) {
        for (std::size_t m = 0; m < scenario.monitors; ++m)
          outages.push_back({m, window.start, window.end});
      } else {
        for (std::size_t m : window.monitors)
          outages.push_back({m, window.start, window.end});
      }
    }
    if (profile->report_loss > 0.0 || profile->response_loss > 0.0) {
      loss.push_back({window.start, window.end, profile->report_loss,
                      profile->response_loss});
    }
  }
  // Domain-separated from the workload composition's stream.
  return FaultModel(std::move(loss), outages,
                    scenario.seed ^ 0x9E3779B97F4A7C15ULL);
}

NetFaultPlan build_net_fault_plan(const Scenario& scenario) {
  NetFaultPlan plan;
  plan.message_loss.seed = scenario.seed;
  for (const auto& window : scenario.faults) {
    const FaultProfile* profile = find_fault_profile(window.profile);
    if (!profile) fail("build_net_fault_plan: unknown " + window.profile);
    auto& loss = plan.message_loss;
    loss.violation_report_loss =
        std::max(loss.violation_report_loss, profile->report_loss);
    loss.poll_response_loss =
        std::max(loss.poll_response_loss, profile->response_loss);
    plan.heartbeat_loss = std::max(plan.heartbeat_loss,
                                   profile->heartbeat_loss);
    if (profile->delay_prob > plan.delay_prob) {
      plan.delay_prob = profile->delay_prob;
      plan.delay_ms = profile->delay_ms;
    }
    plan.partial_write_prob =
        std::max(plan.partial_write_prob, profile->partial_write_prob);
    if (profile->disconnect_after_frames > 0) {
      plan.disconnect_after_frames =
          plan.disconnect_after_frames < 0
              ? profile->disconnect_after_frames
              : std::min(plan.disconnect_after_frames,
                         profile->disconnect_after_frames);
      plan.max_disconnects += profile->disconnects_per_window;
    }
  }
  plan.validate();
  return plan;
}

}  // namespace volley::scenario
