// In-process fleet workloads: fleet_quiet (one flat core::Coordinator) and
// fleet_hotspot (shard::ShardedCoordinator). Both tick the fleet through
// run_tick only.
//
// Inputs. Every monitor's value is computed on the fly from (seed, id,
// tick): a noise floor of 1e-20 under a local threshold of 1e-9, so a
// quiet monitor's β̄ is certified zero at I = Im and it sits at Im. The
// global threshold is the sum of the local ones, so a monitor pushed well
// above 1e-9 pushes the fleet over T only when it carries the fleet past
// every other monitor's slack; the episode levels below are chosen with
// at least a 25% margin either side of T, so the ground truth (is the
// fleet over T at tick t?) is known from the episode schedule alone.
//
//  * fleet_quiet: 2048 monitors. Episodes land on a pool of 64 monitors:
//    a ramp (48-96 ticks, up to 90% of the local threshold) announces a
//    pulse of 1-5 ticks, all shorter than Im, far above T.
//  * fleet_hotspot: 2048 monitors in 8 shards. Monitors 256-319 (one
//    shard's first quarter) hover just under their local thresholds and
//    trip one about every 16 ticks (subset polls); seeded surges every
//    300-900 ticks push that shard over T_s without crossing T
//    (escalations); seeded episodes push the block over T.
//
// Fleet sizes are the largest whose poll cost held steady from process to
// process on the virtual machine the benchmark was built on: a flat poll
// over 16384 or 4096 monitors moved by up to 45% between processes.
//
// Run shape: set-up (timed 31 times, each after 100 ms of probe chunks and
// over their host factor, the median reported), an untimed warm-up of
// 17000 ticks so quiet monitors climb to Im, then a timed region. Its
// first part, the scored window, holds a fixed number of episodes, so
// every count-derived metric repeats exactly for a seed; the timed region
// then continues on the same schedule until the time is up.
#include <algorithm>
#include <iterator>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/coordinator.h"
#include "core/error_allocation.h"
#include "core/metric_source.h"
#include "core/monitor.h"
#include "core/task.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"
#include "shard/sharded_coordinator.h"
#include "spans.h"

namespace perfbench {
namespace {

using volley::Tick;

constexpr double kNoise = 1e-20;
constexpr double kLocalThreshold = 1e-9;
constexpr Tick kWarmup = 17000;
constexpr std::int64_t kSegmentNs = 500'000'000;

struct Episode {
  std::uint32_t first{0};  // monitors [first, first + count)
  std::uint32_t count{1};
  Tick start{0};  // ramp start (== pulse when there is no ramp)
  Tick pulse{0};  // first tick over T
  Tick end{0};    // one past the last tick over T
  double level{0.0};
};

struct FleetSpec {
  const char* name{""};
  std::size_t monitors{0};
  std::size_t shards{1};
  std::size_t scored_episodes{0};
  // Episode shape (ticks).
  std::uint32_t pool_stride{0};  // quiet: pool monitor = k * stride + 7
  std::uint32_t pool_size{0};
  Tick ramp_min{0}, ramp_max{0};
  Tick pulse_min{0}, pulse_max{0};
  Tick gap_min{0}, gap_max{0};
  double level{0.0};
  // Hot block (hotspot only).
  std::uint32_t hot_first{0}, hot_count{0};
  double hover_violation_prob{0.0};
  double surge_level{0.0};
  Tick surge_every_min{0}, surge_every_max{0};
};

/// The generated inputs: per-monitor series as a function of (id, tick).
/// Episodes and surges are kept as sorted interval lists; the intervals
/// covering the tick last asked for are cached, since every call within a
/// run_tick asks for the same tick.
class FleetModel {
 public:
  FleetModel(const FleetSpec& spec, std::uint64_t seed, Tick horizon)
      : spec_(spec), seed_(seed), horizon_(horizon) {
    std::uint64_t k = 0;
    const auto draw = [&](Tick lo, Tick hi) {
      return lo + static_cast<Tick>(mix(seed_ ^ 0xe915ull, k++) %
                                    static_cast<std::uint64_t>(hi - lo + 1));
    };
    Tick t = kWarmup + draw(spec.gap_min, spec.gap_max);
    while (true) {
      Episode e;
      if (spec.hot_count > 0) {
        e.first = spec.hot_first;
        e.count = spec.hot_count;
      } else {
        e.first = static_cast<std::uint32_t>(
                      mix(seed_ ^ 0x9001ull, k++) % spec.pool_size) *
                      spec.pool_stride + 7;
        e.count = 1;
      }
      e.start = t;
      e.pulse = t + (spec.ramp_max > 0 ? draw(spec.ramp_min, spec.ramp_max) : 0);
      e.end = e.pulse + draw(spec.pulse_min, spec.pulse_max);
      e.level = spec.level;
      if (e.end + spec.gap_max + 1 >= horizon) break;
      episodes_.push_back(e);
      t = e.end + draw(spec.gap_min, spec.gap_max);
    }
    if (spec.surge_every_max > 0) {
      // Surges fall in the gaps between episodes, never on them.
      Tick s = kWarmup + draw(spec.surge_every_min, spec.surge_every_max);
      while (s + 8 < horizon) {
        const Tick len = draw(2, 6);
        bool clear = true;
        for (Tick u = s; u < s + len; ++u) clear = clear && episode_at(u) == nullptr;
        if (clear) surges_.push_back({s, s + len});
        s += len + draw(spec.surge_every_min, spec.surge_every_max);
      }
    }
    hover_scale_ = spec.hover_violation_prob > 0.0
                       ? 0.4 / (1.0 - spec.hover_violation_prob)
                       : 0.0;
  }

  double value(std::uint32_t id, Tick t) const {
    ++calls_;
    seek(t);
    const std::uint64_t h = mix(seed_ ^ (static_cast<std::uint64_t>(id) << 20), static_cast<std::uint64_t>(t));
    double v = kNoise * unit(h);
    const bool hot = id - spec_.hot_first < spec_.hot_count;
    if (hot) {
      v = kLocalThreshold * (0.6 + hover_scale_ * unit(h));
      if (surge_) v += kLocalThreshold * spec_.surge_level;
    }
    const Episode* ep = episode_;
    if (ep != nullptr && id - ep->first < ep->count) {
      if (t >= ep->pulse) {
        v += ep->level;
      } else {
        // The announcing ramp climbs to 90% of the local threshold.
        v += 0.9 * kLocalThreshold * static_cast<double>(t - ep->start + 1) /
             static_cast<double>(ep->pulse - ep->start);
      }
    }
    return v;
  }

  /// True when the fleet aggregate exceeds T at tick t (by construction).
  bool over_threshold(Tick t) const {
    seek(t);
    return episode_ != nullptr && t >= episode_->pulse;
  }

  const std::vector<Episode>& episodes() const { return episodes_; }
  std::int64_t calls() const { return calls_; }
  Tick horizon() const { return horizon_; }

 private:
  struct Interval {
    Tick start{0}, end{0};  // [start, end)
  };

  /// The episode covering tick t (ramp or pulse), or null.
  const Episode* episode_at(Tick t) const {
    const auto it = std::upper_bound(episodes_.begin(), episodes_.end(), t,
                                     [](Tick u, const Episode& e) { return u < e.start; });
    return it != episodes_.begin() && t < std::prev(it)->end ? &*std::prev(it) : nullptr;
  }

  void seek(Tick t) const {
    if (t == at_) return;
    at_ = t;
    episode_ = episode_at(t);
    const auto it = std::upper_bound(surges_.begin(), surges_.end(), t,
                                     [](Tick u, const Interval& s) { return u < s.start; });
    surge_ = it != surges_.begin() && t < std::prev(it)->end;
  }

  FleetSpec spec_;
  std::uint64_t seed_;
  Tick horizon_;
  std::vector<Episode> episodes_;  // sorted, disjoint
  std::vector<Interval> surges_;   // sorted, disjoint
  double hover_scale_{0.0};
  mutable std::int64_t calls_{0};
  // The tick last asked for and what covers it.
  mutable Tick at_{-1};
  mutable const Episode* episode_{nullptr};
  mutable bool surge_{false};
};

class ModelSource final : public volley::MetricSource {
 public:
  ModelSource(const FleetModel& model, std::uint32_t id) : model_(&model), id_(id) {}
  double value_at(Tick t) const override { return model_->value(id_, t); }
  Tick length() const override { return model_->horizon(); }

 private:
  const FleetModel* model_;
  std::uint32_t id_;
};

volley::TaskSpec task_spec(const FleetSpec& spec) {
  volley::TaskSpec task;  // paper defaults: γ 0.2, p 20, Im 40, period 1000
  task.error_allowance = 0.01;
  task.global_threshold = kLocalThreshold * static_cast<double>(spec.monitors);
  return task;
}

/// The paper's adaptive allocator. Its default floor (err/100 per lane) is
/// infeasible beyond 100 lanes (clamp_and_normalize throws), so larger
/// tiers get a floor that sums to at most half the budget.
std::unique_ptr<volley::AllowanceAllocator> make_allocator(std::size_t lanes) {
  volley::AdaptiveAllocation::Options o;
  o.min_fraction = std::min(o.min_fraction, 0.5 / static_cast<double>(lanes));
  return std::make_unique<volley::AdaptiveAllocation>(o);
}

/// A fleet under test: sources, monitors and the coordinator that owns them.
struct Fleet {
  std::vector<std::unique_ptr<ModelSource>> sources;
  std::unique_ptr<volley::Coordinator> flat;
  std::unique_ptr<volley::shard::ShardedCoordinator> sharded;

  volley::Coordinator::TickResult run_tick(Tick t) {
    return flat ? flat->run_tick(t) : sharded->run_tick(t);
  }
  std::int64_t total_ops() const {
    return flat ? flat->total_ops() : sharded->total_ops();
  }
  std::size_t monitor_count() const {
    return flat ? flat->monitor_count() : sharded->monitor_count();
  }
  const volley::Monitor& monitor(std::size_t i) const {
    return flat ? flat->monitor(i) : sharded->monitor(i);
  }
  std::int64_t polls() const {
    return flat ? flat->global_polls() : sharded->shard_polls();
  }
  std::int64_t escalations() const { return flat ? 0 : sharded->escalations(); }
};

std::unique_ptr<Fleet> build_fleet(const FleetSpec& spec, const FleetModel& model) {
  auto fleet = std::make_unique<Fleet>();
  const volley::TaskSpec task = task_spec(spec);
  const double share = task.error_allowance / static_cast<double>(spec.monitors);
  std::vector<std::unique_ptr<volley::Monitor>> monitors;
  monitors.reserve(spec.monitors);
  fleet->sources.reserve(spec.monitors);
  for (std::uint32_t i = 0; i < spec.monitors; ++i) {
    fleet->sources.push_back(std::make_unique<ModelSource>(model, i));
    monitors.push_back(std::make_unique<volley::Monitor>(
        i, *fleet->sources.back(), task.sampler_options(share), kLocalThreshold));
  }
  if (spec.shards == 1) {
    fleet->flat = std::make_unique<volley::Coordinator>(
        task, std::move(monitors), make_allocator(spec.monitors));
  } else {
    fleet->sharded = std::make_unique<volley::shard::ShardedCoordinator>(
        task, std::move(monitors), spec.shards, make_allocator);
  }
  return fleet;
}

std::int64_t counter(const char* name) {
  return volley::obs::global_metrics().counter(name).value();
}

enum TickClass { kIdle, kSample, kPoll, kRealloc, kEscalation, kClasses };
const char* const kClassNames[kClasses] = {"tick.idle", "tick.sample", "tick.poll",
                                            "tick.realloc", "tick.escalation"};

/// What one timed run of a fleet observed.
struct FleetRun {
  double setup_s{0.0};
  double timed_s{0.0};
  Tick timed_ticks{0};
  std::vector<double> segment_rates;  // monitor-ticks/s per segment, scaled
  HostSpeed speed;                    // host factor per segment, by tick
  Tick scored_end{0};
  std::vector<double> alert_tick_ms;  // wall time of alert-raising ticks
  std::vector<double> alert_tick_scaled_ms;  // the same over the host factor
  std::vector<Tick> alert_ticks;      // scored window only
  std::vector<Tick> false_alerts;
  std::int64_t scored_ops{0};
  std::int64_t ops_scheduled{0}, ops_forced{0}, program_ops{0}, source_calls{0};
  std::int64_t resets{0}, growths{0};
  std::int64_t polls{0}, violations{0}, escalations{0}, subset_polls{0};
  std::int64_t root_reallocations{0};
  std::int64_t trace_recorded{0};
  double at_max_frac{0.0};
  double err_sum_gap{0.0};  // max |Σ err_i − budget| over every tier
  std::size_t scored_episodes{0};
  std::vector<double> detect_delays;
  std::size_t missed{0};
  // Traced run only.
  double class_ns[kClasses]{};
  std::int64_t class_ticks[kClasses]{};
  std::int64_t class_calls[kClasses]{};
  double span_cover{0.0};  // tick spans' share of the timed wall
  std::int64_t timed_calls{0};
};

FleetRun run_once(const FleetSpec& spec, const FleetModel& model,
                  const Options& o, SpanRecorder* spans) {
  FleetRun run;
  const std::int64_t calls_before = model.calls();  // the model may be reused
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    const double factor = probe_for(kSetupGapNs);
    const std::int64_t t0 = now_ns();
    fleet = build_fleet(spec, model);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9 / factor);
  }
  run.setup_s = median(setups);

  for (Tick t = 0; t < kWarmup; ++t) {
    if (fleet->run_tick(t).global_violation) run.false_alerts.push_back(t);
  }

  // The scored window ends after the scored episodes' last pulse.
  const auto& episodes = model.episodes();
  run.scored_episodes = std::min(spec.scored_episodes, episodes.size());
  run.scored_end = episodes[run.scored_episodes - 1].end + spec.gap_min;

  const std::int64_t resets0 = counter("volley_sampler_interval_resets_total");
  const std::int64_t growths0 = counter("volley_sampler_interval_growths_total");
  const std::int64_t trace0 = volley::obs::global_trace().recorded();
  const std::int64_t polls0 = fleet->polls();
  const std::int64_t esc0 = fleet->escalations();
  const std::int64_t viol0 = fleet->flat ? fleet->flat->global_violations()
                                         : fleet->sharded->global_violations();
  const std::int64_t calls_w = model.calls();
  std::int64_t calls_scored = 0;

  std::uint32_t class_names[kClasses]{};
  std::int32_t root = SpanRecorder::kNoParent;
  if (spans) {
    for (int c = 0; c < kClasses; ++c) class_names[c] = spans->intern(kClassNames[c]);
    root = spans->open(spans->intern("fleet.timed"), SpanRecorder::kNoParent, 0);
  }
  const volley::TaskSpec task = task_spec(spec);
  const std::int64_t budget_ns = static_cast<std::int64_t>(o.seconds * 1e9);

  // Every 256 ticks a probe chunk times the host; its time is taken out
  // of the fleet's.
  std::vector<Tick> alert_at;
  double probe_ns = 0.0, segment_probe_ns = 0.0;
  const std::int64_t start = now_ns();
  std::int64_t segment_start = start;
  Tick segment_tick = kWarmup;
  Tick t = kWarmup;
  for (;; ++t) {
    if ((t & 255) == 0) {
      const double chunk = probe_chunk_ns();
      run.speed.add(chunk);
      segment_probe_ns += chunk;
      const std::int64_t now = now_ns();
      if (now - segment_start >= kSegmentNs) {
        const double factor = run.speed.close(t);
        run.segment_rates.push_back(
            static_cast<double>(spec.monitors) * static_cast<double>(t - segment_tick) /
            ((static_cast<double>(now - segment_start) - segment_probe_ns) * 1e-9) * factor);
        probe_ns += segment_probe_ns;
        segment_probe_ns = 0.0;
        segment_start = now;
        segment_tick = t;
      }
      if (t >= run.scored_end && (now - start >= budget_ns || t + 1 >= model.horizon() - 1)) break;
    }
    // Untraced, only ticks where the fleet is over T (the only ones that
    // may alert) are timed, so clock reads stay off the idle-tick path.
    const bool timed = spans != nullptr || model.over_threshold(t);
    const std::int64_t c0 = model.calls();
    const std::int64_t esc_before = fleet->escalations();
    const std::int64_t a = timed ? now_ns() : 0;
    const auto tick = fleet->run_tick(t);
    const std::int64_t b = timed ? now_ns() : 0;
    if (tick.global_violation) {
      run.alert_tick_ms.push_back(static_cast<double>(b - a) * 1e-6);
      alert_at.push_back(t);
      if (!model.over_threshold(t)) run.false_alerts.push_back(t);
      if (t < run.scored_end) run.alert_ticks.push_back(t);
    }
    if (spans) {
      const std::int64_t calls = model.calls() - c0;
      int cls = kSample;
      if (t % task.updating_period == 0) cls = kRealloc;
      else if (fleet->escalations() != esc_before) cls = kEscalation;
      else if (tick.global_poll) cls = kPoll;
      else if (calls == 0) cls = kIdle;
      spans->add(class_names[cls], a, b, root, t);
      run.class_ns[cls] += static_cast<double>(b - a);
      ++run.class_ticks[cls];
      run.class_calls[cls] += calls;
    }
    if (t + 1 == run.scored_end) calls_scored = model.calls() - calls_w;
  }
  const std::int64_t end = now_ns();
  if (spans) spans->close(root);
  run.speed.close(t);
  for (std::size_t i = 0; i < alert_at.size(); ++i)
    run.alert_tick_scaled_ms.push_back(run.alert_tick_ms[i] / run.speed.factor_at(alert_at[i]));
  run.timed_s = (static_cast<double>(end - start) - probe_ns - segment_probe_ns) * 1e-9;
  run.timed_ticks = t - kWarmup;
  if (spans) {
    // Coverage of the timed wall by tick spans: the root span's duration
    // minus its self time.
    const auto totals = spans->totals();
    const auto& timed = totals.at("fleet.timed");
    run.span_cover = (timed.total_ns - timed.self_ns) / timed.total_ns;
  }

  run.scored_ops = calls_scored;
  run.timed_calls = model.calls() - calls_w;
  run.resets = counter("volley_sampler_interval_resets_total") - resets0;
  run.growths = counter("volley_sampler_interval_growths_total") - growths0;
  run.trace_recorded = volley::obs::global_trace().recorded() - trace0;
  run.polls = fleet->polls() - polls0;
  run.escalations = fleet->escalations() - esc0;
  run.violations = (fleet->flat ? fleet->flat->global_violations()
                                : fleet->sharded->global_violations()) - viol0;
  if (fleet->sharded) {
    run.subset_polls = run.polls;
    run.root_reallocations = fleet->sharded->root_reallocations();
  }

  std::size_t at_max = 0;
  for (std::size_t i = 0; i < fleet->monitor_count(); ++i) {
    const auto& m = fleet->monitor(i);
    at_max += m.interval() == task.max_interval;
    run.ops_scheduled += m.scheduled_ops();
    run.ops_forced += m.forced_ops();
  }
  run.at_max_frac = static_cast<double>(at_max) / static_cast<double>(fleet->monitor_count());
  run.program_ops = fleet->total_ops();
  run.source_calls = model.calls() - calls_before;

  const auto gap = [](const std::vector<double>& alloc, double budget) {
    double sum = 0.0;
    for (double a : alloc) sum += a;
    return std::fabs(sum - budget);
  };
  if (fleet->flat) {
    run.err_sum_gap = gap(fleet->flat->allocation(), task.error_allowance);
  } else {
    const auto& budgets = fleet->sharded->budgets();
    run.err_sum_gap = gap(budgets, task.error_allowance);
    for (std::size_t s = 0; s < budgets.size(); ++s)
      run.err_sum_gap = std::max(run.err_sum_gap,
                                 gap(fleet->sharded->shard(s).allocation(), budgets[s]));
  }

  // Episodes of the scored window: detected when an alert fell on one of
  // their ticks over T.
  std::size_t next = 0;
  for (std::size_t e = 0; e < run.scored_episodes; ++e) {
    const Episode& ep = episodes[e];
    while (next < run.alert_ticks.size() && run.alert_ticks[next] < ep.pulse) ++next;
    if (next < run.alert_ticks.size() && run.alert_ticks[next] < ep.end) {
      run.detect_delays.push_back(static_cast<double>(run.alert_ticks[next] - ep.pulse));
    } else {
      ++run.missed;
    }
  }
  return run;
}

/// ns per call of the generated series alone (the harness's own cost,
/// subtracted from the per-sample figure). Like a run_tick, 64 calls in a
/// row ask for one tick, for random monitors.
double source_ns_per_call(const FleetModel& model, std::size_t monitors) {
  constexpr int kCalls = 1 << 20;
  double sink = 0.0;
  const std::int64_t a = now_ns();
  for (int i = 0; i < kCalls; ++i) {
    const std::uint64_t h = mix(0x51ull, static_cast<std::uint64_t>(i));
    sink += model.value(static_cast<std::uint32_t>(h % monitors), kWarmup + i / 64);
  }
  const std::int64_t b = now_ns();
  if (sink < 0.0) std::printf("unreachable\n");
  return static_cast<double>(b - a) / kCalls;
}

Report run_fleet(const FleetSpec& spec, const Options& o) {
  // Episodes are laid out far enough ahead for the fastest plausible run.
  const Tick horizon = kWarmup + 3'000'000;
  const FleetModel model(spec, o.seed, horizon);
  Report r;
  pin_thread(pthread_self(), kBenchCpu);

  const FleetRun run = run_once(spec, model, o, nullptr);
  const auto monitor_ticks_per_s = [&spec](const FleetRun& fr) {
    return static_cast<double>(spec.monitors) * static_cast<double>(fr.timed_ticks) / fr.timed_s;
  };
  r.e2e("setup_s", run.setup_s, "s");
  r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  // Scaled by the host factor; the median over half-second segments, so a
  // short stretch where the host slowed the process moves one segment, not
  // the figure.
  r.e2e("throughput_per_s", median(run.segment_rates), "1/s");
  r.e2e("latency_p50_ms", quantile(run.alert_tick_scaled_ms, 0.50), "ms");
  r.info("latency_p90_ms", quantile(run.alert_tick_scaled_ms, 0.90), "ms");
  r.info("latency_p50_raw_ms", quantile(run.alert_tick_ms, 0.50), "ms");
  r.info("host_factor_p50", median(run.speed.factors()), "ratio");

  const double scored_ticks = static_cast<double>(run.scored_end - kWarmup);
  const auto detected = static_cast<double>(run.detect_delays.size());
  const double sampling_ratio = static_cast<double>(run.scored_ops) /
                                (static_cast<double>(spec.monitors) * scored_ticks);
  const double ops_per_episode = detected > 0 ? static_cast<double>(run.scored_ops) / detected : 0.0;
  const double miss_rate = static_cast<double>(run.missed) / static_cast<double>(run.scored_episodes);
  r.info("monitor_ticks_per_s", monitor_ticks_per_s(run), "1/s");
  r.info("sampling_ratio", sampling_ratio, "ratio");
  r.info("ops_per_detected_episode", ops_per_episode, "ops");
  r.info("episode_miss_rate", miss_rate, "ratio");
  r.info("detect_delay_ticks_p50", quantile(run.detect_delays, 0.50), "ticks");
  r.info("detect_delay_ticks_p95", quantile(run.detect_delays, 0.95), "ticks");
  r.info("alert_tick_samples", static_cast<double>(run.alert_tick_ms.size()), "count");
  r.info("scored_ticks", scored_ticks, "ticks");
  r.info("timed_ticks", static_cast<double>(run.timed_ticks), "ticks");
  r.attempted = static_cast<std::int64_t>(run.scored_episodes);
  r.failed = static_cast<std::int64_t>(run.missed);

  // --- correctness -------------------------------------------------------
  const volley::TaskSpec task = task_spec(spec);
  r.check("err_sum", run.err_sum_gap <= 1e-12,
          "max |sum err_i - err| over tiers = " + fmt(run.err_sum_gap));
  r.check("ops_match_source_calls",
          run.program_ops == run.source_calls &&
              run.ops_scheduled + run.ops_forced == run.program_ops,
          "program " + std::to_string(run.program_ops) + " (sched " +
              std::to_string(run.ops_scheduled) + " + forced " +
              std::to_string(run.ops_forced) + "), source calls " +
              std::to_string(run.source_calls));
  // One-sided binomial bound: err plus three standard deviations of a
  // miss count drawn at rate err over the scored episodes.
  const double n_ep = static_cast<double>(run.scored_episodes);
  const double miss_bound =
      task.error_allowance + 3.0 * std::sqrt(task.error_allowance * (1.0 - task.error_allowance) / n_ep);
  r.check("episode_miss_rate", miss_rate <= miss_bound,
          fmt(miss_rate) + " <= err + 3 sigma = " + fmt(miss_bound));
  r.check("no_false_alerts", run.false_alerts.empty(),
          std::to_string(run.false_alerts.size()) + " alerts while the fleet was under T");
  r.check("episodes_scored", run.scored_episodes >= 200,
          std::to_string(run.scored_episodes) + " episodes (need >= 200)");
  if (spec.shards == 1) {
    r.check("exercises_quiet_path", run.at_max_frac >= 0.9,
            "at_max_interval_frac " + fmt(run.at_max_frac) + " (need >= 0.9)");
  } else {
    r.check("exercises_shard_tier", run.subset_polls > 0 && run.escalations > 0,
            "subset polls " + std::to_string(run.subset_polls) + ", escalations " +
                std::to_string(run.escalations));
  }

  if (!o.trace) return r;

  // --- traced run: same seed, same inputs, spans around every run_tick ----
  SpanRecorder spans;
  spans.reserve(static_cast<std::size_t>(run.timed_ticks) * 2 + 16);
  const FleetRun tr = run_once(spec, model, o.traced(), &spans);
  const double gen_ns = source_ns_per_call(model, spec.monitors);
  const auto per = [](double ns, std::int64_t n) { return n > 0 ? ns / static_cast<double>(n) : 0.0; };

  r.layer("core.idle_tick_ns", per(tr.class_ns[kIdle], tr.class_ticks[kIdle]), "ns");
  r.layer("core.sample_ns_per_op",
          std::max(0.0, per(tr.class_ns[kSample], tr.class_calls[kSample]) - gen_ns), "ns");
  r.layer("core.poll_ns_per_monitor", per(tr.class_ns[kPoll], tr.class_calls[kPoll]), "ns");
  r.layer("core.realloc_tick_ns", per(tr.class_ns[kRealloc], tr.class_ticks[kRealloc]), "ns");
  r.layer("core.ops_scheduled", static_cast<double>(tr.ops_scheduled), "ops");
  r.layer("core.ops_forced", static_cast<double>(tr.ops_forced), "ops");
  r.layer("core.interval_resets", static_cast<double>(tr.resets), "count");
  r.layer("core.interval_growths", static_cast<double>(tr.growths), "count");
  r.layer("core.at_max_interval_frac", tr.at_max_frac, "ratio");
  r.layer("core.poll_useful_frac", per(static_cast<double>(tr.violations), tr.polls), "ratio");
  r.layer("shard.subset_polls", static_cast<double>(tr.subset_polls), "count");
  r.layer("shard.escalations", static_cast<double>(tr.escalations), "count");
  r.layer("shard.root_reallocations", static_cast<double>(tr.root_reallocations), "count");
  r.layer("shard.contained_frac",
          tr.subset_polls > 0 ? static_cast<double>(tr.subset_polls - tr.escalations) /
                                    static_cast<double>(tr.subset_polls)
                              : 0.0,
          "ratio");
  r.layer("shard.escalation_tick_ns", per(tr.class_ns[kEscalation], tr.class_ticks[kEscalation]), "ns");
  r.layer("obs.trace_recorded_per_tick", per(static_cast<double>(tr.trace_recorded), tr.timed_ticks), "count");
  r.layer("gen.source_ns_per_call", gen_ns, "ns");
  // The series are the fleet's generator: their share of the timed wall.
  r.layer("gen.busy_frac", gen_ns * static_cast<double>(tr.timed_calls) / (tr.timed_s * 1e9), "ratio");
  r.layer("trace.overhead_frac", median(run.segment_rates) / median(tr.segment_rates) - 1.0, "ratio");
  r.check("trace_repeats_counts",
          tr.scored_ops == run.scored_ops && tr.detect_delays == run.detect_delays,
          "traced scored ops " + std::to_string(tr.scored_ops) + " vs " +
              std::to_string(run.scored_ops));
  r.check("tick_spans_cover_wall", tr.span_cover >= 0.9 && tr.span_cover <= 1.0,
          "tick spans cover " + fmt(tr.span_cover) + " of the timed wall (need >= 0.9)");
  const std::string path = o.out_dir + "/spans_" + spec.name + "_" + std::to_string(o.seed) + ".jsonl";
  r.check("spans_written", spans.write(path), path);
  return r;
}

}  // namespace

Report run_fleet_quiet(const Options& o) {
  FleetSpec s;
  s.name = "fleet_quiet";
  s.monitors = 2048;
  s.shards = 1;
  s.scored_episodes = 240;
  s.pool_stride = 32;
  s.pool_size = 64;
  s.ramp_min = 48;
  s.ramp_max = 96;
  s.pulse_min = 1;
  s.pulse_max = 5;
  s.gap_min = 40;
  s.gap_max = 160;
  s.level = 1.0;
  return run_fleet(s, o);
}

Report run_fleet_hotspot(const Options& o) {
  FleetSpec s;
  s.name = "fleet_hotspot";
  s.monitors = 2048;
  s.shards = 8;
  s.scored_episodes = 240;
  s.pulse_min = 1;
  s.pulse_max = 12;
  s.gap_min = 60;
  s.gap_max = 240;
  s.level = 40.0 * kLocalThreshold;
  s.hot_first = 256;
  s.hot_count = 64;
  s.hover_violation_prob = 1e-3;
  s.surge_level = 5.0;
  s.surge_every_min = 300;
  s.surge_every_max = 900;
  return run_fleet(s, o);
}

}  // namespace perfbench
