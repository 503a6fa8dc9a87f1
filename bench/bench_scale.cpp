// Datacenter-scale hot-path benchmark (DESIGN.md §10, §11).
//
// Part 1 — single-task coordinator tick throughput at 1k/10k/50k monitors.
// A quiet workload (every sampler pinned at Im in steady state) is driven
// through Coordinator::run_tick (due index + the likelihood kernel).
// Idle ticks (nothing due — the due index's O(1) case) and
// sample ticks (every monitor due — the β̄ kernel's case) are timed as
// separate phases, over five timed blocks after one warm-up; each phase
// reports its median block rate. Im = 128 also exercises the Im-derived
// interval-histogram bound.
//
// Part 2 — the β̄-evaluation phase alone: identical lane populations
// evaluated by the scalar loop, the kernel (cold memos), and the kernel
// with warm memos (the incremental layer), reporting ns per
// evaluation. Two populations: "quiet" (far below threshold — the zero-β̄
// certificate regime adaptive sampling spends its life in) and "noisy"
// (near threshold — the scalar product loop has to run). Every
// variant's outputs are asserted bitwise equal to the scalar loop's.
//
// Part 3 — a mixed fleet of 200 four-monitor tasks with the paper's
// default-interval mix (1 s application, 5 s system, 15 s network tasks)
// and occasional bursts that force global polls, reporting task ticks
// ("events") per second.
//
// VOLLEY_BENCH_QUICK=1 shrinks all parts to smoke size. Emits
// BENCH_scale.json (schema checked by the CI bench-smoke job). No trace
// sink is bound, so per-sample trace events are not recorded and the
// numbers measure the monitoring hot path, not the trace ring.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/coordinator.h"
#include "core/error_allocation.h"
#include "core/likelihood_kernel.h"
#include "core/metric_source.h"
#include "core/monitor.h"
#include "core/task.h"
#include "obs/metrics.h"
#include "sim/experiment.h"

namespace volley {
namespace {

/// Deterministic value hash: the per-monitor series are computed on the fly
/// (50k monitors worth of TimeSeries would dwarf the structures being
/// measured), and both modes replay the exact same values.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = (a + 1) * 0x9e3779b97f4a7c15ull ^
                    (b + 0x2545f4914f6cdd1dull) * 0xbf58476d1ce4e5b9ull;
  h ^= h >> 31;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 28;
  return h;
}

// --- Part 1: single-task run_tick throughput --------------------------
//
// Steady state is phase-locked by construction: every monitor follows the
// same adaptation timeline (identical options, always-safe series), so all
// of them are due on the same tick once per Im — the remaining Im-1 ticks
// are no-op ticks. The two tick classes are timed separately (idle ticks in
// runs between sample ticks, so no per-tick clock reads pollute the idle
// numbers). One timed block of `timed` ticks holds only ten sample ticks, so
// one block's sample rate can be an outlier; the timed block is repeated
// and each phase reports the median block's rate:
//  * idle ticks — pure scheduling overhead, O(1) with the due index;
//  * sample ticks — dominated by the adaptation rule itself (the β̄ bound
//    per observation, evaluated by the kernel).

struct SingleRow {
  std::size_t monitors;
  double idle_tps;
  double sample_tps;
  double overall_tps;
};

struct SingleTiming {
  double idle_seconds{0.0};
  double sample_seconds{0.0};
  Tick idle_ticks{0};
  Tick sample_ticks{0};

  double idle_tps() const {
    return static_cast<double>(idle_ticks) / idle_seconds;
  }
  double sample_tps() const {
    return static_cast<double>(sample_ticks) / sample_seconds;
  }
  double overall_tps() const {
    return static_cast<double>(idle_ticks + sample_ticks) /
           (idle_seconds + sample_seconds);
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

SingleRow run_single(std::size_t n, Tick warmup, Tick timed, int repeats,
                     Tick max_interval) {
  std::vector<SingleTiming> blocks(static_cast<std::size_t>(repeats));
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetricsRegistry scope(registry);

    TaskSpec spec;
    // Far enough above the ~1.0 values that the kernel's zero-β̄
    // certificate regime holds at I = Im: k_Im = T/(Im·σ) ≈ 1e9/(128·6e-4)
    // ≈ 1.3e10 ≥ 2^28. A merely-comfortable margin (say 1e6) leaves k_Im
    // ~2e7 below the certificate threshold and β̄ genuinely nonzero
    // (~1e-13), forcing the O(I) loop — quiet must mean *quiet*.
    spec.global_threshold = 1e9 * static_cast<double>(n);
    spec.error_allowance = 0.05;
    spec.max_interval = max_interval;
    spec.patience = 1;
    // No reallocation round inside the measured run: draining coordination
    // stats is O(monitors) and would blur the idle-tick numbers.
    const Tick total = warmup + timed * repeats;
    spec.updating_period = total + 1;
    spec.estimator.stats_window = 32;

    std::vector<std::unique_ptr<CallableSource>> sources;
    sources.reserve(n);
    std::vector<std::unique_ptr<Monitor>> monitors;
    monitors.reserve(n);
    const auto thresholds = split_threshold(spec.global_threshold, n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<MonitorId>(i);
      // Quiet series: ~1.0 with a deterministic wiggle, far below the
      // local threshold, so every sampler climbs to Im and stays there.
      sources.push_back(std::make_unique<CallableSource>(
          [id](Tick t) {
            const std::uint64_t h = mix(id, static_cast<std::uint64_t>(t));
            return 1.0 + 1e-3 * static_cast<double>(h & 1023u) / 1024.0;
          },
          total));
      monitors.push_back(std::make_unique<Monitor>(
          id, *sources.back(), spec.sampler_options(spec.error_allowance),
          thresholds[i]));
    }
    Coordinator coordinator(spec, std::move(monitors),
                            std::make_unique<EvenAllocation>());

    // Untimed warm-up: lets the AIMD rule climb to Im so the timed segment
    // measures the steady state a long-lived task lives in.
    Tick last_due = -1;
    for (Tick t = 0; t < warmup; ++t) {
      if (coordinator.run_tick(t).any_due) last_due = t;
    }
    if (last_due < 0 || coordinator.monitor(0).interval() != max_interval) {
      std::fprintf(stderr,
                   "bench scale: warm-up did not reach steady state at %zu "
                   "monitors (interval %lld, want Im=%lld)\n",
                   n, static_cast<long long>(coordinator.monitor(0).interval()),
                   static_cast<long long>(max_interval));
      std::exit(1);
    }

    // Phase lock makes the sample ticks predictable: t = last_due (mod Im).
    const Tick residue = last_due % max_interval;
    // Blocks are nested loops, not an index computed per tick: a division
    // per tick costs about as much as the ~20 ns idle tick it would time.
    Tick t = warmup;
    double block_t0 = bench::now_seconds();
    for (SingleTiming& out : blocks) {
      for (const Tick end = t + timed; t < end; ++t) {
        const bool expect_due = (t % max_interval) == residue;
        if (expect_due) {
          out.idle_seconds += bench::now_seconds() - block_t0;
          const double s0 = bench::now_seconds();
          const auto tick = coordinator.run_tick(t);
          out.sample_seconds += bench::now_seconds() - s0;
          ++out.sample_ticks;
          if (!tick.any_due) {
            std::fprintf(stderr,
                         "bench scale: lost phase lock at tick %lld\n",
                         static_cast<long long>(t));
            std::exit(1);
          }
          block_t0 = bench::now_seconds();
        } else {
          const auto tick = coordinator.run_tick(t);
          ++out.idle_ticks;
          if (tick.any_due) {
            std::fprintf(stderr,
                         "bench scale: lost phase lock at tick %lld\n",
                         static_cast<long long>(t));
            std::exit(1);
          }
        }
      }
      const double now = bench::now_seconds();  // close the block's idle run
      out.idle_seconds += now - block_t0;
      block_t0 = now;
    }
  }
  std::vector<double> idle, sample, overall;
  for (const SingleTiming& b : blocks) {
    idle.push_back(b.idle_tps());
    sample.push_back(b.sample_tps());
    overall.push_back(b.overall_tps());
  }
  return SingleRow{n, median(idle), median(sample), median(overall)};
}

// --- Part 2: the β̄-evaluation phase in isolation ----------------------
//
// Lane populations mirror the two regimes a monitor lives in. Quiet: far
// below threshold, where the kernel's zero-β̄ certificate answers in O(1);
// this is the steady state adaptive sampling creates (the whole point of
// growing I is that violations became unlikely). Noisy: near threshold,
// where the O(I) product loop must run and the kernel saves nothing on a
// cold memo. "Incremental" re-evaluates the same lanes against
// warm per-lane memos — the same-key re-evaluation the AIMD rule performs
// between adaptation decisions.

struct BetaEvalTiming {
  std::size_t lanes{0};
  int reps{0};
  double scalar_ns{0.0};       // baseline loop, per evaluation
  double kernel_ns{0.0};       // kernel, cold memos
  double incremental_ns{0.0};  // kernel, warm memos

  double kernel_speedup() const { return scalar_ns / kernel_ns; }
  double incremental_speedup() const { return scalar_ns / incremental_ns; }
};

BetaEvalTiming time_beta_eval(bool quiet_population, std::size_t lanes,
                              int reps, Tick interval) {
  BetaEvalTiming out;
  out.lanes = lanes;
  out.reps = reps;

  std::vector<double> value(lanes), threshold(lanes);
  std::vector<DeltaStats> stats(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::uint64_t h = mix(0x5eedull, l);
    const double u = static_cast<double>(h & 0xffffu) / 65536.0;
    if (quiet_population) {
      // Matches Part 1's steady state: k_I ~ 1e10 >= 2^28, so the zero-β̄
      // certificate answers without running the product loop.
      value[l] = 1.0 + 1e-3 * u;
      threshold[l] = 1e9;
      stats[l] = DeltaStats{1e-6 * u, 4e-4 * (0.5 + u)};
    } else {
      value[l] = 5.0 * u;
      threshold[l] = 10.0;
      stats[l] = DeltaStats{0.01 * u, 0.8 + u};
    }
  }

  // Scalar baseline: the literal Inequality 3 loop, called directly.
  std::vector<double> expected(lanes);
  const double s0 = bench::now_seconds();
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t l = 0; l < lanes; ++l) {
      expected[l] = beta_bound_with(value[l], threshold[l], stats[l],
                                    interval, chebyshev_step_bound);
    }
  }
  out.scalar_ns = (bench::now_seconds() - s0) * 1e9 /
                  (static_cast<double>(lanes) * reps);

  const auto check = [&](const std::vector<double>& beta, const char* variant) {
    for (std::size_t l = 0; l < lanes; ++l) {
      if (std::memcmp(&beta[l], &expected[l], sizeof(double)) != 0) {
        std::fprintf(stderr,
                     "bench scale: %s beta diverged from the scalar loop at "
                     "lane %zu (identity violation)\n",
                     variant, l);
        std::exit(1);
      }
    }
  };

  // Kernel, cold memos: every evaluation re-proves the certificate or
  // re-runs the product loop (memos cleared each rep).
  std::vector<BetaBoundCache> memos(lanes);
  std::vector<double> beta(lanes);
  double kernel_seconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    for (auto& memo : memos) memo.invalidate();
    const double t0 = bench::now_seconds();
    for (std::size_t l = 0; l < lanes; ++l) {
      beta[l] = beta_bound_chebyshev(value[l], threshold[l], stats[l],
                                     interval, &memos[l]);
    }
    kernel_seconds += bench::now_seconds() - t0;
  }
  check(beta, "kernel");
  out.kernel_ns = kernel_seconds * 1e9 / (static_cast<double>(lanes) * reps);

  // Incremental: memos stay warm, so each evaluation is a key compare and
  // a memo read (the same-interval hit path).
  double incremental_seconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = bench::now_seconds();
    for (std::size_t l = 0; l < lanes; ++l) {
      beta[l] = beta_bound_chebyshev(value[l], threshold[l], stats[l],
                                     interval, &memos[l]);
    }
    incremental_seconds += bench::now_seconds() - t0;
  }
  check(beta, "incremental");
  out.incremental_ns =
      incremental_seconds * 1e9 / (static_cast<double>(lanes) * reps);
  return out;
}

// --- Part 3: mixed-interval fleet ------------------------------------
//
// Tasks are independent coordinators, so each advances over its own tick
// count; an event is one task tick.

struct SimOutcome {
  std::uint64_t events{0};
  double run_seconds{0.0};
};

SimOutcome run_sim(std::size_t tasks, SimTime horizon) {
  SimOutcome out;
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetricsRegistry scope(registry);

    constexpr std::size_t kMonitorsPerTask = 4;
    constexpr double kIds[] = {1.0, 5.0, 15.0};  // app / system / network

    std::vector<std::unique_ptr<CallableSource>> sources;
    sources.reserve(tasks * kMonitorsPerTask);
    std::vector<std::unique_ptr<Coordinator>> coordinators;
    std::vector<Tick> task_ticks;
    for (std::size_t task = 0; task < tasks; ++task) {
      const double id_seconds = kIds[task % 3];
      const Tick ticks = static_cast<Tick>(horizon / id_seconds);

      TaskSpec spec;
      spec.global_threshold = 1.6 * kMonitorsPerTask;
      spec.error_allowance = 0.02;
      spec.id_seconds = id_seconds;
      spec.max_interval = 16;
      spec.patience = 2;
      spec.updating_period = 500;
      spec.estimator.stats_window = 32;

      const auto thresholds =
          split_threshold(spec.global_threshold, kMonitorsPerTask);
      std::vector<std::unique_ptr<Monitor>> monitors;
      for (std::size_t i = 0; i < kMonitorsPerTask; ++i) {
        const std::uint64_t key = task * kMonitorsPerTask + i;
        // Mildly noisy baseline with rare bursts past the local threshold:
        // the bursts trigger local violations and global polls, so the
        // poll + index-rebuild path is timed too.
        sources.push_back(std::make_unique<CallableSource>(
            [key](Tick t) {
              const std::uint64_t h = mix(key, static_cast<std::uint64_t>(t));
              double v = 1.0 + 0.05 * static_cast<double>(h & 1023u) / 1024.0;
              if (h % 997 == 0) v += 1.0;
              return v;
            },
            ticks + 1));
        monitors.push_back(std::make_unique<Monitor>(
            static_cast<MonitorId>(i), *sources.back(),
            spec.sampler_options(spec.error_allowance), thresholds[i]));
      }
      coordinators.push_back(std::make_unique<Coordinator>(
          spec, std::move(monitors), std::make_unique<EvenAllocation>()));
      task_ticks.push_back(ticks);
    }

    const double t0 = bench::now_seconds();
    for (std::size_t task = 0; task < tasks; ++task) {
      for (Tick t = 0; t < task_ticks[task]; ++t)
        coordinators[task]->run_tick(t);
      out.events += static_cast<std::uint64_t>(task_ticks[task]);
    }
    out.run_seconds = bench::now_seconds() - t0;
  }
  return out;
}

// --- driver -----------------------------------------------------------

void write_scale_json(bool quick, Tick max_interval, Tick timed,
                      int repeats, const std::vector<SingleRow>& rows,
                      const BetaEvalTiming& quiet_eval,
                      const BetaEvalTiming& noisy_eval,
                      std::size_t sim_tasks, const SimOutcome& sim) {
  std::FILE* f = std::fopen("BENCH_scale.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench scale: cannot write BENCH_scale.json\n");
    return;
  }
  std::fprintf(f, "{\"bench\":\"scale\",\"quick\":%s,", quick ? "true" : "false");
  std::fprintf(f,
               "\"max_interval\":%lld,\"timed_ticks\":%lld,"
               "\"timed_blocks\":%d,\"single\":[",
               static_cast<long long>(max_interval),
               static_cast<long long>(timed), repeats);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "%s{\"monitors\":%zu,\"idle_ticks_per_sec\":%.1f,"
                 "\"sample_ticks_per_sec\":%.1f,"
                 "\"overall_ticks_per_sec\":%.1f}",
                 i == 0 ? "" : ",", r.monitors, r.idle_tps, r.sample_tps,
                 r.overall_tps);
  }
  std::fprintf(f,
               "],\"beta_eval\":{\"interval\":%lld,"
               "\"quiet\":{\"lanes\":%zu,\"reps\":%d,"
               "\"scalar_ns_per_eval\":%.2f,\"kernel_ns_per_eval\":%.2f,"
               "\"incremental_ns_per_eval\":%.2f,\"kernel_speedup\":%.2f,"
               "\"incremental_speedup\":%.2f},"
               "\"noisy\":{\"lanes\":%zu,\"reps\":%d,"
               "\"scalar_ns_per_eval\":%.2f,\"kernel_ns_per_eval\":%.2f,"
               "\"incremental_ns_per_eval\":%.2f,\"kernel_speedup\":%.2f,"
               "\"incremental_speedup\":%.2f}},",
               static_cast<long long>(max_interval), quiet_eval.lanes,
               quiet_eval.reps, quiet_eval.scalar_ns, quiet_eval.kernel_ns,
               quiet_eval.incremental_ns, quiet_eval.kernel_speedup(),
               quiet_eval.incremental_speedup(), noisy_eval.lanes,
               noisy_eval.reps, noisy_eval.scalar_ns, noisy_eval.kernel_ns,
               noisy_eval.incremental_ns, noisy_eval.kernel_speedup(),
               noisy_eval.incremental_speedup());
  std::fprintf(f,
               "\"sim_tasks\":%zu,\"sim_events\":%llu,"
               "\"sim_events_per_sec\":%.1f}\n",
               sim_tasks, static_cast<unsigned long long>(sim.events),
               static_cast<double>(sim.events) / sim.run_seconds);
  std::fclose(f);
}

void run() {
  const bool quick = bench::quick();

  std::vector<std::size_t> sizes = {1000, 10000, 50000};
  Tick max_interval = 128;  // > 64: exercises the Im-derived histogram bound
  Tick warmup = 8600;       // AIMD climb to Im takes ~Im^2/2 ticks
  Tick timed = 1280;        // ten full Im cycles in steady state
  const int repeats = 5;    // timed blocks; each phase reports the median
  if (quick) {
    sizes = {1000, 10000};
    max_interval = 32;
    warmup = 700;
    timed = 320;
  }

  bench::print_header(
      "Scale — single-run hot path: due index + β̄ kernel",
      "in-process mirror of the paper's 800-VM deployment scale (Sec. V)");
  std::printf(
      "steady state: every sampler pinned at Im=%lld, so %lld of every "
      "%lld run_tick calls are no-op (idle) ticks — the due index pays "
      "O(1) on each of them; sample ticks evaluate every monitor's β̄ in "
      "the kernel.\n\n",
      static_cast<long long>(max_interval),
      static_cast<long long>(max_interval - 1),
      static_cast<long long>(max_interval));

  bench::print_row({"monitors", "idle tps", "sample tps", "overall tps"});
  std::vector<SingleRow> rows;
  for (std::size_t n : sizes) {
    const SingleRow row = run_single(n, warmup, timed, repeats, max_interval);
    rows.push_back(row);
    bench::print_row({std::to_string(n), bench::fmt(row.idle_tps, 0),
                      bench::fmt(row.sample_tps, 0),
                      bench::fmt(row.overall_tps, 0)});
  }
  std::printf("\n(tps: run_tick calls per second)\n\n");

  // --- Part 2: β̄ evaluation in isolation ------------------------------
  const std::size_t eval_lanes = quick ? 20000 : 50000;
  const int eval_reps = quick ? 4 : 8;
  const auto quiet_eval =
      time_beta_eval(true, eval_lanes, eval_reps, max_interval);
  const auto noisy_eval =
      time_beta_eval(false, eval_lanes, eval_reps, max_interval);
  std::printf("beta evaluation phase (%zu lanes, I=%lld):\n", eval_lanes,
              static_cast<long long>(max_interval));
  bench::print_row(
      {"population", "scalar ns", "kernel ns", "increm. ns", "speedup"});
  bench::print_row({"quiet", bench::fmt(quiet_eval.scalar_ns, 1),
                    bench::fmt(quiet_eval.kernel_ns, 1),
                    bench::fmt(quiet_eval.incremental_ns, 1),
                    bench::fmt(quiet_eval.kernel_speedup(), 1) + "x"});
  bench::print_row({"noisy", bench::fmt(noisy_eval.scalar_ns, 1),
                    bench::fmt(noisy_eval.kernel_ns, 1),
                    bench::fmt(noisy_eval.incremental_ns, 1),
                    bench::fmt(noisy_eval.kernel_speedup(), 1) + "x"});
  std::printf(
      "\n(ns per β̄ evaluation. quiet = far below threshold, the zero-β̄ "
      "certificate regime; noisy = near threshold, the product loop. "
      "Every variant's lanes asserted bitwise equal to the scalar loop.)\n\n");

  const std::size_t sim_tasks = quick ? 40 : 200;
  const SimTime horizon = quick ? 900.0 : 3600.0;
  const auto sim = run_sim(sim_tasks, horizon);
  std::printf("mixed fleet: %zu tasks (1 s / 5 s / 15 s Id mix), %llu "
              "events over %.0f virtual seconds: %.0f events/s\n",
              sim_tasks, static_cast<unsigned long long>(sim.events), horizon,
              static_cast<double>(sim.events) / sim.run_seconds);

  write_scale_json(quick, max_interval, timed, repeats, rows, quiet_eval,
                   noisy_eval, sim_tasks, sim);
  std::printf("-> BENCH_scale.json\n");
}

}  // namespace
}  // namespace volley

int main() {
  volley::run();
  return 0;
}
