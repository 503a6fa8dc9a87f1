// Thread-safe metrics registry (the Volley introspection plane, counters /
// gauges / fixed-bucket histograms).
//
// Design goals, in order:
//  1. Hot-path cheapness. Every counter and histogram has a shared base
//     plus one write-only *cell* per thread that asked for one. Hot paths
//     resolve their cells once per thread through `scoped_handles` (the
//     registration mutex and the instrument's own mutex, which guards its
//     list of cells, are taken only then); after that a counter bump is
//     a relaxed load and a relaxed store on the thread's own cell, and a
//     histogram observation is two or three of those pairs — no lock, no
//     atomic read-modify-write. The rule that makes this sound: **a cell
//     never has two live writers.** `Counter::cell()` hands the calling
//     thread the cell registered to its thread id, and only that thread
//     writes through it. Readers (`value()`, `snapshot()`, the exporters,
//     `merge_from`) walk the cell list under the instrument's mutex and
//     add the base and every cell with relaxed loads, so the
//     exported numbers are the same as if every bump had gone to one
//     shared instrument. Callers not confined to one thread (a reference
//     shared across threads, `merge_from`, tests) bump the base with
//     `Counter::inc()` (one relaxed atomic add) or
//     `HistogramMetric::observe()` (an uncontended mutex). Cells are
//     bounded by threads, not by lookups or scope switches: a thread that
//     asks again gets its existing cell. `bench_micro_core` pins the cost
//     of each form (`BM_CounterInc` / `BM_CounterCellInc`,
//     `BM_HistogramObserve` / `BM_HistogramCellObserve`).
//  2. Prometheus semantics. Counters are cumulative over the process
//     lifetime and never reset in production; a scraper differentiates.
//     Exposition formats: `to_prometheus()` (text format a human or a
//     Prometheus scrape can read) and `to_json()` (one machine-readable
//     snapshot object, embedded in RunResult and in the wire runtime's
//     StatsReply).
//  3. Stable handles. Registered metrics and their cells are never
//     destroyed or moved before the registry; references returned by the
//     registry stay valid for the registry's lifetime, so cached handles in
//     samplers/monitors cannot dangle.
//
// `metrics()` returns the *current* registry: by default the process-global
// one, but a `ScopedMetricsRegistry` can rebind the calling thread to a
// private registry (and restores the previous binding on destruction).
// Scoping is what makes experiment runs share-nothing: each run records
// into its own registry (so `RunResult::metrics_json` is per-run and
// parallel sweep workers never contend on shared counter cache lines), and
// the run's registry is merged into the enclosing one afterwards so the
// global registry keeps its cumulative Prometheus semantics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "stats/histogram.h"

namespace volley::obs {

namespace detail {

/// Single-writer add: a relaxed load and store, no read-modify-write.
/// Sound only on a cell (one live writer); concurrent readers see either
/// the old or the new value, never a torn one.
template <typename T>
void cell_add(std::atomic<T>& slot, T n) {
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

}  // namespace detail

/// One thread's write-only share of a Counter (see the file header). Cache
/// line aligned so two threads' cells never share a line.
class alignas(64) CounterCell {
 public:
  void inc(std::int64_t n = 1) { detail::cell_add(v_, n); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class Counter;
  explicit CounterCell(std::thread::id owner) : owner_(owner) {}

  std::thread::id owner_;  // set once, before the cell is handed out
  std::atomic<std::int64_t> v_{0};
};

/// Monotonically increasing event count: a base bumped by `inc()` (a
/// relaxed atomic add — safe from any thread, never a lock) plus the
/// per-thread cells handed out by `cell()`.
class Counter {
 public:
  void inc(std::int64_t n = 1) {
    base_.fetch_add(n, std::memory_order_relaxed);
  }

  /// The calling thread's cell, created on its first call. Only the
  /// calling thread may bump it. A thread that ends leaves its cell,
  /// counts included; a later thread handed the same id takes it over,
  /// which keeps one live writer per cell and the cells bounded by
  /// concurrent threads.
  CounterCell& cell();

  /// Cells handed out so far (one per thread that asked).
  std::size_t cell_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cells_.size();
  }

  /// Base plus every cell.
  std::int64_t value() const;

  /// Zeroes the base and every cell in place; cells stay registered. A
  /// bump racing the reset on another thread may survive it.
  void reset();

 private:
  std::atomic<std::int64_t> base_{0};
  mutable std::mutex mu_;  // guards the cells_ list, not the counts
  std::vector<std::unique_ptr<CounterCell>> cells_;
};

/// Last-written instantaneous value (e.g. a current error allowance).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// One thread's write-only share of a HistogramMetric: per-bin counts,
/// under/overflow and the value sum, kept exactly as Histogram::add keeps
/// them (see the file header).
class alignas(64) HistogramCell {
 public:
  void observe(double x) {
    if (x < shape_.lo()) {
      detail::cell_add<std::int64_t>(underflow_, 1);
    } else if (x >= shape_.hi()) {
      detail::cell_add<std::int64_t>(overflow_, 1);
    }
    detail::cell_add<std::int64_t>(bins_[shape_.bin_of(x)], 1);
    detail::cell_add(sum_, x);
  }

 private:
  friend class HistogramMetric;
  HistogramCell(std::thread::id owner, const Histogram& shape)
      : owner_(owner),
        shape_(shape),
        bins_(std::make_unique<std::atomic<std::int64_t>[]>(shape.bins())) {}

  void fold_into(Histogram& h) const;
  void reset();

  std::thread::id owner_;  // set once, before the cell is handed out
  const Histogram& shape_;  // the metric's empty, never-written shape
  std::unique_ptr<std::atomic<std::int64_t>[]> bins_;
  std::atomic<std::int64_t> underflow_{0};
  std::atomic<std::int64_t> overflow_{0};
  std::atomic<double> sum_{0.0};
};

/// Fixed-bucket histogram: a base stats::Histogram under a mutex, fed by
/// `observe()` and `merge()`, plus the per-thread cells handed out by
/// `cell()`. Out-of-range observations land in the edge bins and are
/// counted as under/overflow, exactly like the underlying stats::Histogram.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t bins)
      : shape_(lo, hi, bins), hist_(shape_) {}

  void observe(double x) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.add(x);
  }

  /// The calling thread's cell, created on its first call (see
  /// Counter::cell). Only the calling thread may observe through it.
  HistogramCell& cell();

  /// Cells handed out so far (one per thread that asked).
  std::size_t cell_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cells_.size();
  }

  /// Copy of the base with every cell folded in.
  Histogram snapshot() const;

  /// Folds a snapshot of another histogram into the base (see
  /// Histogram::merge; shapes must match).
  void merge(const Histogram& other) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.merge(other);
  }

  /// Empties the base and every cell in place (see Counter::reset).
  void reset();

 private:
  Histogram shape_;  // bin geometry for cells; never written after ctor
  mutable std::mutex mu_;  // guards hist_ and the cells_ list
  Histogram hist_;
  std::vector<std::unique_ptr<HistogramCell>> cells_;
};

/// Named metric store. Registration (the `counter`/`gauge`/`histogram`
/// lookups) is mutex-guarded and idempotent: the first call creates, later
/// calls return the same object. Metric names follow the Prometheus
/// convention `[a-zA-Z_][a-zA-Z0-9_]*` (validated; bad names throw
/// std::invalid_argument).
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-unique, never-reused identity (a fresh registry at a recycled
  /// address gets a new uid). What `scoped_handles` keys its cache on:
  /// comparing addresses alone would let a cache built against a destroyed
  /// stack registry survive into its same-address successor.
  std::uint64_t uid() const { return uid_; }

  /// Finds or creates. `help` is attached on first registration (later
  /// calls may pass empty) and rendered as `# HELP` in the exposition.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  /// Histogram buckets are fixed at first registration; a later call with
  /// different bounds returns the existing instrument unchanged.
  HistogramMetric& histogram(const std::string& name, double lo, double hi,
                             std::size_t bins, const std::string& help = "");

  /// Prometheus text exposition (HELP/TYPE headers, cumulative `_bucket`
  /// lines with `le` labels plus `_sum`/`_count` for histograms).
  std::string to_prometheus() const;

  /// One JSON object: {"counters":{..},"gauges":{..},"histograms":{..}}.
  /// Histograms carry lo/hi/buckets/underflow/overflow/count/mean.
  std::string to_json() const;

  /// Zeroes every registered instrument *in place* — handles stay valid.
  /// For tests and run-scoped accounting only; production counters are
  /// cumulative (see file header).
  void reset();

  /// Folds `other`'s instruments into this registry (parallel-shard
  /// semantics, mirroring OnlineStats::merge): counters add, histograms
  /// combine bin-by-bin (shapes must match), gauges adopt `other`'s value
  /// when `other` has the gauge (last-writer-wins, instantaneous
  /// semantics). Instruments only present in `other` are created here.
  /// A name registered with different types on the two sides throws
  /// std::invalid_argument. Thread-safe against concurrent use of either
  /// registry; merging a registry into itself is a no-op.
  void merge_from(const MetricsRegistry& other);

  std::size_t size() const;

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  const std::uint64_t uid_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// The process-global registry (the default binding of `metrics()`).
inline MetricsRegistry& global_metrics() {
  static MetricsRegistry registry;
  return registry;
}

namespace detail {
/// The calling thread's current-registry binding (null = global).
/// Header-inline so `metrics()` compiles to a TLS load and a branch.
inline thread_local MetricsRegistry* tls_metrics_registry = nullptr;
}  // namespace detail

/// The calling thread's current registry: the innermost active
/// ScopedMetricsRegistry on this thread, or the process-global registry
/// when none is active. All built-in instrumentation records through this.
inline MetricsRegistry& metrics() {
  MetricsRegistry* current = detail::tls_metrics_registry;
  return current ? *current : global_metrics();
}

/// RAII rebinding of `metrics()` for the calling thread. Scopes nest; the
/// previous binding is restored on destruction. The registry must outlive
/// the scope. Bindings are thread-local: a scope installed on one thread
/// never affects another (each sweep worker installs its own).
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry& registry);
  ~ScopedMetricsRegistry();
  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// Per-thread cache of resolved instrument handles for one instrumentation
/// site. `Handles` is a default-constructible struct of handle pointers and
/// `make` resolves them against a registry (taking the registration mutex
/// once). Hot-path sites resolve the calling thread's cells
/// (`&m.counter(...).cell()`, `&m.histogram(...).cell()`): the cache is
/// thread-local, so the thread that bumps a cell is the thread it belongs
/// to. The cache re-resolves whenever the calling thread's current registry
/// changes — one integer compare on the hot path — and re-resolving against
/// a registry this thread has used before returns the same cells. Keyed on
/// the registry uid, not its address: run scopes allocate registries on
/// the stack, and a successor at a recycled address must not inherit
/// handles into its destroyed predecessor.
template <typename Handles>
const Handles& scoped_handles(Handles (*make)(MetricsRegistry&)) {
  thread_local std::uint64_t owner_uid = 0;  // no registry has uid 0
  thread_local Handles handles{};
  MetricsRegistry& m = metrics();
  if (m.uid() != owner_uid) {
    handles = make(m);
    owner_uid = m.uid();
  }
  return handles;
}

}  // namespace volley::obs
