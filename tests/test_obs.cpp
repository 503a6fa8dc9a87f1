// Tests for src/obs: the metrics registry (counters, gauges, histograms,
// Prometheus/JSON exposition, concurrency) and the structured trace sink
// (bounded ring, JSONL round-trip), plus the sim-driver integration that
// embeds a metrics snapshot in every RunResult.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"
#include "sim/runner.h"

namespace volley::obs {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(Metrics, CounterStartsAtZeroAndIncrements) {
  MetricsRegistry reg;
  auto& c = reg.counter("test_events_total", "help text");
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(Metrics, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  auto& a = reg.counter("dup_total");
  auto& b = reg.counter("dup_total");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, TypeConflictThrows) {
  MetricsRegistry reg;
  reg.counter("shape_shifter");
  EXPECT_THROW(reg.gauge("shape_shifter"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("shape_shifter", 0, 1, 4), std::invalid_argument);
}

TEST(Metrics, BadNamesThrow) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
  EXPECT_THROW(reg.counter("1starts_with_digit"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has-dash"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has space"), std::invalid_argument);
  EXPECT_NO_THROW(reg.counter("_ok_name_2"));
}

TEST(Metrics, ConcurrentCounterIncrementsAreLossless) {
  MetricsRegistry reg;
  auto& c = reg.counter("contended_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&c] {
      for (int n = 0; n < kPerThread; ++n) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(Metrics, ConcurrentRegistrationReturnsOneInstrument) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back(
        [&reg] { reg.counter("race_total").inc(); });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.counter("race_total").value(), kThreads);
}

TEST(Metrics, GaugeHoldsLastWrite) {
  MetricsRegistry reg;
  auto& g = reg.gauge("level");
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(Metrics, HistogramBucketsObservations) {
  MetricsRegistry reg;
  auto& h = reg.histogram("latency", 0.0, 10.0, 10);
  h.observe(0.5);   // bin 0
  h.observe(5.5);   // bin 5
  h.observe(5.9);   // bin 5
  h.observe(-1.0);  // underflow, clamped to bin 0
  h.observe(42.0);  // overflow, clamped to last bin
  const Histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 5);
  EXPECT_EQ(snap.bin_count(0), 2);
  EXPECT_EQ(snap.bin_count(5), 2);
  EXPECT_EQ(snap.underflow(), 1);
  EXPECT_EQ(snap.overflow(), 1);
}

/// Observes `xs` through a fresh metric's cell and through Histogram::add
/// on the same shape; bins, under/overflow and the sum's bits must agree.
void expect_cell_matches_add(double lo, double hi, std::size_t bins,
                             const std::vector<double>& xs) {
  MetricsRegistry reg;
  auto& cell = reg.histogram("cell_vs_add", lo, hi, bins).cell();
  Histogram direct(lo, hi, bins);
  for (const double x : xs) {
    cell.observe(x);
    direct.add(x);
  }
  const Histogram folded = reg.histogram("cell_vs_add", lo, hi, bins)
                               .snapshot();
  for (std::size_t b = 0; b < bins; ++b) {
    EXPECT_EQ(folded.bin_count(b), direct.bin_count(b)) << "bin " << b;
  }
  EXPECT_EQ(folded.count(), direct.count());
  EXPECT_EQ(folded.underflow(), direct.underflow());
  EXPECT_EQ(folded.overflow(), direct.overflow());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(folded.sum()),
            std::bit_cast<std::uint64_t>(direct.sum()));
}

TEST(Metrics, HistogramCellMatchesHistogramAddAtTheEdges) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  // Shapes starting at 0 (the zero path: the β̄ histogram is [0, 1) in 20
  // bins) and elsewhere (no zero path; 0 is below lo or inside).
  const struct {
    double lo, hi;
    std::size_t bins;
  } shapes[] = {{0.0, 1.0, 20}, {0.0, 64.0, 64}, {-1.0, 1.0, 8},
                {1.0, 2.0, 4}, {-2.0, -1.0, 3}};
  for (const auto& sh : shapes) {
    const double below_hi = std::nextafter(sh.hi, -kInf);
    const std::vector<double> edges = {0.0,      -0.0,  sh.lo, below_hi,
                                       sh.hi,    nan,   kInf,  -kInf,
                                       std::nextafter(sh.lo, -kInf)};
    // Each edge on its own, so one value's sum bits are not hidden by
    // another's.
    for (const double x : edges) {
      SCOPED_TRACE(::testing::Message() << "shape [" << sh.lo << ", "
                                        << sh.hi << ") x=" << x);
      expect_cell_matches_add(sh.lo, sh.hi, sh.bins, {x});
      expect_cell_matches_add(sh.lo, sh.hi, sh.bins, {x, x, 0.0, x, -0.0});
    }
    SCOPED_TRACE(::testing::Message() << "shape [" << sh.lo << ", " << sh.hi
                                      << ") all edges");
    std::vector<double> finite;
    for (const double x : edges) {
      if (std::isfinite(x)) finite.push_back(x);
    }
    expect_cell_matches_add(sh.lo, sh.hi, sh.bins, finite);
    expect_cell_matches_add(sh.lo, sh.hi, sh.bins, edges);
  }
}

TEST(Metrics, HistogramReRegistrationKeepsFirstBounds) {
  MetricsRegistry reg;
  auto& a = reg.histogram("fixed", 0.0, 10.0, 10);
  auto& b = reg.histogram("fixed", -5.0, 5.0, 2);  // ignored bounds
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.snapshot().bins(), 10u);
}

TEST(Metrics, ResetZeroesInPlaceAndKeepsHandles) {
  MetricsRegistry reg;
  auto& c = reg.counter("r_total");
  auto& g = reg.gauge("r_gauge");
  auto& h = reg.histogram("r_hist", 0, 1, 4);
  c.inc(7);
  g.set(2.0);
  h.observe(0.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().count(), 0);
  c.inc();  // the old handle still points at the live instrument
  EXPECT_EQ(reg.counter("r_total").value(), 1);
}

TEST(Metrics, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("volley_ops_total", "Sampling operations").inc(3);
  reg.gauge("volley_share", "Current share").set(0.25);
  auto& h = reg.histogram("volley_interval", 0.0, 4.0, 2, "Intervals");
  h.observe(1.0);
  h.observe(3.0);
  h.observe(9.0);  // overflow
  const std::string text = reg.to_prometheus();

  EXPECT_NE(text.find("# HELP volley_ops_total Sampling operations"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE volley_ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("volley_ops_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE volley_share gauge"), std::string::npos);
  EXPECT_NE(text.find("volley_share 0.25"), std::string::npos);
  EXPECT_NE(text.find("# TYPE volley_interval histogram"), std::string::npos);
  // Buckets are cumulative; +Inf carries the total including overflow.
  EXPECT_NE(text.find("volley_interval_bucket{le=\"2\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("volley_interval_bucket{le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("volley_interval_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("volley_interval_count 3"), std::string::npos);
}

TEST(Metrics, JsonSnapshotShape) {
  MetricsRegistry reg;
  reg.counter("c_total").inc(2);
  reg.gauge("g").set(1.5);
  reg.histogram("h", 0.0, 1.0, 2).observe(0.25);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"g\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[1,0]"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(Metrics, GlobalRegistryIsASingleton) {
  auto& a = metrics();
  auto& b = metrics();
  EXPECT_EQ(&a, &b);
}

// ---------------------------------------------------------------------------
// TraceSink

TEST(Trace, KindNamesRoundTrip) {
  for (int k = 0; k <= 8; ++k) {
    const auto kind = static_cast<TraceKind>(k);
    const auto parsed = trace_kind_from_name(trace_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(trace_kind_from_name("nonsense").has_value());
}

TEST(Trace, RecordsWithMonotoneSequence) {
  TraceSink sink(8);
  sink.record(TraceKind::kSampleTaken, 1, 0, 10.0);
  sink.record(TraceKind::kIntervalChosen, 2, 1, 4.0, 0.01);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0);
  EXPECT_EQ(events[1].seq, 1);
  EXPECT_EQ(events[1].kind, TraceKind::kIntervalChosen);
  EXPECT_EQ(events[1].monitor, 1u);
  EXPECT_DOUBLE_EQ(events[1].detail, 0.01);
  EXPECT_EQ(sink.recorded(), 2);
  EXPECT_EQ(sink.dropped(), 0);
}

TEST(Trace, RingOverwritesOldestWhenFull) {
  TraceSink sink(4);
  for (int i = 0; i < 10; ++i) {
    sink.record(TraceKind::kSampleTaken, i, 0, static_cast<double>(i));
  }
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Newest 4 survive, oldest first.
  EXPECT_EQ(events.front().tick, 6);
  EXPECT_EQ(events.back().tick, 9);
  EXPECT_EQ(sink.recorded(), 10);
  EXPECT_EQ(sink.dropped(), 6);
}

TEST(Trace, JsonRoundTrip) {
  TraceEvent e;
  e.kind = TraceKind::kAlertRaised;
  e.seq = 17;
  e.tick = 420;
  e.monitor = 3;
  e.value = 12.5;
  e.detail = 9.0;
  const auto parsed = trace_event_from_json(to_json(e));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, e.kind);
  EXPECT_EQ(parsed->seq, e.seq);
  EXPECT_EQ(parsed->tick, e.tick);
  EXPECT_EQ(parsed->monitor, e.monitor);
  EXPECT_DOUBLE_EQ(parsed->value, e.value);
  EXPECT_DOUBLE_EQ(parsed->detail, e.detail);
}

TEST(Trace, JsonRejectsMalformedLines) {
  EXPECT_FALSE(trace_event_from_json("").has_value());
  EXPECT_FALSE(trace_event_from_json("{}").has_value());
  EXPECT_FALSE(trace_event_from_json("not json").has_value());
  EXPECT_FALSE(trace_event_from_json(
                   R"({"seq":0,"kind":"bogus_kind","tick":0,"monitor":0,)"
                   R"("value":0,"detail":0})")
                   .has_value());
  // seq, tick and monitor must be finite integers within their field's
  // range: each of these once parsed to garbage through an undefined cast.
  for (const char* fields :
       {R"("seq":1e300,"kind":"alert_raised","tick":0,"monitor":0)",
        R"("seq":9223372036854775808,"kind":"alert_raised","tick":0,"monitor":0)",
        R"("seq":0,"kind":"alert_raised","tick":-1e19,"monitor":0)",
        R"("seq":0,"kind":"alert_raised","tick":inf,"monitor":0)",
        R"("seq":nan,"kind":"alert_raised","tick":0,"monitor":0)",
        R"("seq":0,"kind":"alert_raised","tick":1.5,"monitor":0)",
        R"("seq":0,"kind":"alert_raised","tick":0,"monitor":5e12)",
        R"("seq":0,"kind":"alert_raised","tick":0,"monitor":4294967296)",
        R"("seq":0,"kind":"alert_raised","tick":0,"monitor":-1)"}) {
    const std::string line =
        std::string("{") + fields + R"(,"value":0,"detail":0})";
    EXPECT_FALSE(trace_event_from_json(line).has_value()) << line;
  }
  // The edges of each range still parse.
  const auto edge = trace_event_from_json(
      R"({"seq":-9223372036854775808,"kind":"alert_raised",)"
      R"("tick":9007199254740992,"monitor":4294967295,"value":0,"detail":0})");
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->seq, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(edge->tick, 9007199254740992);
  EXPECT_EQ(edge->monitor, 4294967295u);
}

TEST(Trace, JsonlExportRoundTripsEveryLine) {
  TraceSink sink(16);
  sink.record(TraceKind::kSampleTaken, 1, 2, 3.5, 0.0);
  sink.record(TraceKind::kAllowanceAdjusted, 5, 1, 0.02, 0.01);
  sink.record(TraceKind::kMisdetectWindow, 100, 0, 104.0, 4.0);
  const std::string jsonl = sink.to_jsonl();
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    const std::size_t eol = jsonl.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);  // every line newline-terminated
    const auto parsed =
        trace_event_from_json(jsonl.substr(pos, eol - pos));
    ASSERT_TRUE(parsed.has_value()) << jsonl.substr(pos, eol - pos);
    ++lines;
    pos = eol + 1;
  }
  EXPECT_EQ(lines, 3u);
}

TEST(Trace, JsonlExportBoundsToNewestEvents) {
  TraceSink sink(16);
  for (int i = 0; i < 10; ++i) {
    sink.record(TraceKind::kSampleTaken, i, 0, 0.0);
  }
  const std::string jsonl = sink.to_jsonl(2);
  const auto first_line = jsonl.substr(0, jsonl.find('\n'));
  const auto parsed = trace_event_from_json(first_line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tick, 8);  // newest 2, oldest first
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
}

TEST(Trace, ClearResetsRetainedEventsButNotSequence) {
  TraceSink sink(4);
  sink.record(TraceKind::kSampleTaken, 0, 0, 0.0);
  sink.clear();
  EXPECT_TRUE(sink.snapshot().empty());
  sink.record(TraceKind::kSampleTaken, 1, 0, 0.0);
  // seq keeps rising across clear(): exporters can still order events.
  EXPECT_EQ(sink.snapshot().front().seq, 1);
}

TEST(Trace, ConcurrentRecordsKeepAllSequenceNumbersUnique) {
  TraceSink sink(100000);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&sink, i] {
      for (int n = 0; n < kPerThread; ++n) {
        sink.record(TraceKind::kSampleTaken, n, static_cast<std::uint32_t>(i),
                    0.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, static_cast<std::int64_t>(i));
  }
}

// ---------------------------------------------------------------------------
// Scoped registries and registry merging (the parallel-sweep contract).

TEST(ScopedMetrics, RebindsCurrentRegistryAndRestoresOnExit) {
  MetricsRegistry inner;
  MetricsRegistry& before = metrics();
  {
    ScopedMetricsRegistry scope(inner);
    EXPECT_EQ(&metrics(), &inner);
    metrics().counter("scoped_events_total").inc();
  }
  EXPECT_EQ(&metrics(), &before);
  EXPECT_EQ(inner.counter("scoped_events_total").value(), 1);
}

TEST(ScopedMetrics, ScopesNest) {
  MetricsRegistry outer, inner;
  ScopedMetricsRegistry outer_scope(outer);
  {
    ScopedMetricsRegistry inner_scope(inner);
    EXPECT_EQ(&metrics(), &inner);
  }
  EXPECT_EQ(&metrics(), &outer);
}

TEST(ScopedMetrics, BindingIsThreadLocal) {
  MetricsRegistry mine;
  ScopedMetricsRegistry scope(mine);
  MetricsRegistry* seen_on_other_thread = nullptr;
  std::thread other([&] { seen_on_other_thread = &metrics(); });
  other.join();
  EXPECT_EQ(seen_on_other_thread, &global_metrics());
  EXPECT_EQ(&metrics(), &mine);
}

TEST(ScopedMetrics, HandleCacheFollowsScopeAcrossReusedAddresses) {
  // Regression: scoped_handles used to key its thread-local cache on the
  // registry *address*. Successive run scopes put their registries at the
  // same stack address, so the second scope inherited handles into the
  // first (destroyed) registry. The uid key must re-resolve every time.
  struct Handles {
    Counter* events{nullptr};
    static Handles make(MetricsRegistry& m) {
      return Handles{&m.counter("cache_follow_events_total")};
    }
  };
  for (int round = 0; round < 3; ++round) {
    MetricsRegistry run_registry;
    ScopedMetricsRegistry scope(run_registry);
    scoped_handles<Handles>(&Handles::make).events->inc();
    EXPECT_EQ(run_registry.counter("cache_follow_events_total").value(), 1)
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Per-thread cells (the hot-path instrument form handed out through
// scoped_handles).

/// A hot-path site's handles: the calling thread's cells.
struct CellHandles {
  CounterCell* events{nullptr};
  HistogramCell* values{nullptr};
  static CellHandles make(MetricsRegistry& m) {
    return CellHandles{&m.counter("cell_events_total").cell(),
                       &m.histogram("cell_values", 0.0, 10.0, 10).cell()};
  }
};

TEST(MetricCells, ConcurrentCellBumpsAreExactUnderAConcurrentReader) {
  constexpr int kWriters = 4;
  constexpr int kBumps = 100000;
  MetricsRegistry reg;
  std::atomic<int> writers_left{kWriters};
  std::thread reader([&] {
    std::int64_t last = 0;
    while (writers_left.load() > 0) {
      const std::string json = reg.to_json();
      ASSERT_FALSE(json.empty());
      const std::int64_t now = reg.counter("cell_events_total").value();
      ASSERT_GE(now, last);  // a cell only grows under its writer
      last = now;
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      ScopedMetricsRegistry scope(reg);
      for (int i = 0; i < kBumps; ++i) {
        const auto& h = scoped_handles<CellHandles>(&CellHandles::make);
        h.events->inc();
        h.values->observe(static_cast<double>(i % 12) - 0.5);
      }
      writers_left.fetch_sub(1);
    });
  }
  for (auto& t : writers) t.join();
  reader.join();

  EXPECT_EQ(reg.counter("cell_events_total").value(), kWriters * kBumps);
  EXPECT_EQ(reg.counter("cell_events_total").cell_count(),
            static_cast<std::size_t>(kWriters));
  const Histogram h = reg.histogram("cell_values", 0.0, 10.0, 10).snapshot();
  EXPECT_EQ(h.count(), kWriters * kBumps);
  // i % 12 - 0.5 runs -0.5, 0.5, ..., 10.5: one underflow, ten in-range
  // values and one overflow per 12 bumps.
  const std::int64_t per_value = kWriters * (kBumps / 12);
  const std::int64_t tail = kWriters * (kBumps % 12 > 0 ? 1 : 0);
  EXPECT_EQ(h.underflow(), per_value + tail);
  EXPECT_EQ(h.overflow(), per_value);
  EXPECT_NE(reg.to_json().find("\"cell_events_total\":400000"),
            std::string::npos);
}

TEST(MetricCells, ResetZeroesCellsInPlaceAndKeepsHandles) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  const auto& before = scoped_handles<CellHandles>(&CellHandles::make);
  CounterCell* const events = before.events;
  for (int i = 0; i < 5; ++i) {
    before.events->inc();
    before.values->observe(2.5);
  }
  reg.counter("cell_events_total").inc(3);  // the shared base, too
  ASSERT_EQ(reg.counter("cell_events_total").value(), 8);
  reg.reset();
  EXPECT_EQ(reg.counter("cell_events_total").value(), 0);
  EXPECT_EQ(events->value(), 0);
  EXPECT_EQ(reg.histogram("cell_values", 0.0, 10.0, 10).snapshot().count(), 0);

  const auto& after = scoped_handles<CellHandles>(&CellHandles::make);
  EXPECT_EQ(after.events, events);  // cached handle still the live cell
  after.events->inc();
  after.values->observe(2.5);
  EXPECT_EQ(reg.counter("cell_events_total").value(), 1);
  const Histogram h = reg.histogram("cell_values", 0.0, 10.0, 10).snapshot();
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.bin_count(2), 1);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
}

TEST(MetricCells, MergeFromCarriesCellCounts) {
  MetricsRegistry run, parent;
  {
    ScopedMetricsRegistry scope(run);
    for (int i = 0; i < 7; ++i) {
      const auto& h = scoped_handles<CellHandles>(&CellHandles::make);
      h.events->inc(2);
      h.values->observe(static_cast<double>(i));
    }
  }
  parent.counter("cell_events_total").inc(1);
  parent.merge_from(run);
  EXPECT_EQ(parent.counter("cell_events_total").value(), 15);
  const Histogram merged =
      parent.histogram("cell_values", 0.0, 10.0, 10).snapshot();
  EXPECT_EQ(merged.count(), 7);
  for (std::size_t b = 0; b < 7; ++b) EXPECT_EQ(merged.bin_count(b), 1);
  EXPECT_DOUBLE_EQ(merged.mean(), 3.0);
  // Merging reads the cells; it does not drain them.
  EXPECT_EQ(run.counter("cell_events_total").value(), 14);
}

TEST(MetricCells, CellsAreBoundedByThreadsNotScopeSwitches) {
  struct GlobalHandles {
    CounterCell* events{nullptr};
    HistogramCell* values{nullptr};
    static GlobalHandles make(MetricsRegistry& m) {
      return GlobalHandles{
          &m.counter("bounded_cell_events_total").cell(),
          &m.histogram("bounded_cell_values", 0.0, 1.0, 4).cell()};
    }
  };
  constexpr int kCycles = 1000;
  for (int i = 0; i < kCycles; ++i) {
    {
      MetricsRegistry run_registry;
      ScopedMetricsRegistry scope(run_registry);
      scoped_handles<GlobalHandles>(&GlobalHandles::make).events->inc();
    }
    // Back on the global registry: the cache re-resolves, and must find
    // this thread's existing cells rather than add new ones.
    const auto& h = scoped_handles<GlobalHandles>(&GlobalHandles::make);
    h.events->inc();
    h.values->observe(0.5);
  }
  EXPECT_EQ(global_metrics().counter("bounded_cell_events_total").cell_count(),
            1u);
  EXPECT_EQ(global_metrics()
                .histogram("bounded_cell_values", 0.0, 1.0, 4)
                .cell_count(),
            1u);
  EXPECT_EQ(global_metrics().counter("bounded_cell_events_total").value(),
            kCycles);
}

TEST(MetricCells, CellsAppearInPrometheusExposition) {
  MetricsRegistry reg;
  ScopedMetricsRegistry scope(reg);
  const auto& h = scoped_handles<CellHandles>(&CellHandles::make);
  h.events->inc(4);
  h.values->observe(1.5);
  h.values->observe(12.0);  // overflow: only in +Inf
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("cell_events_total 4\n"), std::string::npos);
  EXPECT_NE(prom.find("cell_values_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("cell_values_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("cell_values_count 2\n"), std::string::npos);
}

TEST(MetricsMerge, CountersAdd) {
  MetricsRegistry a, b;
  a.counter("events_total").inc(5);
  b.counter("events_total").inc(7);
  b.counter("only_b_total").inc(2);
  a.merge_from(b);
  EXPECT_EQ(a.counter("events_total").value(), 12);
  EXPECT_EQ(a.counter("only_b_total").value(), 2);
  // The source is unchanged.
  EXPECT_EQ(b.counter("events_total").value(), 7);
}

TEST(MetricsMerge, GaugesAdoptSourceValue) {
  MetricsRegistry a, b;
  a.gauge("level").set(1.0);
  b.gauge("level").set(4.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.gauge("level").value(), 4.0);
}

TEST(MetricsMerge, HistogramsCombineBinWise) {
  MetricsRegistry a, b;
  auto& ha = a.histogram("latency", 0.0, 10.0, 10);
  auto& hb = b.histogram("latency", 0.0, 10.0, 10);
  ha.observe(1.5);
  ha.observe(25.0);  // overflow
  hb.observe(1.5);
  hb.observe(-3.0);  // underflow
  a.merge_from(b);
  const Histogram h = ha.snapshot();
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.bin_count(1), 2);
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.underflow(), 1);
}

TEST(MetricsMerge, MismatchedHistogramShapesThrow) {
  MetricsRegistry a, b;
  a.histogram("latency", 0.0, 10.0, 10);
  b.histogram("latency", 0.0, 20.0, 10).observe(1.0);
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

TEST(MetricsMerge, TypeConflictThrows) {
  MetricsRegistry a, b;
  a.counter("thing");
  b.gauge("thing").set(1.0);
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

TEST(MetricsMerge, SelfMergeIsNoop) {
  MetricsRegistry a;
  a.counter("events_total").inc(3);
  a.merge_from(a);
  EXPECT_EQ(a.counter("events_total").value(), 3);
}

TEST(MetricsMerge, ShardsMatchSingleRegistry) {
  // Property: recording a stream into K shard registries and merging them
  // is equivalent to recording the whole stream into one registry —
  // the same law OnlineStats::merge obeys, at the registry level.
  Rng rng(17);
  constexpr int kShards = 4;
  MetricsRegistry whole;
  MetricsRegistry shards[kShards];
  for (int i = 0; i < 400; ++i) {
    const double x = rng.uniform(-1.0, 11.0);
    MetricsRegistry& shard = shards[i % kShards];
    whole.counter("events_total").inc();
    shard.counter("events_total").inc();
    whole.histogram("values", 0.0, 10.0, 20).observe(x);
    shard.histogram("values", 0.0, 10.0, 20).observe(x);
  }
  MetricsRegistry merged;
  for (const auto& shard : shards) merged.merge_from(shard);
  EXPECT_EQ(merged.counter("events_total").value(),
            whole.counter("events_total").value());
  const Histogram hm = merged.histogram("values", 0.0, 10.0, 20).snapshot();
  const Histogram hw = whole.histogram("values", 0.0, 10.0, 20).snapshot();
  EXPECT_EQ(hm.count(), hw.count());
  EXPECT_EQ(hm.underflow(), hw.underflow());
  EXPECT_EQ(hm.overflow(), hw.overflow());
  for (std::size_t b = 0; b < hw.bins(); ++b) {
    EXPECT_EQ(hm.bin_count(b), hw.bin_count(b)) << "bin " << b;
  }
  // Merging adds the shards' partial sums, so the mean can differ from the
  // sequential stream's in the last ulp — equal within 1e-12, not bitwise.
  EXPECT_NEAR(hm.mean(), hw.mean(), 1e-12);
}

TEST(ScopedTrace, RebindsSinkAndRestores) {
  TraceSink mine(16);
  TraceSink& before = trace();
  {
    ScopedTraceSink scope(mine);
    EXPECT_EQ(&trace(), &mine);
    trace().record(TraceKind::kSampleTaken, 1, 0, 0.5);
  }
  EXPECT_EQ(&trace(), &before);
  EXPECT_EQ(mine.snapshot().size(), 1u);
}

// ---------------------------------------------------------------------------
// Sim integration: every RunResult carries a metrics snapshot.

/// A 2000-tick single-monitor run with one 40-tick episode above T from
/// tick 500, so polls and alerts fire.
RunResult run_spiked_single() {
  Rng rng(7);
  TimeSeries series(2000);
  for (std::size_t i = 0; i < series.size(); ++i) {
    series[i] = rng.normal(0.0, 0.1);
  }
  for (std::size_t i = 500; i < 540; ++i) series[i] = 10.0;

  TaskSpec spec;
  spec.global_threshold = 5.0;
  spec.error_allowance = 0.02;
  spec.max_interval = 16;
  spec.patience = 5;
  spec.updating_period = 400;
  return run_volley_single(spec, series);
}

TEST(ObsIntegration, SimRunEmbedsNonZeroMetricsSnapshot) {
  TraceSink sink(1 << 14);
  ScopedTraceSink trace_scope(sink);
  const auto result = run_spiked_single();
  ASSERT_FALSE(result.metrics_json.empty());
  EXPECT_NE(result.metrics_json.find("\"counters\""), std::string::npos);
  EXPECT_NE(result.metrics_json.find("volley_sampler_observations_total"),
            std::string::npos);
  // The process-global counters are cumulative, so after a 2000-tick run the
  // sampler observation count is necessarily non-zero.
  EXPECT_EQ(result.metrics_json.find("\"volley_sampler_observations_total\":0,"),
            std::string::npos);
  EXPECT_GT(metrics()
                .counter("volley_sampler_observations_total")
                .value(),
            0);
  EXPECT_GT(metrics().counter("volley_monitor_scheduled_ops_total").value(),
            0);
  // The run's per-sample events land in the sink this thread bound.
  const auto events = sink.snapshot();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const auto& e) {
    return e.kind == TraceKind::kIntervalChosen;
  }));
}

TEST(ObsIntegration, UnscopedRunKeepsOnlyProtocolEventsInGlobalRing) {
  ASSERT_EQ(scoped_trace_sink(), nullptr);
  const std::int64_t before = global_trace().recorded();
  const auto result = run_spiked_single();
  ASSERT_GT(result.detected_alert_ticks, 0);
  // Events this run added; the ring is large enough to still hold them.
  const std::int64_t added = global_trace().recorded() - before;
  ASSERT_GT(added, 0);
  ASSERT_LE(added, static_cast<std::int64_t>(global_trace().capacity()));
  bool saw_alert = false;
  for (const auto& event : global_trace().snapshot()) {
    if (event.seq < before) continue;
    EXPECT_NE(event.kind, TraceKind::kSampleTaken);
    EXPECT_NE(event.kind, TraceKind::kIntervalChosen);
    saw_alert = saw_alert || event.kind == TraceKind::kAlertRaised;
  }
  EXPECT_TRUE(saw_alert);
}

// ---------------------------------------------------------------------------
// Export identity: the golden files under tests/golden/ were captured from
// the shared-instrument implementation (one atomic add per counter bump, a
// mutex per histogram observation and per trace event). The per-thread
// cells and the paired trace record must export the same bytes.

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(VOLLEY_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ObsIdentity, FixedSeedRunExportsCapturedMetricsAndTrace) {
  // Three monitors over 800 ticks: one local-only violation per monitor
  // (polls that stay under T) and one joint episode that crosses T, with
  // adaptive reallocation every 160 ticks — every sampler, monitor,
  // coordinator and allocation instrument fires.
  Rng rng(2013);
  std::vector<TimeSeries> series;
  for (std::size_t m = 0; m < 3; ++m) {
    TimeSeries s(800);
    const double period = 80.0 + 30.0 * static_cast<double>(m);
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = 0.3 * std::sin(static_cast<double>(i) / period) +
             rng.normal(0.0, 0.05);
    }
    for (std::size_t i = 200 + 120 * m; i < 206 + 120 * m; ++i) s[i] += 2.5;
    for (std::size_t i = 640; i < 648; ++i) s[i] += 2.5;
    series.push_back(std::move(s));
  }
  TaskSpec spec;
  spec.global_threshold = 6.0;
  spec.error_allowance = 0.1;
  spec.max_interval = 16;
  spec.patience = 4;
  spec.updating_period = 160;
  const std::vector<double> local_thresholds{2.0, 2.0, 2.0};

  MetricsRegistry registry;
  TraceSink sink(1 << 15);
  ScopedMetricsRegistry metrics_scope(registry);
  ScopedTraceSink trace_scope(sink);
  const RunResult result = run_volley(spec, series, local_thresholds);

  EXPECT_EQ(result.metrics_json + "\n",
            read_golden("identity_run_metrics.json"));
  EXPECT_EQ(sink.dropped(), 0);
  EXPECT_EQ(sink.to_jsonl(), read_golden("identity_run_trace.jsonl"));
}

}  // namespace
}  // namespace volley::obs
