#include "obs/metrics.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/json.h"

namespace volley::obs {

namespace {

void validate_name(const std::string& name) {
  if (name.empty())
    throw std::invalid_argument("MetricsRegistry: empty metric name");
  const auto ok_head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  };
  const auto ok_tail = [&](char c) {
    return ok_head(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!ok_head(name.front()))
    throw std::invalid_argument("MetricsRegistry: bad metric name: " + name);
  for (char c : name) {
    if (!ok_tail(c))
      throw std::invalid_argument("MetricsRegistry: bad metric name: " + name);
  }
}

/// A Prometheus text-format value: %.17g prints doubles round-trip exactly
/// and without locale surprises, and infinities take the format's own
/// +Inf/-Inf spelling (the JSON snapshot writes them as null instead).
std::string prom_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// uid 0 is reserved as scoped_handles' "no registry seen yet" sentinel.
std::atomic<std::uint64_t> next_registry_uid{1};

}  // namespace

CounterCell& Counter::cell() {
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : cells_) {
    if (c->owner_ == self) return *c;
  }
  cells_.push_back(std::unique_ptr<CounterCell>(new CounterCell(self)));
  return *cells_.back();
}

std::int64_t Counter::value() const {
  std::int64_t total = base_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : cells_) total += c->value();
  return total;
}

void Counter::reset() {
  base_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : cells_) c->v_.store(0, std::memory_order_relaxed);
}

void HistogramCell::fold_into(Histogram& h) const {
  std::vector<std::int64_t> bins(shape_.bins());
  for (std::size_t b = 0; b < bins.size(); ++b)
    bins[b] = bins_[b].load(std::memory_order_relaxed);
  h.merge_tallies(bins, underflow_.load(std::memory_order_relaxed),
                  overflow_.load(std::memory_order_relaxed),
                  sum_.load(std::memory_order_relaxed));
}

void HistogramCell::reset() {
  for (std::size_t b = 0; b < shape_.bins(); ++b)
    bins_[b].store(0, std::memory_order_relaxed);
  underflow_.store(0, std::memory_order_relaxed);
  overflow_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

HistogramCell& HistogramMetric::cell() {
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : cells_) {
    if (c->owner_ == self) return *c;
  }
  cells_.push_back(
      std::unique_ptr<HistogramCell>(new HistogramCell(self, shape_)));
  return *cells_.back();
}

Histogram HistogramMetric::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Histogram h = hist_;
  for (const auto& c : cells_) c->fold_into(h);
  return h;
}

void HistogramMetric::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  hist_ = shape_;
  for (const auto& c : cells_) c->reset();
}

MetricsRegistry::MetricsRegistry()
    : uid_(next_registry_uid.fetch_add(1, std::memory_order_relaxed)) {}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  validate_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (!e.counter) {
    if (e.gauge || e.histogram)
      throw std::invalid_argument("MetricsRegistry: " + name +
                                  " already registered with another type");
    e.counter = std::make_unique<Counter>();
    e.help = help;
  }
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  validate_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (!e.gauge) {
    if (e.counter || e.histogram)
      throw std::invalid_argument("MetricsRegistry: " + name +
                                  " already registered with another type");
    e.gauge = std::make_unique<Gauge>();
    e.help = help;
  }
  return *e.gauge;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name, double lo,
                                            double hi, std::size_t bins,
                                            const std::string& help) {
  validate_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[name];
  if (!e.histogram) {
    if (e.counter || e.gauge)
      throw std::invalid_argument("MetricsRegistry: " + name +
                                  " already registered with another type");
    e.histogram = std::make_unique<HistogramMetric>(lo, hi, bins);
    e.help = help;
  }
  return *e.histogram;
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, e] : entries_) {
    const char* type =
        e.counter ? "counter" : (e.gauge ? "gauge" : "histogram");
    if (!e.help.empty()) out << "# HELP " << name << ' ' << e.help << '\n';
    out << "# TYPE " << name << ' ' << type << '\n';
    if (e.counter) {
      out << name << ' ' << e.counter->value() << '\n';
    } else if (e.gauge) {
      out << name << ' ' << prom_double(e.gauge->value()) << '\n';
    } else {
      const Histogram h = e.histogram->snapshot();
      // Prometheus buckets are cumulative. stats::Histogram clamps
      // out-of-range values into the edge bins: underflow sits in bin 0
      // (correctly below every upper bound), but overflow clamped into the
      // last bin exceeds its `le` bound and belongs only in +Inf.
      std::int64_t cumulative = 0;
      for (std::size_t b = 0; b < h.bins(); ++b) {
        cumulative += h.bin_count(b);
        const std::int64_t le_count =
            (b + 1 == h.bins()) ? cumulative - h.overflow() : cumulative;
        out << name << "_bucket{le=\"" << prom_double(h.bin_hi(b)) << "\"} "
            << le_count << '\n';
      }
      out << name << "_bucket{le=\"+Inf\"} " << h.count() << '\n';
      out << name << "_sum "
          << prom_double(h.count() > 0 ? h.mean() * static_cast<double>(
                                                       h.count())
                                      : 0.0)
          << '\n';
      out << name << "_count " << h.count() << '\n';
    }
  }
  return out.str();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    if (!e.counter) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":" << e.counter->value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, e] : entries_) {
    if (!e.gauge) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":" << json_number(e.gauge->value());
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, e] : entries_) {
    if (!e.histogram) continue;
    if (!first) out << ',';
    first = false;
    const Histogram h = e.histogram->snapshot();
    out << '"' << name << "\":{\"lo\":" << json_number(h.bin_lo(0))
        << ",\"hi\":" << json_number(h.bin_hi(h.bins() - 1))
        << ",\"buckets\":[";
    for (std::size_t b = 0; b < h.bins(); ++b) {
      if (b) out << ',';
      out << h.bin_count(b);
    }
    out << "],\"underflow\":" << h.underflow()
        << ",\"overflow\":" << h.overflow() << ",\"count\":" << h.count()
        << ",\"mean\":" << json_number(h.count() > 0 ? h.mean() : 0.0) << '}';
  }
  out << "}}";
  return out.str();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    if (e.counter) e.counter->reset();
    if (e.gauge) e.gauge->reset();
    if (e.histogram) e.histogram->reset();
  }
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  if (&other == this) return;
  // std::scoped_lock acquires both mutexes deadlock-free regardless of the
  // order two threads merge a pair of registries in.
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [name, theirs] : other.entries_) {
    Entry& mine = entries_[name];
    const bool mine_empty = !mine.counter && !mine.gauge && !mine.histogram;
    if (mine.help.empty()) mine.help = theirs.help;
    if (theirs.counter) {
      if (!mine.counter) {
        if (!mine_empty)
          throw std::invalid_argument("MetricsRegistry::merge_from: " + name +
                                      " registered with another type");
        mine.counter = std::make_unique<Counter>();
      }
      mine.counter->inc(theirs.counter->value());
    } else if (theirs.gauge) {
      if (!mine.gauge) {
        if (!mine_empty)
          throw std::invalid_argument("MetricsRegistry::merge_from: " + name +
                                      " registered with another type");
        mine.gauge = std::make_unique<Gauge>();
      }
      mine.gauge->set(theirs.gauge->value());
    } else if (theirs.histogram) {
      const Histogram snap = theirs.histogram->snapshot();
      if (!mine.histogram) {
        if (!mine_empty)
          throw std::invalid_argument("MetricsRegistry::merge_from: " + name +
                                      " registered with another type");
        mine.histogram = std::make_unique<HistogramMetric>(
            snap.bin_lo(0), snap.bin_hi(snap.bins() - 1), snap.bins());
      }
      mine.histogram->merge(snap);
    }
  }
}

ScopedMetricsRegistry::ScopedMetricsRegistry(MetricsRegistry& registry)
    : previous_(detail::tls_metrics_registry) {
  detail::tls_metrics_registry = &registry;
}

ScopedMetricsRegistry::~ScopedMetricsRegistry() {
  detail::tls_metrics_registry = previous_;
}

}  // namespace volley::obs
