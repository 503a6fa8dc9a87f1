#include "obs/trace_events.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace volley::obs {

namespace {

constexpr std::array<const char*, 9> kKindNames = {
    "sample_taken",        "interval_chosen",    "allowance_adjusted",
    "allowance_reclaimed", "alert_raised",       "misdetect_window",
    "liveness_transition", "reconnect_attempt",  "task_registry_change",
};

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Minimal scanner for the fixed shape `to_json` emits. Tolerates
/// whitespace between tokens; rejects anything else.
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view s) : s_(s) {}

  bool literal(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool key(std::string_view name) {
    skip_ws();
    if (!literal('"')) return false;
    if (s_.substr(pos_, name.size()) != name) return false;
    pos_ += name.size();
    return literal('"') && literal(':');
  }

  bool string_value(std::string& out) {
    skip_ws();
    if (!literal('"')) return false;
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') ++pos_;
    if (pos_ >= s_.size()) return false;
    out.assign(s_.substr(start, pos_ - start));
    ++pos_;
    return true;
  }

  bool number(double& out) {
    skip_ws();
    const char* begin = s_.data() + pos_;
    char* end = nullptr;
    out = std::strtod(begin, &end);
    if (end == begin) return false;
    pos_ += static_cast<std::size_t>(end - begin);
    return true;
  }

  bool at_end() {
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r' ||
            s_[pos_] == '\n')) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_{0};
};

/// `x` as a T when it is a finite integer within T's range, else nullopt.
/// T's max() + 1 is a power of two, so the exclusive upper bound is exact.
template <typename T>
std::optional<T> integral_field(double x) {
  if (!std::isfinite(x) || x != std::trunc(x)) return std::nullopt;
  if (x < static_cast<double>(std::numeric_limits<T>::min()) ||
      x >= static_cast<double>(std::numeric_limits<T>::max()) + 1.0) {
    return std::nullopt;
  }
  return static_cast<T>(x);
}

}  // namespace

const char* trace_kind_name(TraceKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kKindNames.size() ? kKindNames[i] : "unknown";
}

std::optional<TraceKind> trace_kind_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (name == kKindNames[i]) return static_cast<TraceKind>(i);
  }
  return std::nullopt;
}

std::string to_json(const TraceEvent& event) {
  std::ostringstream out;
  out << "{\"seq\":" << event.seq << ",\"kind\":\""
      << trace_kind_name(event.kind) << "\",\"tick\":" << event.tick
      << ",\"monitor\":" << event.monitor
      << ",\"value\":" << fmt_double(event.value)
      << ",\"detail\":" << fmt_double(event.detail) << "}";
  return out.str();
}

std::optional<TraceEvent> trace_event_from_json(std::string_view line) {
  JsonScanner scan(line);
  TraceEvent event;
  double seq = 0.0, tick = 0.0, monitor = 0.0;
  std::string kind;
  if (!scan.literal('{') || !scan.key("seq") || !scan.number(seq) ||
      !scan.literal(',') || !scan.key("kind") || !scan.string_value(kind) ||
      !scan.literal(',') || !scan.key("tick") || !scan.number(tick) ||
      !scan.literal(',') || !scan.key("monitor") || !scan.number(monitor) ||
      !scan.literal(',') || !scan.key("value") || !scan.number(event.value) ||
      !scan.literal(',') || !scan.key("detail") ||
      !scan.number(event.detail) || !scan.literal('}') || !scan.at_end()) {
    return std::nullopt;
  }
  const auto parsed_kind = trace_kind_from_name(kind);
  const auto parsed_seq = integral_field<std::int64_t>(seq);
  const auto parsed_tick = integral_field<Tick>(tick);
  const auto parsed_monitor = integral_field<std::uint32_t>(monitor);
  if (!parsed_kind || !parsed_seq || !parsed_tick || !parsed_monitor) {
    return std::nullopt;
  }
  event.kind = *parsed_kind;
  event.seq = *parsed_seq;
  event.tick = *parsed_tick;
  event.monitor = *parsed_monitor;
  return event;
}

TraceSink::TraceSink(std::size_t capacity)
    : ring_(capacity), capacity_(capacity) {}

void TraceSink::record(TraceKind kind, Tick tick, std::uint32_t monitor,
                       double value, double detail) {
  TraceEvent event;
  event.kind = kind;
  event.tick = tick;
  event.monitor = monitor;
  event.value = value;
  event.detail = detail;
  std::lock_guard<std::mutex> lock(mu_);
  push_locked(event);
}

void TraceSink::record_pair(const TraceEvent& first,
                            const TraceEvent& second) {
  std::lock_guard<std::mutex> lock(mu_);
  push_locked(first);
  push_locked(second);
}

void TraceSink::push_locked(TraceEvent event) {
  if (ring_.size() == capacity_) ++dropped_;
  event.seq = seq_++;
  ring_.push(event);
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.to_vector();
}

std::string TraceSink::to_jsonl(std::size_t max_events) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = ring_.size();
  const std::size_t start =
      (max_events > 0 && max_events < n) ? n - max_events : 0;
  std::ostringstream out;
  for (std::size_t i = start; i < n; ++i) {
    out << to_json(ring_[i]) << '\n';
  }
  return out.str();
}

std::int64_t TraceSink::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

std::int64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceSink::clear() {
  // Drops the retained events only: sequence numbering (and with it
  // recorded()) keeps rising so exporters can order events across clears.
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
}

TraceSink& global_trace() {
  static TraceSink sink;
  return sink;
}

ScopedTraceSink::ScopedTraceSink(TraceSink& sink)
    : previous_(detail::tls_trace_sink) {
  detail::tls_trace_sink = &sink;
}

ScopedTraceSink::~ScopedTraceSink() { detail::tls_trace_sink = previous_; }

}  // namespace volley::obs
