#include "obs/trace_events.h"

#include <array>
#include <sstream>

#include "common/json.h"

namespace volley::obs {

namespace {

constexpr std::array<const char*, 9> kKindNames = {
    "sample_taken",        "interval_chosen",    "allowance_adjusted",
    "allowance_reclaimed", "alert_raised",       "misdetect_window",
    "liveness_transition", "reconnect_attempt",  "task_registry_change",
};

}  // namespace

const char* trace_kind_name(TraceKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kKindNames.size() ? kKindNames[i] : "unknown";
}

std::string to_json(const TraceEvent& event) {
  std::ostringstream out;
  out << "{\"seq\":" << event.seq << ",\"kind\":\""
      << trace_kind_name(event.kind) << "\",\"tick\":" << event.tick
      << ",\"monitor\":" << event.monitor
      << ",\"value\":" << json_number(event.value)
      << ",\"detail\":" << json_number(event.detail) << "}";
  return out.str();
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
