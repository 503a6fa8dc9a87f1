// Structured trace events: the "why" behind the metrics.
//
// Counters say *how many* samples were taken; trace events say *which*
// monitor took one at *which* tick with *what* violation likelihood. Every
// decision point of the Volley pipeline records one event. The two
// per-sample kinds (kSampleTaken, kIntervalChosen) go only to a sink the
// thread bound with ScopedTraceSink; the others, rare protocol events, go
// to `trace()` (the bound sink, else the process-global ring):
//
//   kSampleTaken        monitor sampled          value = sampled value,
//                                                detail = 0 scheduled /
//                                                         1 global poll
//   kIntervalChosen     adaptation rule applied  value = chosen interval I
//                                                (ticks), detail = beta
//                                                bound at the decision
//   kAllowanceAdjusted  coordinator reallocated  value = new err_i,
//                                                detail = previous err_i
//   kAllowanceReclaimed dead monitor's budget    value = surviving monitor
//                       redistributed            count, detail = excluded
//                                                monitor count
//   kAlertRaised        global poll crossed T    value = aggregate,
//                                                detail = threshold T
//   kMisdetectWindow    a ground-truth alert     tick = episode start,
//                       episode went undetected  value = episode end
//                                                (exclusive), detail =
//                                                episode length in ticks
//   kLivenessTransition monitor liveness changed value = new state,
//                       (wire runtime)           detail = old state
//                                                (0 active / 1 suspect /
//                                                 2 dead)
//   kReconnectAttempt   monitor retried its      value = consecutive failed
//                       coordinator link         attempts so far, detail =
//                                                next backoff in ms
//   kTaskRegistryChange control plane mutated    monitor = task id, value =
//                       the task registry        epoch assigned, detail =
//                                                op (1 add / 2 update /
//                                                 3 remove)
//
// Events land in a bounded ring-buffer sink (common/ring_buffer.h): the
// newest `capacity` events win, the oldest are overwritten — observability
// must never grow without bound inside the system it observes. Keeping
// per-sample events out of the global ring is what lets it hold alerts:
// one 2048-monitor poll would otherwise overwrite all 4096 slots. `seq` is a
// monotone per-sink sequence number, so an exporter can detect overwritten
// gaps. Export is JSONL (one JSON object per line); offline tooling reads
// it back through the one JSON reader, common/json.h.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ring_buffer.h"

namespace volley::obs {

enum class TraceKind : std::uint8_t {
  kSampleTaken = 0,
  kIntervalChosen = 1,
  kAllowanceAdjusted = 2,
  kAllowanceReclaimed = 3,
  kAlertRaised = 4,
  kMisdetectWindow = 5,
  kLivenessTransition = 6,
  kReconnectAttempt = 7,
  kTaskRegistryChange = 8,
};

/// Stable snake_case name ("sample_taken", ...) used in the JSONL export.
const char* trace_kind_name(TraceKind kind);

struct TraceEvent {
  TraceKind kind{TraceKind::kSampleTaken};
  std::int64_t seq{0};       // per-sink monotone sequence number
  Tick tick{0};              // logical time (0 when not applicable)
  std::uint32_t monitor{0};  // monitor id (0 when not applicable)
  double value{0.0};         // kind-specific primary datum (header table)
  double detail{0.0};        // kind-specific secondary datum
};

/// One-line JSON object:
/// {"seq":3,"kind":"sample_taken","tick":17,"monitor":2,"value":1.5,"detail":0}
std::string to_json(const TraceEvent& event);

/// Bounded, thread-safe trace sink. Recording takes one uncontended mutex
/// (one for both events of a `record_pair`); when the ring is full the
/// oldest event is overwritten (`dropped()` counts the overwrites).
class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity = kDefaultCapacity);

  void record(TraceKind kind, Tick tick, std::uint32_t monitor, double value,
              double detail = 0.0);

  /// Records `first` then `second` under one lock, so they take
  /// consecutive seqs: for sites that always emit two events together
  /// (Monitor's kSampleTaken and kIntervalChosen). The events' own `seq`
  /// fields are ignored.
  void record_pair(const TraceEvent& first, const TraceEvent& second);

  /// Retained events, oldest first.
  std::vector<TraceEvent> snapshot() const;

  /// JSONL export of the newest `max_events` retained events (0 = all),
  /// oldest first. Bounded output for wire transport (StatsReply).
  std::string to_jsonl(std::size_t max_events = 0) const;

  std::int64_t recorded() const;  // events ever recorded
  std::int64_t dropped() const;   // events overwritten by ring wraparound
  std::size_t capacity() const { return capacity_; }
  /// Drops the retained events; sequence numbering continues across clears.
  void clear();

  static constexpr std::size_t kDefaultCapacity = 4096;

 private:
  void push_locked(TraceEvent event);

  mutable std::mutex mu_;
  RingBuffer<TraceEvent> ring_;
  std::size_t capacity_;
  std::int64_t seq_{0};
  std::int64_t dropped_{0};
};

/// The process-global sink (the default binding of `trace()`).
TraceSink& global_trace();

namespace detail {
/// The calling thread's current-sink binding (null = global).
inline thread_local TraceSink* tls_trace_sink = nullptr;
}  // namespace detail

/// The sink the calling thread bound with ScopedTraceSink, or null when
/// none is bound. Per-sample sites (Monitor's kSampleTaken/kIntervalChosen
/// pair) record only here: an unbound thread pays one TLS load and a
/// branch per sample, and the global ring keeps the protocol's rare events.
inline TraceSink* scoped_trace_sink() { return detail::tls_trace_sink; }

/// The calling thread's current sink: the innermost active ScopedTraceSink
/// on this thread, or the process-global sink when none is active. Every
/// rare-event site (alerts, allowance changes, liveness, reconnects,
/// registry changes, misdetect windows) records through this.
inline TraceSink& trace() {
  TraceSink* scoped = scoped_trace_sink();
  return scoped ? *scoped : global_trace();
}

/// RAII rebinding of `trace()` and `scoped_trace_sink()` for the calling
/// thread, mirroring obs::ScopedMetricsRegistry: a run that wants its
/// per-sample events binds a private sink, and parallel sweep workers never
/// contend on the global ring's mutex. Scopes nest and are thread-local.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceSink& sink);
  ~ScopedTraceSink();
  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  TraceSink* previous_;
};

}  // namespace volley::obs
