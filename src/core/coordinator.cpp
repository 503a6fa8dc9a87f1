#include "core/coordinator.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace_events.h"

namespace volley {

namespace {

struct CoordinatorMetrics {
  obs::CounterCell* polls;
  obs::CounterCell* alerts;
  AllowanceRoundMetrics round;

  static CoordinatorMetrics make(obs::MetricsRegistry& m) {
    return CoordinatorMetrics{
        &m.counter("volley_coordinator_global_polls_total",
                   "Global polls triggered by local violation reports")
             .cell(),
        &m.counter("volley_coordinator_global_violations_total",
                   "Global polls whose aggregate exceeded the task threshold "
                   "T (state alerts)")
             .cell(),
        AllowanceRoundMetrics::coordinator(m),
    };
  }

  static const CoordinatorMetrics& get() {
    return obs::scoped_handles(&make);
  }
};

}  // namespace

Coordinator::Coordinator(const TaskSpec& spec,
                         std::vector<std::unique_ptr<Monitor>> monitors,
                         std::unique_ptr<AllowanceAllocator> allocator,
                         FaultModel* faults, Tick start)
    : spec_(spec), monitors_(std::move(monitors)),
      allocator_(std::move(allocator)), faults_(faults) {
  spec_.validate();
  if (monitors_.empty())
    throw std::invalid_argument("Coordinator: needs at least one monitor");
  // Initial allocation: even split (Section IV-B, Figure 3 step 1).
  const double share =
      spec_.error_allowance / static_cast<double>(monitors_.size());
  allocation_.assign(monitors_.size(), share);
  for (auto& m : monitors_) m->set_error_allowance(share);
  next_update_ = start + spec_.updating_period;

  Tick max_interval = 1;
  for (const auto& m : monitors_)
    max_interval = std::max(max_interval, m->sampler().max_interval());
  window_ = static_cast<std::size_t>(max_interval) + 2;
  bucket_head_.resize(window_);
  bucket_next_.resize(monitors_.size());
  due_marks_.resize((monitors_.size() + 63) / 64);
  rebuild_due_index();
}

void Coordinator::due_index_insert(MonitorId id, Tick next) {
  if (next < cursor_) next = cursor_;
  // The ring slot is derived from the cached cursor slot instead of
  // `next % window_`: window_ is not a compile-time constant, so a real
  // division here costs more than scanning a handful of monitors would —
  // small tasks (bench_scale Part 3's 4-monitor fleet) pay it on every
  // sample.
  auto offset = static_cast<std::size_t>(next - cursor_);
  if (offset >= window_) offset %= window_;  // never taken by the invariant
  std::size_t slot = cursor_slot_ + offset;
  if (slot >= window_) slot -= window_;
  bucket_next_[id] = bucket_head_[slot];
  bucket_head_[slot] = id;
}

void Coordinator::rebuild_due_index() {
  std::fill(bucket_head_.begin(), bucket_head_.end(), kNoMonitor);
  cursor_slot_ = static_cast<std::size_t>(cursor_) % window_;
  for (MonitorId i = 0; i < monitors_.size(); ++i)
    due_index_insert(i, monitors_[i]->next_sample_tick());
}

void Coordinator::collect_due(Tick t) {
  due_scratch_.clear();
  if (t < cursor_) return;  // a re-run tick never has anything pending
  // Every pending entry lives within window_ ticks of cursor_, so a jump
  // larger than the ring (a task's first tick at t >> 0) is covered by
  // draining every bucket once.
  const Tick jump = t - cursor_ + 1;
  const auto window = static_cast<Tick>(window_);
  const Tick span = jump > window ? window : jump;
  // Buckets hold ids in reverse insertion order, one descending run per
  // tick that filled them. Each drained id sets its bit in due_marks_, and
  // the marked words are read back in ascending order below: no comparison
  // sort, and the read-back spans only the words between the lowest and
  // highest id drained.
  std::size_t lo = due_marks_.size(), hi = 0;  // marked words, [lo, hi]
  auto slot = cursor_slot_;
  for (Tick k = 0; k < span; ++k) {
    for (MonitorId id = bucket_head_[slot]; id != kNoMonitor;
         id = bucket_next_[id]) {
      const std::size_t word = id / 64;
      due_marks_[word] |= std::uint64_t{1} << (id % 64);
      lo = std::min(lo, word);
      hi = std::max(hi, word);
    }
    bucket_head_[slot] = kNoMonitor;
    if (++slot == window_) slot = 0;
  }
  cursor_ = t + 1;
  // The loop's final slot is the new cursor's slot whenever the cursor
  // advanced by exactly `span`; a jump past the ring (rare: first tick of
  // a late-starting task) recomputes it.
  cursor_slot_ = jump == span ? slot : static_cast<std::size_t>(cursor_) % window_;
  for (std::size_t word = lo; word <= hi; ++word) {
    for (std::uint64_t bits = due_marks_[word]; bits != 0; bits &= bits - 1) {
      due_scratch_.push_back(
          static_cast<MonitorId>(word * 64 + std::countr_zero(bits)));
    }
    due_marks_[word] = 0;
  }
}

Coordinator::TickResult Coordinator::run_tick(Tick t) {
  TickResult result;
  collect_due(t);
  if (faults_) {
    // A down monitor neither samples nor reports; it stays due and is
    // retried next tick.
    std::size_t kept = 0;
    for (const MonitorId id : due_scratch_) {
      if (faults_->down(monitors_[id]->id(), t)) {
        due_index_insert(id, t + 1);
      } else {
        due_scratch_[kept++] = id;
      }
    }
    due_scratch_.resize(kept);
  }
  int reports = 0;  // local-violation reports that reach the coordinator
  const auto sampled = [&](MonitorId id, const Monitor::Outcome& outcome) {
    result.any_due = true;
    if (outcome.local_violation) {
      ++result.local_violations;
      if (!faults_ || !faults_->lose_report(t)) ++reports;
    }
    due_index_insert(id, monitors_[id]->next_sample_tick());
  };
  for (const MonitorId id : due_scratch_) sampled(id, monitors_[id]->step(t));

  if (reports > 0) {
    result.global_poll = true;
    ++global_polls_;
    CoordinatorMetrics::get().polls->inc();
    const double sum = force_poll(t);
    result.global_value = sum;
    result.global_violation = sum > spec_.global_threshold;
    if (result.global_violation) {
      ++global_violations_;
      CoordinatorMetrics::get().alerts->inc();
      obs::trace().record(obs::TraceKind::kAlertRaised, t, 0, sum,
                          spec_.global_threshold);
    }
  }

  maybe_reallocate(t);
  return result;
}

double Coordinator::force_poll(Tick t) {
  // Collect the value of every monitor at t. The monitors that just
  // sampled serve their datum from cache; the rest pay one forced sampling
  // operation each. Under faults a down monitor or a lost response
  // contributes the monitor's last known value.
  double sum = 0.0;
  bool stale = false;
  for (auto& m : monitors_) {
    if (faults_ && (faults_->down(m->id(), t) || faults_->lose_response(t))) {
      stale = true;
      sum += m->last_value();
      continue;
    }
    sum += m->force_sample(t).sample.value;
  }
  if (stale) faults_->count_stale_poll();
  // The poll rescheduled every monitor that wasn't already sampled at t,
  // invalidating their ring entries wholesale; re-derive the index.
  rebuild_due_index();
  return sum;
}

void Coordinator::set_error_budget(double err) {
  if (err < 0.0 || err > 1.0)
    throw std::invalid_argument("Coordinator: error budget in [0,1]");
  spec_.error_allowance = err;
  rescale_split(allocation_, err);
  for (std::size_t i = 0; i < monitors_.size(); ++i)
    monitors_[i]->set_error_allowance(allocation_[i]);
}

void Coordinator::maybe_reallocate(Tick t) {
  if (t < next_update_) return;
  next_update_ = t + spec_.updating_period;
  if (!allocator_) return;

  std::vector<CoordStats> stats;
  stats.reserve(monitors_.size());
  for (auto& m : monitors_) stats.push_back(m->drain_coord_stats());
  last_period_stats_ = run_allowance_round(
      *allocator_, spec_.error_allowance, allocation_, stats,
      CoordinatorMetrics::get().round, t, [this](std::size_t i, double a) {
        monitors_[i]->set_error_allowance(a);
      });
  ++reallocations_;
}

std::int64_t Coordinator::total_ops() const {
  std::int64_t ops = 0;
  for (const auto& m : monitors_) ops += m->total_ops();
  return ops;
}

double Coordinator::total_cost() const {
  double cost = 0.0;
  for (const auto& m : monitors_) cost += m->total_cost();
  return cost;
}

}  // namespace volley
