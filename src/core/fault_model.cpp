#include "core/fault_model.h"

#include <algorithm>

namespace volley {

FaultModel::FaultModel(std::vector<LossWindow> loss,
                       const std::vector<MonitorOutage>& outages,
                       std::uint64_t seed)
    : loss_(std::move(loss)), rng_(seed) {
  for (const auto& outage : outages) {
    if (outage.monitor >= down_.size()) down_.resize(outage.monitor + 1);
    down_[outage.monitor].emplace_back(outage.start, outage.end);
  }
  // Merge each monitor's windows so membership and overlap counts see the
  // union: two fault profiles may take one monitor down at once.
  for (auto& spans : down_) {
    std::sort(spans.begin(), spans.end());
    std::vector<std::pair<Tick, Tick>> merged;
    for (const auto& span : spans) {
      if (!merged.empty() && span.first <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, span.second);
      } else {
        merged.push_back(span);
      }
    }
    spans = std::move(merged);
  }
}

double FaultModel::loss_at(Tick t, double LossWindow::*rate) const {
  double survive = 1.0;
  for (const auto& w : loss_) {
    if (t >= w.start && t < w.end) survive *= 1.0 - w.*rate;
  }
  return 1.0 - survive;
}

bool FaultModel::down(std::size_t monitor, Tick t) const {
  if (monitor >= down_.size()) return false;
  for (const auto& [start, end] : down_[monitor]) {
    if (t < start) return false;
    if (t < end) return true;
  }
  return false;
}

std::int64_t FaultModel::outage_ticks(std::size_t monitor, Tick begin,
                                      Tick end) const {
  if (monitor >= down_.size()) return 0;
  std::int64_t ticks = 0;
  for (const auto& [start, stop] : down_[monitor]) {
    const Tick lo = std::max(start, begin);
    const Tick hi = std::min(stop, end);
    if (lo < hi) ticks += hi - lo;
  }
  return ticks;
}

bool FaultModel::lose_report(Tick t) {
  const bool lost = rng_.bernoulli(report_loss_at(t));
  if (lost) ++lost_reports_;
  return lost;
}

bool FaultModel::lose_response(Tick t) {
  const bool lost = rng_.bernoulli(response_loss_at(t));
  if (lost) ++lost_responses_;
  return lost;
}

}  // namespace volley
