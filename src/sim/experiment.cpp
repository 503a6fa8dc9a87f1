#include "sim/experiment.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace_events.h"

namespace volley {

GroundTruth GroundTruth::from_series(const TimeSeries& aggregate,
                                     double threshold) {
  GroundTruth truth;
  const std::size_t n = aggregate.size();
  truth.alert.assign(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    if (aggregate[t] > threshold) {
      truth.alert[t] = 1;
      ++truth.alert_ticks;
    }
  }
  // Maximal runs of alert ticks.
  std::size_t t = 0;
  while (t < n) {
    if (!truth.alert[t]) {
      ++t;
      continue;
    }
    std::size_t end = t;
    while (end < n && truth.alert[end]) ++end;
    truth.episodes.emplace_back(static_cast<Tick>(t), static_cast<Tick>(end));
    t = end;
  }
  return truth;
}

const GroundTruth& TruthCache::at(double threshold) {
  auto it = truths_.find(threshold);
  if (it == truths_.end()) {
    it = truths_.emplace(threshold,
                         GroundTruth::from_series(aggregate_, threshold))
             .first;
  }
  return it->second;
}

void score_detection(RunResult& result, const GroundTruth& truth,
                     std::span<const char> detected, Tick begin, Tick end,
                     const std::function<void(Tick, Tick)>& on_missed) {
  if (detected.size() != truth.alert.size())
    throw std::invalid_argument("score_detection: length mismatch");
  result.true_alert_ticks = 0;
  result.detected_alert_ticks = 0;
  result.true_episodes = 0;
  result.detected_episodes = 0;
  for (Tick t = begin; t < end; ++t) {
    const auto i = static_cast<std::size_t>(t);
    if (!truth.alert[i]) continue;
    ++result.true_alert_ticks;
    if (detected[i]) ++result.detected_alert_ticks;
  }
  for (const auto& [start, stop] : truth.episodes) {
    const Tick lo = std::max(start, begin);
    const Tick hi = std::min(stop, end);
    if (lo >= hi) continue;
    ++result.true_episodes;
    bool hit = false;
    for (Tick t = lo; t < hi && !hit; ++t)
      hit = detected[static_cast<std::size_t>(t)] != 0;
    if (hit) {
      ++result.detected_episodes;
    } else if (on_missed) {
      on_missed(start, stop);
    }
  }
}

void score_detection(RunResult& result, const GroundTruth& truth,
                     std::span<const char> detected) {
  auto& missed_episodes = obs::metrics().counter(
      "volley_misdetected_episodes_total",
      "Ground-truth alert episodes in which no tick was detected");
  score_detection(result, truth, detected, 0,
                  static_cast<Tick>(truth.alert.size()),
                  [&missed_episodes](Tick start, Tick end) {
                    missed_episodes.inc();
                    obs::trace().record(obs::TraceKind::kMisdetectWindow,
                                        start, 0, static_cast<double>(end),
                                        static_cast<double>(end - start));
                  });
  // Snapshots the *current* registry — the run-scoped one installed by the
  // experiment drivers — so the result carries only this run's counters.
  result.metrics_json = obs::metrics().to_json();
}

}  // namespace volley
