// Monitor → shard placement (DESIGN.md §13).
//
// The sharded tiers slice a task's monitor set into contiguous,
// near-equal-size subsets: shard s owns the global monitor indices
// [begin, end). Contiguity keeps the global id order recoverable from
// (shard, local index) — a sharded sim run reports per-monitor results in
// the same order as a flat one — and near-equal sizes keep every
// shard's poll cost within one monitor of n/S.
//
// The placement is a pure function of (monitors, shards): the same inputs
// always produce the same slicing, which is what lets a crashed aggregator
// recompute its subset on restart without coordination.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace volley::shard {

/// One shard's slice of the global monitor index space: [begin, end).
struct ShardRange {
  std::size_t begin{0};
  std::size_t end{0};

  std::size_t size() const { return end - begin; }
  bool contains(std::size_t i) const { return i >= begin && i < end; }
};

/// Slices `monitors` global indices into `shards` contiguous ranges whose
/// sizes differ by at most one (the first monitors % shards ranges hold the
/// extra element). Requires 1 <= shards <= monitors.
inline std::vector<ShardRange> contiguous_placement(std::size_t monitors,
                                                    std::size_t shards) {
  if (monitors == 0)
    throw std::invalid_argument("contiguous_placement: monitors > 0");
  if (shards == 0 || shards > monitors)
    throw std::invalid_argument(
        "contiguous_placement: 1 <= shards <= monitors");
  std::vector<ShardRange> out;
  out.reserve(shards);
  const std::size_t base = monitors / shards;
  const std::size_t extra = monitors % shards;
  std::size_t at = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t size = base + (s < extra ? 1 : 0);
    out.push_back(ShardRange{at, at + size});
    at += size;
  }
  return out;
}

/// Inverse of contiguous_placement for a single monitor index.
inline std::size_t shard_of(std::span<const ShardRange> placement,
                            std::size_t monitor) {
  for (std::size_t s = 0; s < placement.size(); ++s) {
    if (placement[s].contains(monitor)) return s;
  }
  throw std::out_of_range("shard_of: monitor outside placement");
}

}  // namespace volley::shard
