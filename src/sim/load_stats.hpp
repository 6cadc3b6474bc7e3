// Per-node load accounting for the workload layer: messages forwarded per
// node, as commutative integer counters.
//
// Two shapes, one merge discipline:
//
//  * The sharded static estimator (sparse/flat_sparse.hpp) accumulates into
//    ONE shared array of relaxed atomic u64 counters.  Integer addition is
//    commutative and associative, so the final per-node counts are
//    independent of thread interleaving -- the same schedule-independence
//    HopStats gets from per-shard copies merged in shard order, without
//    materializing an N-sized vector per shard.
//  * The churn engine's shard-private worlds accumulate into plain u64
//    vectors (each world is single-threaded); per-shard summaries are
//    reduced in shard order.  Its batched sync measurement retires the
//    8 SoA lanes in whatever order routes terminate, which is safe for
//    the same reason the atomic shape is: each lane's bumps are plain
//    commutative additions into the world's own vector, so lane
//    scheduling cannot change the final counts (gated per pair against
//    the scalar path in test_sparse_churn).
//
// Overflow analysis (the hop_stats.hpp discipline): one route contributes
// at most max_hops < 2^26 forwards total, so a node's counter is bounded by
// pairs * 2^26; at the engines' 2^32-pair ceiling that is < 2^58, leaving
// u64 headroom of 2^6 such runs on a single accumulator.  The summary's
// sum of squared loads is computed in unsigned __int128 (a single counter
// squared can reach 2^116), converted to double only at the end.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dht::sim {

/// Deterministic digest of a per-node load vector: the JSONL columns of
/// the heavy-traffic sweeps.  Derived single-threaded from exact integer
/// counts in index order, so equal count vectors give bit-equal summaries
/// -- the cross-thread determinism gates compare these directly.
struct LoadSummary {
  std::uint64_t nodes = 0;     ///< counters summarized (alive/present)
  std::uint64_t total = 0;     ///< total forwards
  std::uint64_t max = 0;       ///< hottest node
  std::uint64_t p99 = 0;       ///< 99th-percentile node load
  double mean = 0.0;
  double cv = 0.0;  ///< coefficient of variation (stddev / mean; 0 if mean 0)

  bool operator==(const LoadSummary&) const = default;
};

/// Summarizes the selected per-node loads: `loads[i]` enters iff
/// `include(i)` (liveness / presence filter -- dead slots hold no load and
/// would deflate the distribution).  Selecting the p99 rank in a copy
/// (std::nth_element; no full sort) gives the exact p99 (the ceil-index
/// convention: the smallest load >= 99% of nodes' loads).
template <typename Include>
LoadSummary summarize_load(const std::vector<std::uint64_t>& loads,
                           Include include) {
  LoadSummary out;
  std::vector<std::uint64_t> kept;
  kept.reserve(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (include(i)) {
      kept.push_back(loads[i]);
    }
  }
  out.nodes = kept.size();
  if (kept.empty()) {
    return out;
  }
  unsigned __int128 sum = 0;
  unsigned __int128 sum_sq = 0;
  for (const std::uint64_t v : kept) {
    sum += v;
    sum_sq += static_cast<unsigned __int128>(v) * v;
    out.max = std::max(out.max, v);
  }
  out.total = static_cast<std::uint64_t>(sum);
  // Rank ceil(0.99 * (m - 1)) of the sorted order.
  const auto rank = static_cast<std::ptrdiff_t>((kept.size() - 1) -
                                                (kept.size() - 1) / 100);
  std::nth_element(kept.begin(), kept.begin() + rank, kept.end());
  out.p99 = kept[static_cast<std::size_t>(rank)];
  const double n = static_cast<double>(kept.size());
  out.mean = static_cast<double>(sum) / n;
  // Population variance from the exact integer sums; clamp the rounding
  // residue like HopStats::variance.
  const double centered =
      static_cast<double>(sum_sq) - n * out.mean * out.mean;
  const double variance = (centered < 0.0 ? 0.0 : centered) / n;
  out.cv = out.mean > 0.0 ? std::sqrt(variance) / out.mean : 0.0;
  return out;
}

inline LoadSummary summarize_load(const std::vector<std::uint64_t>& loads) {
  return summarize_load(loads, [](std::size_t) { return true; });
}

}  // namespace dht::sim
