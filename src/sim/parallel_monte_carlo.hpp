// Parallel, deterministic Monte-Carlo routing engine.
//
// The figure reproductions need millions of sampled routes per (N, q)
// point; this engine shards the experiment across a thread pool while
// keeping results *bit-identical regardless of thread count*:
//
//  * The pair budget is split over a fixed number of shards that does NOT
//    depend on the thread count.  Shard k draws from Rng::fork(k) of the
//    caller's generator, so its route sample is a pure function of
//    (seed, shard index).
//  * Worker threads pull shard indices from an atomic counter; each shard
//    accumulates into its own RoutabilityEstimate slot.
//  * Shard estimates are merged in shard order.  RoutabilityEstimate's
//    counters are exact integers (see monte_carlo.hpp), so the merge is
//    associative and equals a single sequential pass over the same routes.
//
// Routing itself runs on the flattened per-geometry kernels of
// sim/flat_route.hpp: one tight loop per overlay family reading the
// contiguous neighbor tables (the packed class rows of PrefixTable and
// randomized Chord, Symphony shortcut rows; deterministic Chord and the
// hypercube compute their links from the node id) and the raw liveness mask directly
// -- no virtual dispatch, no std::optional, no precondition re-checks per
// hop.
// Kernels are exact replicas of the corresponding Overlay::next_hop rules
// (checked pair by pair against the Router) and the engine's only route
// path: an overlay type with no kernel is rejected.  The shard pool itself
// lives in sim/shard_pool.hpp; the churn trajectory engine
// (churn/trajectory.hpp) reuses both pieces.
#pragma once

#include <cstdint>

#include "math/rng.hpp"
#include "obs/phase_timer.hpp"
#include "sim/monte_carlo.hpp"

namespace dht::sim {

struct ParallelOptions {
  /// Number of ordered (source, target) pairs to sample.
  std::uint64_t pairs = 20000;
  /// Safety hop cap (0 = default N).
  std::uint64_t max_hops = 0;
  /// Worker threads (0 = hardware concurrency).  Never affects results.
  unsigned threads = 0;
  /// Work shards (0 = default, min(pairs, 256)).  Results are a function of
  /// (seed, shard count); keep it fixed when comparing runs.
  std::uint64_t shards = 0;
  /// Observability sinks (obs/phase_timer.hpp), both optional and both
  /// pure timing side-channels: per-shard phase seconds are reduced in
  /// shard order into `profile`, phase spans go to `trace`.  Null (the
  /// default) is the zero-cost path; attaching them never changes any
  /// counter.
  obs::PhaseProfile* profile = nullptr;
  obs::Trace* trace = nullptr;
};

/// Monte-Carlo estimate over sampled alive pairs, sharded across threads.
/// `rng` is only fork()ed, never advanced.  Preconditions: at least two
/// alive nodes, pairs > 0.
RoutabilityEstimate estimate_routability_parallel(
    const Overlay& overlay, const FailureScenario& failures,
    const ParallelOptions& options, const math::Rng& rng);

}  // namespace dht::sim
