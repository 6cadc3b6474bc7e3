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
// contiguous neighbor tables (PrefixTable entries, randomized Chord
// fingers, Symphony shortcut rows; deterministic Chord and the hypercube
// compute their links from the node id) and the raw liveness mask directly
// -- no virtual dispatch, no std::optional, no precondition re-checks per
// hop.
// Kernels are exact replicas of the corresponding Overlay::next_hop rules
// (property-tested), and unknown overlay types fall back to the generic
// Router path.  The shard pool itself lives in sim/shard_pool.hpp; the
// churn trajectory engine (churn/trajectory.hpp) reuses both pieces.
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
  /// When false, routes through the generic virtual next_hop path instead
  /// of the flattened kernels.  Both paths run on the same interleaved lane
  /// driver (sim/lanes.hpp) with the same per-lane pair streams, so for the
  /// rng-free forwarding rules (tree, XOR, ring, Symphony) the kernels
  /// replicate next_hop exactly and results are bit-identical either way; the
  /// hypercube kernel spends one counter-stream draw per hop instead of
  /// next_hop's one-per-candidate reservoir, so its routes differ
  /// individually while the estimate stays identically distributed.
  bool use_flat_kernels = true;
  /// Pin worker threads round-robin across NUMA nodes (sim/topology.hpp);
  /// best effort, a silent no-op where unsupported.  Never affects results.
  bool pin_workers = false;
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

struct ExactParallelOptions {
  std::uint64_t max_hops = 0;
  unsigned threads = 0;
  /// Source-block shards (0 = default, min(N, 256)).
  std::uint64_t shards = 0;
  bool use_flat_kernels = true;
  /// Pin worker threads round-robin across NUMA nodes; scheduling only,
  /// never affects results.
  bool pin_workers = false;
};

/// Exact measurement over every ordered pair of alive nodes with the O(N^2)
/// source loop sharded across threads.  For overlays whose forwarding rule
/// consumes no randomness (tree, XOR, ring, Symphony) the result is
/// bit-identical to the sequential exact_routability; the hypercube's
/// random tie-break draws from per-shard forks instead of one stream, so
/// its result is deterministic but shard-layout-dependent.
RoutabilityEstimate exact_routability_parallel(
    const Overlay& overlay, const FailureScenario& failures,
    const ExactParallelOptions& options, const math::Rng& rng);

}  // namespace dht::sim
