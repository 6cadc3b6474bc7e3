// Overlay interface for non-fully-populated identifier spaces.
//
// Mirrors sim::Overlay, but over node *indices* (0..N-1 in ring order)
// rather than identifiers, since most keys host no node.  The virtual
// next_hop path (and route() over it) is the per-pair semantic oracle; the
// flattened kernels in sparse/flat_sparse.hpp, the estimators' only route
// path, replicate it hop for hop on contiguous tables.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "math/rng.hpp"
#include "obs/failure.hpp"
#include "sim/failure.hpp"
#include "sim/hop_stats.hpp"
#include "sparse/sparse_space.hpp"

namespace dht::sparse {

/// i.i.d. Bernoulli liveness over node indices: a sim::FailureScenario over
/// node_count() indices (built in 2^14-node chunks, identical to the serial
/// draw order at any core count), sampled as NodeIndex.  The flat kernels
/// probe its packed mask in place.
class SparseFailure : public sim::FailureScenario {
 public:
  SparseFailure(const SparseIdSpace& space, double q, math::Rng& rng)
      : FailureScenario(space.node_count(), q, rng) {}

  std::uint64_t node_count() const noexcept { return size(); }

  template <typename Generator>
  NodeIndex sample_alive(Generator& rng) const {
    return static_cast<NodeIndex>(FailureScenario::sample_alive(rng));
  }
};

class SparseOverlay {
 public:
  virtual ~SparseOverlay();

  virtual std::string_view name() const noexcept = 0;
  virtual const SparseIdSpace& space() const noexcept = 0;

  /// One forwarding step toward `target` (current != target); nullopt when
  /// the basic protocol drops the message.
  virtual std::optional<NodeIndex> next_hop(
      NodeIndex current, NodeIndex target,
      const SparseFailure& failures) const = 0;
};

/// Routes source -> target; returns hop count on success, nullopt on drop.
std::optional<int> route(const SparseOverlay& overlay,
                         const SparseFailure& failures, NodeIndex source,
                         NodeIndex target);

/// Monte-Carlo routability over sampled alive index pairs.  All counters
/// are exact integers (sim::HopStats for the hop distribution), so merging
/// per-shard estimates in a fixed order is associative and bit-identical to
/// a single pass over the concatenated routes -- the property the sharded
/// estimators (sparse/flat_sparse.hpp, churn/sparse_trajectory.hpp) rely
/// on.
struct SparseEstimate {
  std::uint64_t attempts = 0;
  sim::HopStats hops;  ///< hop counts of successful routes
  /// Per-cause failure counters (obs/failure.hpp); the former
  /// hop_limit_hits canary is the kHopLimit cell (accessor below).
  /// Conservation: attempts == hops.count() + failures.total().
  obs::FailureTaxonomy failures;
  // Workload-layer counters, all exact integers so merge/== extend to them
  // unchanged.  Zero when the corresponding feature is off, keeping the
  // historical estimates bit-compatible.
  std::uint64_t cache_probes = 0;  ///< path-cache lookups (flat engine)
  std::uint64_t cache_hits = 0;    ///< probes that short-circuited a route
  std::uint64_t gets = 0;          ///< replicated GETs issued (churn engine)
  std::uint64_t gets_available = 0;  ///< GETs that reached a live replica

  void record_arrival(std::uint64_t route_hops) noexcept {
    ++attempts;
    hops.add(route_hops);
  }
  void record_drop(obs::RouteFailure cause =
                       obs::RouteFailure::kDeadEntry) noexcept {
    ++attempts;
    failures.record(cause);
  }
  void record_hop_limit() noexcept {
    ++attempts;
    failures.record(obs::RouteFailure::kHopLimit);
  }

  /// The historical protocol-bug canary, preserved as an accessor over
  /// the taxonomy (should stay 0).
  std::uint64_t hop_limit_hits() const noexcept {
    return failures[obs::RouteFailure::kHopLimit];
  }

  /// Pools another estimate (e.g. a shard's) into this one; exact.
  void merge(const SparseEstimate& other) noexcept {
    attempts += other.attempts;
    hops.merge(other.hops);
    failures.merge(other.failures);
    cache_probes += other.cache_probes;
    cache_hits += other.cache_hits;
    gets += other.gets;
    gets_available += other.gets_available;
  }

  /// Exact counter equality -- what the cross-thread determinism gates
  /// (perf_simulator, test_flat_sparse) assert.
  bool operator==(const SparseEstimate&) const = default;

  std::uint64_t successes() const noexcept { return hops.count(); }
  double routability() const noexcept {
    return attempts == 0
               ? 0.0
               : static_cast<double>(successes()) /
                     static_cast<double>(attempts);
  }
  double failed_fraction() const noexcept { return 1.0 - routability(); }
  double mean_hops() const noexcept { return hops.mean(); }
  /// Fraction of cache probes that hit (0 with caching off).
  double cache_hit_rate() const noexcept {
    return cache_probes == 0 ? 0.0
                             : static_cast<double>(cache_hits) /
                                   static_cast<double>(cache_probes);
  }
  /// Data availability of replicated GETs: a GET succeeds when ANY replica
  /// attempt arrives, so availability >= routability.  Without replicated
  /// sampling (gets == 0) a GET is exactly a route; fall back to
  /// routability so the column stays meaningful in every mode.
  double availability() const noexcept {
    return gets == 0 ? routability()
                     : static_cast<double>(gets_available) /
                           static_cast<double>(gets);
  }
};

}  // namespace dht::sparse
