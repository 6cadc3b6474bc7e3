// The result of the static-resilience experiment of Gummadi et al. [2]:
// ordered pairs of *alive* nodes routed under the basic protocol, and the
// failed-path fraction among them -- the quantity plotted in the paper's
// Fig. 6 against the RCM prediction.
//
// The sampler is the parallel engine (parallel_monte_carlo.hpp), which
// shards the experiment across threads; RoutabilityEstimate therefore
// accumulates hop statistics in exact integer counters, so that merging
// per-shard estimates in shard order is associative and bit-identical to a
// single sequential pass.
#pragma once

#include <cstdint>

#include "math/stats.hpp"
#include "obs/failure.hpp"
#include "sim/hop_stats.hpp"
#include "sim/overlay.hpp"
#include "sim/router.hpp"

namespace dht::sim {

/// Aggregated routability measurement.
struct RoutabilityEstimate {
  math::Proportion routed;  ///< successes over attempted pairs
  HopStats hops;            ///< hop counts of successful routes
  /// Per-cause failure counters (obs/failure.hpp); the former
  /// hop_limit_hits canary is the kHopLimit cell (accessor below).
  /// Conservation: routed.trials == hops.count() + failures.total().
  obs::FailureTaxonomy failures;

  /// Folds one route outcome into the estimate.  Drops in the dense
  /// engines are always dead-entry stalls (the static forwarding rules
  /// have no other way to fail short of the hop cap).
  void record(const RouteResult& result) noexcept {
    routed.record(result.success());
    if (result.success()) {
      hops.add(static_cast<std::uint64_t>(result.hops));
    } else if (result.status == RouteStatus::kHopLimit) {
      failures.record(obs::RouteFailure::kHopLimit);
    } else {
      failures.record(obs::RouteFailure::kDeadEntry);
    }
  }

  /// The historical protocol-bug canary, preserved as an accessor over
  /// the taxonomy (should stay 0).
  std::uint64_t hop_limit_hits() const noexcept {
    return failures[obs::RouteFailure::kHopLimit];
  }

  /// Pools another estimate (e.g. a shard's) into this one.  All counters
  /// are integers, so merging shards in a fixed order is bit-identical to a
  /// single pass over the concatenated routes.
  void merge(const RoutabilityEstimate& other) noexcept {
    routed.merge(other.routed);
    hops.merge(other.hops);
    failures.merge(other.failures);
  }

  double routability() const noexcept { return routed.point(); }
  double failed_fraction() const noexcept { return 1.0 - routed.point(); }
  /// 95% Wilson interval on the routability; the vacuous [0, 1] when no
  /// pairs were sampled (ChurnWorld::measure returns an empty estimate
  /// when fewer than two nodes are alive, and downstream reporting must
  /// not trip Wilson's trials > 0 precondition on a collapsed world).
  math::Interval confidence95() const {
    return routed.trials == 0 ? math::Interval{} : routed.wilson(1.96);
  }
};

}  // namespace dht::sim
