#include "sim/parallel_monte_carlo.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "sim/flat_route.hpp"
#include "sim/lanes.hpp"
#include "sim/shard_pool.hpp"

namespace dht::sim {

namespace {

inline RouteResult route_one(const flat::FlatCtx& c, const Router& router,
                             NodeId source, NodeId target, math::Rng& rng) {
  switch (c.kind) {
    case flat::KernelKind::kTree:
      return flat::route_tree(c, source, target);
    case flat::KernelKind::kXor:
      return flat::route_xor(c, source, target);
    case flat::KernelKind::kHypercube:
      return flat::route_hypercube(c, source, target, rng);
    case flat::KernelKind::kChordDeterministic:
      return flat::route_chord_deterministic(c, source, target);
    case flat::KernelKind::kChordRandomized:
      return flat::route_chord_randomized(c, source, target);
    case flat::KernelKind::kSymphony:
      return flat::route_symphony(c, source, target);
    case flat::KernelKind::kGeneric:
      break;
  }
  return router.route(source, target, rng);
}

constexpr int kLanes = LaneBatch<NodeId>::kLanes;
static_assert(LaneBatch<NodeId>::kDropped == flat::kNoHop,
              "step functions drop a route with kNoHop");

// The dense engine's lane policy: each lane samples its pairs from its own
// counter-based stream (shard_rng.counter_stream(lane)), so lane draws are
// a pure function of (seed, shard, lane, draw index); the shared budget
// decides only how many pairs a lane gets, and that is deterministic too
// (drive_lanes is single-threaded per shard).  `step_lane` advances one
// route one hop and returns flat::kNoHop on a drop; the driver's
// accounting matches flat::route_stepped hop for hop, so estimates equal
// those of routing the same pairs one at a time.
template <typename StepLane>
struct DenseLanes : NoShortcut {
  DenseLanes(const FailureScenario& failures, std::uint64_t pairs,
             const math::Rng& shard_rng, RoutabilityEstimate& estimate,
             StepLane step_lane)
      : failures_(failures), remaining_(pairs), estimate_(estimate),
        step_lane_(step_lane) {
    for (int l = 0; l < kLanes; ++l) {
      pair_streams_[l] =
          shard_rng.counter_stream(static_cast<std::uint64_t>(l));
    }
  }

  bool refill(LaneBatch<NodeId>& b, int l) {
    if (remaining_ == 0) {
      return false;
    }
    --remaining_;
    math::CounterRng& rng = pair_streams_[l];
    const NodeId source = failures_.sample_alive(rng);
    NodeId target = failures_.sample_alive(rng);
    while (target == source) {
      target = failures_.sample_alive(rng);
    }
    b.cur[l] = source;
    b.target[l] = target;
    b.hops[l] = 0;
    return true;
  }

  void retire(const LaneBatch<NodeId>& b, int l, RouteStatus status) {
    estimate_.record(
        flat::finish(status, static_cast<int>(b.hops[l]), b.target[l]));
  }

  void step(LaneBatch<NodeId>& b) {
    for (int l = 0; l < kLanes; ++l) {
      if (b.active[l] == 0) {
        continue;
      }
      b.cur[l] = step_lane_(l, b.cur[l], b.target[l]);
      if (b.cur[l] != flat::kNoHop) {
        ++b.hops[l];
      }
    }
  }

  const FailureScenario& failures_;
  math::CounterRng pair_streams_[kLanes];
  std::uint64_t remaining_;
  RoutabilityEstimate& estimate_;
  StepLane step_lane_;
};

// One shard of the sampled estimator: dispatch to the kernel (or the
// virtual path) through the shared lane driver.  Hypercube hop draws come
// from dedicated per-lane counter streams (ids kLanes..2*kLanes-1, disjoint
// from the pair streams); the generic path's next_hop takes a sequential
// math::Rng, so each lane forks one -- rng-free rules consume neither, which
// is what keeps flat and generic runs bit-identical for them.
void run_dense_shard(const flat::FlatCtx& c, const Overlay& overlay,
                     const FailureScenario& failures, std::uint64_t pairs,
                     const math::Rng& shard_rng,
                     RoutabilityEstimate& estimate) {
  const auto drive = [&](auto step_lane) {
    drive_lanes<NodeId>(c.max_hops, DenseLanes(failures, pairs, shard_rng,
                                               estimate, step_lane));
  };
  switch (c.kind) {
    case flat::KernelKind::kTree:
      drive([&c](int, NodeId cur, NodeId target) {
        return flat::step_tree(c, cur, target);
      });
      return;
    case flat::KernelKind::kXor:
      drive([&c](int, NodeId cur, NodeId target) {
        return flat::step_xor(c, cur, target);
      });
      return;
    case flat::KernelKind::kHypercube: {
      math::CounterRng hop_streams[kLanes];
      for (int l = 0; l < kLanes; ++l) {
        hop_streams[l] =
            shard_rng.counter_stream(static_cast<std::uint64_t>(kLanes + l));
      }
      drive([&c, &hop_streams](int l, NodeId cur, NodeId target) {
        return flat::step_hypercube(c, cur, target, hop_streams[l]);
      });
      return;
    }
    case flat::KernelKind::kChordDeterministic:
      drive([&c](int, NodeId cur, NodeId target) {
        return flat::step_chord_deterministic(c, cur, target);
      });
      return;
    case flat::KernelKind::kChordRandomized:
      drive([&c](int, NodeId cur, NodeId target) {
        return flat::step_chord_randomized(c, cur, target);
      });
      return;
    case flat::KernelKind::kSymphony:
      drive([&c](int, NodeId cur, NodeId target) {
        return flat::step_symphony(c, cur, target);
      });
      return;
    case flat::KernelKind::kGeneric: {
      math::Rng lane_rngs[kLanes] = {
          shard_rng.fork(0), shard_rng.fork(1), shard_rng.fork(2),
          shard_rng.fork(3), shard_rng.fork(4), shard_rng.fork(5),
          shard_rng.fork(6), shard_rng.fork(7)};
      drive([&overlay, &failures, &lane_rngs](int l, NodeId cur,
                                              NodeId target) {
        const auto next =
            overlay.next_hop(cur, target, failures, lane_rngs[l]);
        return next.has_value() ? *next : flat::kNoHop;
      });
      return;
    }
  }
}

}  // namespace

RoutabilityEstimate estimate_routability_parallel(
    const Overlay& overlay, const FailureScenario& failures,
    const ParallelOptions& options, const math::Rng& rng) {
  DHT_CHECK(failures.alive_count() >= 2,
            "routability needs at least two alive nodes");
  DHT_CHECK(options.pairs > 0, "at least one pair must be sampled");
  // Observability is a timing side-channel: with both sinks null (the
  // default) every PhaseTimer below is constructed with null pointers and
  // reads no clock; the shard profiles are reduced in shard order like
  // every other per-shard result, and nothing here feeds back into the
  // estimates.
  const bool observed = options.profile != nullptr || options.trace != nullptr;
  obs::PhaseProfile serial_profile;
  obs::PhaseProfile* const serial =
      observed ? &serial_profile : nullptr;
  flat::FlatCtx ctx;
  {
    obs::PhaseTimer timer(serial, obs::Phase::kWorldBuild, options.trace);
    ctx = flat::make_ctx(overlay, failures, options.max_hops,
                         options.use_flat_kernels);
  }

  const std::uint64_t shards =
      options.shards != 0 ? options.shards
                          : std::min<std::uint64_t>(options.pairs, 256);
  const std::uint64_t base = options.pairs / shards;
  const std::uint64_t extra = options.pairs % shards;

  std::vector<RoutabilityEstimate> results(shards);
  std::vector<obs::PhaseProfile> shard_profiles(observed ? shards : 0);
  run_sharded(shards,
              PoolOptions{.threads = resolve_threads(options.threads),
                          .pin_workers = options.pin_workers},
              [&](std::uint64_t s) {
                // Shard s is a pure function of (caller seed, s): fork a
                // private lineage whose counter streams feed the lanes.
                obs::PhaseTimer timer(
                    observed ? &shard_profiles[s] : nullptr,
                    obs::Phase::kRoute, options.trace);
                const math::Rng shard_rng = rng.fork(s);
                const std::uint64_t pairs = base + (s < extra ? 1 : 0);
                RoutabilityEstimate estimate;
                run_dense_shard(ctx, overlay, failures, pairs, shard_rng,
                                estimate);
                results[s] = estimate;
              });

  RoutabilityEstimate merged;
  {
    obs::PhaseTimer timer(serial, obs::Phase::kMerge, options.trace);
    for (const RoutabilityEstimate& shard : results) {
      merged.merge(shard);
    }
  }
  if (options.profile != nullptr) {
    options.profile->merge(serial_profile);
    for (const obs::PhaseProfile& p : shard_profiles) {
      options.profile->merge(p);
    }
  }
  return merged;
}

RoutabilityEstimate exact_routability_parallel(
    const Overlay& overlay, const FailureScenario& failures,
    const ExactParallelOptions& options, const math::Rng& rng) {
  DHT_CHECK(failures.alive_count() >= 2,
            "routability needs at least two alive nodes");
  const Router router(overlay, failures, options.max_hops);
  const flat::FlatCtx ctx = flat::make_ctx(overlay, failures, options.max_hops,
                                           options.use_flat_kernels);

  const std::uint64_t size = failures.size();
  const std::uint64_t shards =
      options.shards != 0 ? std::min(options.shards, size)
                          : std::min<std::uint64_t>(size, 256);
  const std::uint64_t base = size / shards;
  const std::uint64_t extra = size % shards;

  std::vector<RoutabilityEstimate> results(shards);
  run_sharded(shards,
              PoolOptions{.threads = resolve_threads(options.threads),
                          .pin_workers = options.pin_workers},
              [&](std::uint64_t s) {
                // Shard s owns the contiguous source block [lo, hi).
                const std::uint64_t lo = s * base + std::min(s, extra);
                const std::uint64_t hi = lo + base + (s < extra ? 1 : 0);
                math::Rng shard_rng = rng.fork(s);
                RoutabilityEstimate estimate;
                for (NodeId source = lo; source < hi; ++source) {
                  if (!failures.alive(source)) {
                    continue;
                  }
                  for (NodeId target = 0; target < size; ++target) {
                    if (target == source || !failures.alive(target)) {
                      continue;
                    }
                    estimate.record(
                        route_one(ctx, router, source, target, shard_rng));
                  }
                }
                results[s] = estimate;
              });

  RoutabilityEstimate merged;
  for (const RoutabilityEstimate& shard : results) {
    merged.merge(shard);
  }
  return merged;
}

}  // namespace dht::sim
