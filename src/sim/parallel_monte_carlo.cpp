#include "sim/parallel_monte_carlo.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "sim/flat_route.hpp"
#include "sim/lanes.hpp"
#include "sim/shard_pool.hpp"

namespace dht::sim {

namespace {

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
//
// Every table read is a random row of a table far larger than the cache,
// so the policy starts each row's load one lane turn early: a step that
// lands on a live node prefetches that node's row, and each lane keeps one
// pair drawn ahead (the sparse engine's LanePairSource pattern) whose
// source row is prefetched a whole route before its first hop.  A handout
// is still the lane stream's next pair in draw order, so the estimates do
// not change; a lane's last lookahead draw is simply never routed.
template <typename StepLane>
struct DenseLanes : NoShortcut {
  DenseLanes(const flat::FlatCtx& c, const FailureScenario& failures,
             std::uint64_t pairs, const math::Rng& shard_rng,
             RoutabilityEstimate& estimate, StepLane step_lane)
      : ctx_(c), failures_(failures), remaining_(pairs), estimate_(estimate),
        step_lane_(step_lane) {
    for (int l = 0; l < kLanes; ++l) {
      pair_streams_[l] =
          shard_rng.counter_stream(static_cast<std::uint64_t>(l));
      draw_ahead(l);
    }
  }

  struct Pair {
    NodeId source;
    NodeId target;
  };

  // Draws lane l's next pair and starts the load of its source row.
  void draw_ahead(int l) {
    math::CounterRng& rng = pair_streams_[l];
    const NodeId source = failures_.sample_alive(rng);
    NodeId target = failures_.sample_alive(rng);
    while (target == source) {
      target = failures_.sample_alive(rng);
    }
    ahead_[l] = Pair{source, target};
    flat::prefetch_row(ctx_, source);
  }

  bool refill(LaneBatch<NodeId>& b, int l) {
    if (remaining_ == 0) {
      return false;
    }
    --remaining_;
    b.cur[l] = ahead_[l].source;
    b.target[l] = ahead_[l].target;
    b.hops[l] = 0;
    draw_ahead(l);
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
      const NodeId next = step_lane_(l, b.cur[l], b.target[l]);
      b.cur[l] = next;
      if (next != flat::kNoHop) {
        ++b.hops[l];
        flat::prefetch_row(ctx_, next);
      }
    }
  }

  const flat::FlatCtx ctx_;
  const FailureScenario& failures_;
  math::CounterRng pair_streams_[kLanes];
  Pair ahead_[kLanes];
  std::uint64_t remaining_;
  RoutabilityEstimate& estimate_;
  StepLane step_lane_;
};

// One shard of the sampled estimator: dispatch to the kernel through the
// shared lane driver.  The step lambdas capture the context by value: a
// copy in the closure aliases nothing the lane loop writes, so the
// compiler keeps its pointers in registers (captured by reference, ring
// routes ran ~20% slower).  Hypercube hop draws come from dedicated
// per-lane counter streams (ids kLanes..2*kLanes-1, disjoint from the pair
// streams); the other kernels draw nothing.
void run_dense_shard(const flat::FlatCtx& c, const FailureScenario& failures,
                     std::uint64_t pairs, const math::Rng& shard_rng,
                     RoutabilityEstimate& estimate) {
  const auto drive = [&](auto step_lane) {
    drive_lanes<NodeId>(c.max_hops, DenseLanes(c, failures, pairs, shard_rng,
                                               estimate, step_lane));
  };
  switch (c.kind) {
    case flat::KernelKind::kTree:
      drive([c](int, NodeId cur, NodeId target) {
        return flat::step_tree(c, cur, target);
      });
      return;
    case flat::KernelKind::kXor:
      drive([c](int, NodeId cur, NodeId target) {
        return flat::step_xor(c, cur, target);
      });
      return;
    case flat::KernelKind::kHypercube: {
      math::CounterRng hop_streams[kLanes];
      for (int l = 0; l < kLanes; ++l) {
        hop_streams[l] =
            shard_rng.counter_stream(static_cast<std::uint64_t>(kLanes + l));
      }
      drive([c, &hop_streams](int l, NodeId cur, NodeId target) {
        return flat::step_hypercube(c, cur, target, hop_streams[l]);
      });
      return;
    }
    case flat::KernelKind::kChordDeterministic:
      drive([c](int, NodeId cur, NodeId target) {
        return flat::step_chord_deterministic(c, cur, target);
      });
      return;
    case flat::KernelKind::kChordRandomized:
      drive([c](int, NodeId cur, NodeId target) {
        return flat::step_chord_randomized(c, cur, target);
      });
      return;
    case flat::KernelKind::kSymphony:
      drive([c](int, NodeId cur, NodeId target) {
        return flat::step_symphony(c, cur, target);
      });
      return;
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
    ctx = flat::make_ctx(overlay, failures, options.max_hops);
  }

  const std::uint64_t shards =
      options.shards != 0 ? options.shards
                          : std::min<std::uint64_t>(options.pairs, 256);
  const std::uint64_t base = options.pairs / shards;
  const std::uint64_t extra = options.pairs % shards;

  std::vector<RoutabilityEstimate> results(shards);
  std::vector<obs::PhaseProfile> shard_profiles(observed ? shards : 0);
  run_sharded(shards,
              PoolOptions{.threads = resolve_threads(options.threads)},
              [&](std::uint64_t s) {
                // Shard s is a pure function of (caller seed, s): fork a
                // private lineage whose counter streams feed the lanes.
                obs::PhaseTimer timer(
                    observed ? &shard_profiles[s] : nullptr,
                    obs::Phase::kRoute, options.trace);
                const math::Rng shard_rng = rng.fork(s);
                const std::uint64_t pairs = base + (s < extra ? 1 : 0);
                RoutabilityEstimate estimate;
                run_dense_shard(ctx, failures, pairs, shard_rng, estimate);
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

}  // namespace dht::sim
