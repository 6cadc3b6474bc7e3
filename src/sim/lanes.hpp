// The lane driver shared by every batched routability estimator.
//
// Each engine estimates r(N, q) the same way: route sampled pairs greedily
// and count arrivals, drops and hop-limit hits.  The batched estimators --
// static dense (sim/parallel_monte_carlo.cpp), static sparse
// (sparse/flat_sparse.cpp) and sync sparse churn
// (churn/sparse_trajectory.cpp) -- advance kLanes independent routes one
// hop per turn, so their table and liveness loads overlap in the memory
// pipeline instead of serializing on cache misses.  drive_lanes is the one
// retire -> refill -> step loop they share; what differs between engines
// (how a pair is drawn, what a retirement records, the hop kernel, load
// charging, the path-cache shortcut) lives in the engine's policy type.
#pragma once

#include <cstdint>

#include "sim/router.hpp"

namespace dht::sim {

/// In-flight routes of one shard, one array element per lane.  Keeping the
/// routes as parallel arrays (rather than an array of lane structs) lets a
/// batch kernel run each micro-phase -- distance computation, row scans,
/// liveness probes -- as a short branch-light loop over lanes whose loads
/// issue together.
///
/// Invariant between steps: an active lane is mid-route (cur != target,
/// cur != kDropped, hops < max_hops) -- the driver retires terminal lanes
/// and refills before every step.  A step signals a drop by writing
/// kDropped into cur, leaving hops at the count already taken: a dropped
/// route counts the hops it completed.
template <typename Node>
struct LaneBatch {
  static constexpr int kLanes = 8;
  /// Drop sentinel: the all-ones value names no real node in any engine.
  static constexpr Node kDropped = ~Node{0};

  Node cur[kLanes];
  Node target[kLanes];
  // Target identifier and a per-lane geometry register, for engines whose
  // nodes are indices into a sorted id array.  The static ring kernels
  // keep the remaining clockwise distance (target_id - id(cur)) mod 2^d in
  // `dist`, updated by each hop's precomputed progress; the churn kernels
  // carry the current hop's identifier there instead (their rows cache
  // install-time target ids, so cur's id is the one value a hop must
  // thread through).  The dense engine uses neither.
  std::uint64_t target_id[kLanes];
  std::uint64_t dist[kLanes];
  std::uint32_t hops[kLanes];
  std::uint8_t active[kLanes];
  // Engine tag of the lane's pair: the static sparse workload's object
  // rank, the churn engine's GET index.  Never read by the driver.
  std::uint32_t rank[kLanes];
};

/// Base for engine policies without a shortcut hook.
struct NoShortcut {
  template <typename Batch>
  static constexpr bool shortcut(Batch& /*b*/, int /*lane*/) {
    return false;
  }
};

/// Routes every pair `engine` hands out, kLanes at a time.  The policy
/// provides
///   bool refill(LaneBatch<Node>& b, int l)   -- load a fresh pair into
///       lane l (cur, target, hops = 0, ...); false once pairs run out.
///       A fresh pair is never terminal (source != target, 0 < max_hops);
///   void retire(const LaneBatch<Node>& b, int l, RouteStatus status)
///       -- record lane l's finished route;
///   void step(LaneBatch<Node>& b)  -- advance every active lane one hop,
///       charging any per-node load before the hop;
///   bool shortcut(LaneBatch<Node>& b, int l)  -- an optional jump of a
///       mid-route lane before its step (true = the lane moved; it is
///       re-checked before any step sees it).  NoShortcut declines.
///
/// The schedule is fixed, since path-cache hits, pair budgets and draw
/// streams all follow it: lanes are served in lane order; at start-up
/// each lane is refilled and settled before the next is touched; a
/// terminal lane is retired and refilled before the next step, so lanes
/// never idle while pairs remain, and a step (the only place load is
/// charged) never sees a lane on the turn it retires.
///
/// The engine is taken by value and handed back: as a local of this
/// frame it aliases nothing the hop kernels write, so the compiler may
/// keep its context pointers in registers across the loop.  Taken by
/// reference, the static sparse XOR route call ran 6-8% slower than the
/// per-engine loops this driver replaced, in repeated call-level checks
/// (GCC 12, x86-64 Xeon VM).  The same holds one level down: a policy
/// copies the hot context pointers its hop kernel reads (the dense
/// engine's step closures capture the flat::FlatCtx by value).
///
/// The lanes overlap the misses of different routes; a policy can also
/// start a route's own next miss early.  The dense engine prefetches the
/// next hop's table row as soon as a step returns it, and draws each
/// lane's next pair one route ahead with its source row prefetched.
/// Those two, with the by-value capture and a bit-packed liveness mask,
/// cut the benchmark's static_dense run_s by 27% (10/10 alternated
/// benchmark/run.py pairs, 4-vCPU Xeon VM): per route, tree -26%, xor -30%
/// and symphony -48%; ring -9% and hypercube -2% (neither reads a table).
template <typename Node, typename Engine>
Engine drive_lanes(std::uint64_t max_hops, Engine engine) {
  using Batch = LaneBatch<Node>;
  Batch b{};
  int active = 0;
  // Retires and refills lane l until it is steppable or the pairs run
  // out.  A shortcut may land a lane on its target, so the lane is
  // re-checked until it is mid-route with no shortcut taken.
  const auto settle = [&](int l) {
    while (b.active[l] != 0) {
      RouteStatus status;
      if (b.cur[l] == Batch::kDropped) {
        status = RouteStatus::kDropped;
      } else if (b.cur[l] == b.target[l]) {
        status = RouteStatus::kArrived;
      } else if (b.hops[l] >= max_hops) {
        status = RouteStatus::kHopLimit;
      } else if (engine.shortcut(b, l)) {
        continue;
      } else {
        return;
      }
      engine.retire(b, l, status);
      if (!engine.refill(b, l)) {
        b.active[l] = 0;
        --active;
      }
    }
  };
  for (int l = 0; l < Batch::kLanes; ++l) {
    b.active[l] = engine.refill(b, l) ? 1 : 0;
    active += b.active[l];
    settle(l);
  }
  while (active > 0) {
    engine.step(b);
    for (int l = 0; l < Batch::kLanes; ++l) {
      settle(l);
    }
  }
  return engine;
}

}  // namespace dht::sim
