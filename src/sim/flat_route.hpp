// Flattened per-geometry routing kernels.
//
// One tight loop per overlay family reading a contiguous neighbor table
// (PrefixTable entries, materialized Chord fingers, Symphony shortcut rows)
// and a raw liveness mask directly -- no virtual dispatch, no
// std::optional, no precondition re-checks per hop.  Kernels are exact
// replicas of the corresponding Overlay::next_hop rules (property-tested in
// test_flat_paths / test_parallel_monte_carlo).
//
// Shared by the static parallel Monte-Carlo engine
// (parallel_monte_carlo.cpp), which builds a FlatCtx over an immutable
// overlay + FailureScenario, and by the churn trajectory engine
// (churn/trajectory.cpp), which points the same kernels at the liveness
// and table state a shard evolves round by round.
#pragma once

#include <bit>
#include <cstdint>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

#include "math/rng.hpp"
#include "sim/router.hpp"

namespace dht::sim {

class Overlay;
class FailureScenario;

namespace flat {

enum class KernelKind {
  kGeneric,
  kTree,
  kXor,
  kHypercube,
  kChordDeterministic,
  kChordRandomized,
  kSymphony,
};

// Flattened routing context: everything a kernel needs, as raw pointers and
// scalars.  Built once per engine invocation (or once per trajectory round),
// read-only across threads.
struct FlatCtx {
  KernelKind kind = KernelKind::kGeneric;
  int d = 0;
  std::uint64_t mask = 0;
  const std::uint8_t* alive = nullptr;
  const std::uint32_t* table = nullptr;  // prefix entries / fingers / shortcuts
  int successor_links = 0;               // chord
  int kn = 0;                            // symphony near neighbors
  int ks = 0;                            // symphony shortcuts
  std::uint64_t max_hops = 0;
};

inline RouteResult finish(RouteStatus status, int hops, NodeId last) {
  RouteResult r;
  r.status = status;
  r.hops = hops;
  r.last_node = last;
  return r;
}

/// Drop sentinel returned by the per-hop step functions below.  NodeId is
/// 64-bit while identifiers live in a 2^d space with d < 64, so the
/// all-ones value can never name a real node.
inline constexpr NodeId kNoHop = ~NodeId{0};

/// One whole route: iterates a per-hop step function until arrival, drop
/// (step returns kNoHop), or the hop cap.  The batched estimator
/// (parallel_monte_carlo.cpp) applies the identical accounting to
/// interleaved routes through the lane driver every batched engine shares
/// (sim/lanes.hpp), with the same step functions.
template <typename Step>
RouteResult route_stepped(const FlatCtx& c, NodeId source, NodeId target,
                          Step step) {
  NodeId cur = source;
  int hops = 0;
  while (cur != target) {
    if (static_cast<std::uint64_t>(hops) >= c.max_hops) {
      return finish(RouteStatus::kHopLimit, hops, cur);
    }
    const NodeId next = step(c, cur, target);
    if (next == kNoHop) {
      return finish(RouteStatus::kDropped, hops, cur);
    }
    cur = next;
    ++hops;
  }
  return finish(RouteStatus::kArrived, hops, cur);
}

// Tree (Plaxton): the level-correcting neighbor is the only admissible hop.
/// One forwarding step; kNoHop when the protocol drops the message.
inline NodeId step_tree(const FlatCtx& c, NodeId cur, NodeId target) {
  const std::uint64_t diff = cur ^ target;
  const NodeId cand = c.table[cur * static_cast<std::uint64_t>(c.d) +
                              static_cast<std::uint64_t>(c.d) -
                              static_cast<std::uint64_t>(std::bit_width(diff))];
  return c.alive[cand] ? cand : kNoHop;
}

inline RouteResult route_tree(const FlatCtx& c, NodeId source, NodeId target) {
  return route_stepped(c, source, target,
                       [](const FlatCtx& ctx, NodeId cur, NodeId tgt) {
                         return step_tree(ctx, cur, tgt);
                       });
}

// XOR (Kademlia): greedy, falling back down the differing levels.
/// One forwarding step; kNoHop when the protocol drops the message.
inline NodeId step_xor(const FlatCtx& c, NodeId cur, NodeId target) {
  const std::uint32_t* row = c.table + cur * static_cast<std::uint64_t>(c.d);
  std::uint64_t diff = cur ^ target;
  while (diff != 0) {
    const int bw = std::bit_width(diff);
    const NodeId cand = row[c.d - bw];
    if (c.alive[cand]) {
      return cand;
    }
    diff &= ~(std::uint64_t{1} << (bw - 1));  // next differing bit down
  }
  return kNoHop;
}

inline RouteResult route_xor(const FlatCtx& c, NodeId source, NodeId target) {
  return route_stepped(c, source, target,
                       [](const FlatCtx& ctx, NodeId cur, NodeId tgt) {
                         return step_xor(ctx, cur, tgt);
                       });
}

// Hypercube (CAN): uniform among alive bit-correcting neighbors.  Unlike
// HypercubeOverlay::next_hop's reservoir sampling (one rng draw per alive
// candidate), the kernel collects the alive candidate mask first and spends
// at most one uniform_below per hop -- the same uniform choice, sampled
// along a different path, so hypercube results differ from the generic
// Router route-for-route while remaining deterministic and identically
// distributed.  The mask is accumulated branchlessly from the liveness
// bytes (batched alive lookups, no per-candidate branch), a lone candidate
// is taken without burning a draw (a 1-way uniform choice is
// deterministic), and the k-th set bit is selected with pdep where BMI2 is
// available.
/// One forwarding step; kNoHop when the protocol drops the message.
/// Templated on the generator so both the sequential engines (math::Rng)
/// and the per-lane counter streams of the batched estimator
/// (math::CounterRng) can drive it.
template <typename Generator>
inline NodeId step_hypercube(const FlatCtx& c, NodeId cur, NodeId target,
                             Generator& rng) {
  // Mask of differing bits whose flip lands on an alive node; the byte
  // loads stay, but the data-dependent branch per candidate does not.
  std::uint64_t alive_mask = 0;
  std::uint64_t diff = cur ^ target;
  while (diff != 0) {
    const std::uint64_t lowest = diff & (~diff + 1);
    alive_mask |=
        lowest & (0 - static_cast<std::uint64_t>(c.alive[cur ^ lowest]));
    diff ^= lowest;
  }
  if (alive_mask == 0) {
    return kNoHop;
  }
  if ((alive_mask & (alive_mask - 1)) == 0) {
    // Single alive candidate: the uniform choice is forced, skip the rng
    // draw.  (Late route phases at low q live here.)
    return cur ^ alive_mask;
  }
  // Pick the k-th set bit of the alive mask uniformly.
  const std::uint64_t k = rng.uniform_below(
      static_cast<std::uint64_t>(std::popcount(alive_mask)));
#if defined(__BMI2__)
  return cur ^ _pdep_u64(std::uint64_t{1} << k, alive_mask);
#else
  for (std::uint64_t drop = 0; drop < k; ++drop) {
    alive_mask &= alive_mask - 1;  // clear lowest set bit
  }
  return cur ^ (alive_mask & (~alive_mask + 1));
#endif
}

inline RouteResult route_hypercube(const FlatCtx& c, NodeId source,
                                   NodeId target, math::Rng& rng) {
  return route_stepped(c, source, target,
                       [&rng](const FlatCtx& ctx, NodeId cur, NodeId tgt) {
                         return step_hypercube(ctx, cur, tgt, rng);
                       });
}

// Chord successor-list fallback, shared by both finger variants: the
// farthest non-overshooting alive successor, but only when it outreaches
// the best alive finger.
inline bool chord_successor(const FlatCtx& c, NodeId cur,
                            std::uint64_t distance,
                            std::uint64_t best_progress, NodeId& out) {
  for (int k = c.successor_links; k > static_cast<int>(best_progress); --k) {
    if (static_cast<std::uint64_t>(k) > distance) {
      continue;  // overshoots
    }
    const NodeId succ = (cur + static_cast<std::uint64_t>(k)) & c.mask;
    if (c.alive[succ]) {
      out = succ;
      return true;
    }
  }
  return false;
}

// Chord with deterministic fingers: offsets are exactly the powers of two,
// so the greedy scan is pure bit arithmetic -- no table reads at all.
/// One forwarding step; kNoHop when the protocol drops the message.
inline NodeId step_chord_deterministic(const FlatCtx& c, NodeId cur,
                                       NodeId target) {
  const std::uint64_t distance = (target - cur) & c.mask;
  std::uint64_t best_progress = 0;
  NodeId best = cur;
  // Largest power-of-two offset <= distance, then downward.
  for (int k = std::bit_width(distance) - 1; k >= 0; --k) {
    const NodeId f = (cur + (std::uint64_t{1} << k)) & c.mask;
    if (c.alive[f]) {
      best_progress = std::uint64_t{1} << k;
      best = f;
      break;
    }
  }
  NodeId next;
  if (!chord_successor(c, cur, distance, best_progress, next)) {
    if (best_progress == 0) {
      return kNoHop;
    }
    next = best;
  }
  return next;
}

inline RouteResult route_chord_deterministic(const FlatCtx& c, NodeId source,
                                             NodeId target) {
  return route_stepped(c, source, target,
                       [](const FlatCtx& ctx, NodeId cur, NodeId tgt) {
                         return step_chord_deterministic(ctx, cur, tgt);
                       });
}

// Chord with randomized fingers: greedy scan over the node's contiguous
// finger row (dyadic intervals shrink with the index, so the first alive
// non-overshooting finger is the greedy choice).
/// One forwarding step; kNoHop when the protocol drops the message.
inline NodeId step_chord_randomized(const FlatCtx& c, NodeId cur,
                                    NodeId target) {
  const std::uint64_t distance = (target - cur) & c.mask;
  const std::uint32_t* row = c.table + cur * static_cast<std::uint64_t>(c.d);
  std::uint64_t best_progress = 0;
  NodeId best = cur;
  for (int i = 0; i < c.d; ++i) {
    const NodeId f = row[i];
    const std::uint64_t progress = (f - cur) & c.mask;
    if (progress > distance) {
      continue;
    }
    if (c.alive[f]) {
      best_progress = progress;
      best = f;
      break;
    }
  }
  NodeId next;
  if (!chord_successor(c, cur, distance, best_progress, next)) {
    if (best_progress == 0) {
      return kNoHop;
    }
    next = best;
  }
  return next;
}

inline RouteResult route_chord_randomized(const FlatCtx& c, NodeId source,
                                          NodeId target) {
  return route_stepped(c, source, target,
                       [](const FlatCtx& ctx, NodeId cur, NodeId tgt) {
                         return step_chord_randomized(ctx, cur, tgt);
                       });
}

// Symphony: greedy clockwise over shortcuts then near neighbors.
/// One forwarding step; kNoHop when the protocol drops the message.
inline NodeId step_symphony(const FlatCtx& c, NodeId cur, NodeId target) {
  const std::uint64_t distance = (target - cur) & c.mask;
  std::uint64_t best_progress = 0;
  NodeId best = 0;
  const std::uint32_t* row = c.table + cur * static_cast<std::uint64_t>(c.ks);
  for (int j = 0; j < c.ks; ++j) {
    const NodeId link = row[j];
    const std::uint64_t progress = (link - cur) & c.mask;
    if (progress > distance || progress <= best_progress) {
      continue;
    }
    if (c.alive[link]) {
      best_progress = progress;
      best = link;
    }
  }
  for (int k = 1; k <= c.kn; ++k) {
    const std::uint64_t progress = static_cast<std::uint64_t>(k);
    if (progress > distance || progress <= best_progress) {
      continue;
    }
    const NodeId link = (cur + progress) & c.mask;
    if (c.alive[link]) {
      best_progress = progress;
      best = link;
    }
  }
  return best_progress == 0 ? kNoHop : best;
}

inline RouteResult route_symphony(const FlatCtx& c, NodeId source,
                                  NodeId target) {
  return route_stepped(c, source, target,
                       [](const FlatCtx& ctx, NodeId cur, NodeId tgt) {
                         return step_symphony(ctx, cur, tgt);
                       });
}

/// Builds a context over an immutable overlay + failure scenario.  Unknown
/// overlay types (and use_flat_kernels = false) yield kGeneric, which the
/// caller routes through the virtual-dispatch Router instead.
FlatCtx make_ctx(const Overlay& overlay, const FailureScenario& failures,
                 std::uint64_t max_hops, bool use_flat_kernels);

}  // namespace flat
}  // namespace dht::sim
