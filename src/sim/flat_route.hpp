// Flattened per-geometry routing kernels.
//
// One tight loop per overlay family reading a contiguous neighbor table
// (the packed class rows of PrefixTable and randomized Chord, Symphony
// shortcut rows; deterministic Chord and the hypercube compute their links
// from the node id) and a packed liveness mask (one bit per node, probed
// through alive_bit) directly -- no virtual dispatch, no std::optional, no
// precondition re-checks per hop.  Kernels are exact replicas of the
// corresponding Overlay::next_hop rules (checked pair by pair against the
// Router in test_flat_paths), and they are the only way the static
// estimator routes: the virtual next_hop stays as the per-pair oracle
// behind the Router.
//
// Shared by the static parallel Monte-Carlo engine
// (parallel_monte_carlo.cpp), which builds a FlatCtx over an immutable
// overlay + FailureScenario, and by the dense churn world
// (churn/churn.cpp), which points the same kernels at the liveness words
// and table state it evolves round by round.  At 2^20 nodes a tree or XOR
// hop reads a random 24-byte row of a 24 MiB table, so the batched
// estimator prefetches the next hop's row (prefetch_row) one lane turn
// before its kernel reads it.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

#include "math/rng.hpp"
#include "sim/class_rows.hpp"
#include "sim/failure.hpp"
#include "sim/router.hpp"

namespace dht::sim {

class Overlay;

namespace flat {

enum class KernelKind {
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
  KernelKind kind = KernelKind::kTree;
  int d = 0;
  std::uint64_t mask = 0;
  const std::uint64_t* alive_bits = nullptr;  // packed, sim::alive_bit
  // Node v's table row starts at rows + v * row_bytes: packed class rows
  // (tree, xor, randomized chord; sim/class_rows.hpp) or ks u32 shortcut
  // ids (symphony).  row_bytes is 0 when the kernel reads no table
  // (hypercube, deterministic chord).
  const unsigned char* rows = nullptr;
  std::uint64_t row_bytes = 0;
  int successor_links = 0;               // chord
  int kn = 0;                            // symphony near neighbors
  int ks = 0;                            // symphony shortcuts
  std::uint64_t max_hops = 0;
};

/// Whether node `id` is alive: one bit probe of the packed mask.
inline bool alive_bit(const FlatCtx& c, NodeId id) {
  return sim::alive_bit(c.alive_bits, id);
}

/// Prefetches node `id`'s table row: its first and last byte, since a row
/// may straddle two cache lines.  No-op for table-free kernels.
inline void prefetch_row(const FlatCtx& c, NodeId id) {
  if (c.row_bytes != 0) {
    const unsigned char* row = c.rows + id * c.row_bytes;
    __builtin_prefetch(row);
    __builtin_prefetch(row + c.row_bytes - 1);
  }
}

/// Entry `level` of node's packed class row: the one accessor the tree,
/// XOR and randomized-Chord kernels read their tables through.
template <EntryClass kClass>
inline NodeId class_entry(const FlatCtx& c, NodeId node, int level) {
  return class_member(kClass, c.d, node, level,
                      read_member(c.rows + node * c.row_bytes, c.d - level));
}

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
  const int level = c.d + 1 - std::bit_width(cur ^ target);
  const NodeId cand = class_entry<EntryClass::kPrefix>(c, cur, level);
  return alive_bit(c, cand) ? cand : kNoHop;
}

// XOR (Kademlia): greedy, falling back down the differing levels.
/// One forwarding step; kNoHop when the protocol drops the message.
inline NodeId step_xor(const FlatCtx& c, NodeId cur, NodeId target) {
  std::uint64_t diff = cur ^ target;
  while (diff != 0) {
    const int bw = std::bit_width(diff);
    const NodeId cand = class_entry<EntryClass::kPrefix>(c, cur, c.d + 1 - bw);
    if (alive_bit(c, cand)) {
      return cand;
    }
    diff &= ~(std::uint64_t{1} << (bw - 1));  // next differing bit down
  }
  return kNoHop;
}

// Hypercube (CAN): uniform among alive bit-correcting neighbors.  Unlike
// HypercubeOverlay::next_hop's reservoir sampling (one rng draw per alive
// candidate), the kernel collects the alive candidate mask first and spends
// at most one uniform_below per hop -- the same uniform choice, sampled
// along a different path, so hypercube results differ from the Router's
// route for route while remaining deterministic and identically
// distributed.  The mask is accumulated branchlessly from the liveness
// bits (batched alive probes, no per-candidate branch), a lone candidate
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
  // Mask of differing bits whose flip lands on an alive node; the bit
  // probes stay, but the data-dependent branch per candidate does not.
  std::uint64_t alive_mask = 0;
  std::uint64_t diff = cur ^ target;
  while (diff != 0) {
    const std::uint64_t lowest = diff & (~diff + 1);
    alive_mask |= lowest & (0 - static_cast<std::uint64_t>(
                                    alive_bit(c, cur ^ lowest)));
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
    if (alive_bit(c, succ)) {
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
    if (alive_bit(c, f)) {
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

// Chord with randomized fingers: greedy scan over the node's finger row
// (dyadic intervals shrink with the index, so the first alive
// non-overshooting finger is the greedy choice).  Finger i lies at
// clockwise offset [2^{d-i}, 2^{d-i+1}), so every finger before level
// d + 1 - bit_width(distance) overshoots and the scan starts there.
/// One forwarding step; kNoHop when the protocol drops the message.
inline NodeId step_chord_randomized(const FlatCtx& c, NodeId cur,
                                    NodeId target) {
  const std::uint64_t distance = (target - cur) & c.mask;
  std::uint64_t best_progress = 0;
  NodeId best = cur;
  for (int i = c.d + 1 - std::bit_width(distance); i <= c.d; ++i) {
    const NodeId f = class_entry<EntryClass::kDyadic>(c, cur, i);
    const std::uint64_t progress = (f - cur) & c.mask;
    if (progress > distance) {
      continue;
    }
    if (alive_bit(c, f)) {
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

// Symphony: greedy clockwise over shortcuts then near neighbors.
/// One forwarding step; kNoHop when the protocol drops the message.
inline NodeId step_symphony(const FlatCtx& c, NodeId cur, NodeId target) {
  const std::uint64_t distance = (target - cur) & c.mask;
  std::uint64_t best_progress = 0;
  NodeId best = 0;
  const unsigned char* row = c.rows + cur * c.row_bytes;
  for (int j = 0; j < c.ks; ++j) {
    std::uint32_t link32;
    std::memcpy(&link32, row + j * sizeof link32, sizeof link32);
    const NodeId link = link32;
    const std::uint64_t progress = (link - cur) & c.mask;
    if (progress > distance || progress <= best_progress) {
      continue;
    }
    if (alive_bit(c, link)) {
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
    if (alive_bit(c, link)) {
      best_progress = progress;
      best = link;
    }
  }
  return best_progress == 0 ? kNoHop : best;
}

/// Builds a context over an immutable overlay + failure scenario.  Throws
/// PreconditionError for an overlay type with no kernel.
FlatCtx make_ctx(const Overlay& overlay, const FailureScenario& failures,
                 std::uint64_t max_hops);

}  // namespace flat
}  // namespace dht::sim
