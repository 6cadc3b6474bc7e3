// The sparse churn engine's hop kernels (internal to src/churn).
//
// One greedy hop kernel per geometry -- step_clockwise (Chord, Symphony)
// and step_xor (Kademlia) -- over the flattened ChurnKernelCtx view of a
// world's rows.  Every route path runs through them: route_one, the
// single-route core behind in-flight measurement, the scalar reference
// (measure_reference) and route forensics; and ChurnLanes, the sync
// measurement policy on the shared lane driver (sim/lanes.hpp).
#pragma once

#include <bit>
#include <cstdint>

#include "churn/churn_rows.hpp"
#include "churn/membership.hpp"
#include "obs/route_trace.hpp"
#include "sim/lanes.hpp"
#include "sim/router.hpp"
#include "sparse/flat_sparse.hpp"

namespace dht::churn::detail {

using Lanes = sparse::flat::Lanes;
using sim::RouteStatus;
static_assert(Lanes::kDropped == kNoSlot, "kernels drop a lane with kNoSlot");

// Upper bound on a greedy-ring candidate set: the table row (<= 63
// entries; bits <= 63, shortcuts capped at 64) plus the successor list
// (capped at 64) -- enforced by the world's config check so the per-hop
// progress lattice fits on the stack.
constexpr int kMaxCandidates = 128;

template <typename Id>
inline bool ctx_slot_alive(const ChurnKernelCtx<Id>& c, NodeSlot slot) {
  return ((c.alive_bits[slot >> 6] >> (slot & 63)) & 1) != 0;
}

// An entry is routable only while its target slot is present under the
// generation the entry was installed against.  The probe is the only
// random access a candidate costs: its geometry was already computed from
// the cached install-time id, which equals the current id exactly when
// this probe passes (ids change only on rejoin, which bumps the
// generation) -- so screening candidates by cached geometry first can
// never change which entry a kernel picks.
template <typename Id>
inline bool ctx_entry_valid(const ChurnKernelCtx<Id>& c, NodeSlot entry,
                            std::uint32_t generation) {
  return entry != kNoSlot && ctx_slot_alive(c, entry) &&
         c.generations[entry] == generation;
}

// Classifies a no-admissible-hop drop for the failure taxonomy: if the
// dropping node keeps a successor list and every entry in it is dead or
// self (the ring's guaranteed-progress channel has collapsed), the drop
// is a successor collapse; otherwise some table entry merely decayed --
// a dead-entry stall.  The probe re-reads state the failing step already
// touched: rng-free, so classification is a pure function of the frozen
// snapshot and merges bit-identically at any thread count.
template <typename Id>
inline obs::RouteFailure classify_drop(const ChurnKernelCtx<Id>& c,
                                       NodeSlot cur) {
  if (c.s > 0) {
    const std::uint64_t base = c.successor_base(cur);
    for (int t = 0; t < c.s; ++t) {
      const std::uint64_t off = base + static_cast<std::uint64_t>(t);
      const NodeSlot e = c.successors[off];
      if (e != cur && ctx_entry_valid(c, e, c.successors_gen[off])) {
        return obs::RouteFailure::kDeadEntry;
      }
    }
    return obs::RouteFailure::kSuccessorCollapse;
  }
  return obs::RouteFailure::kDeadEntry;
}

// A hop's outcome: the chosen slot and its identifier (threaded through
// the route so the next hop never loads ids[cur]).
struct StepResult {
  NodeSlot next = kNoSlot;
  std::uint64_t next_id = 0;
};

// Warms the next hop's sequential working set: the cached-id row (and
// successor-id row), the only per-hop streams the ring kernel scans.
template <typename Id>
inline void prefetch_ring_row(const ChurnKernelCtx<Id>& c, NodeSlot slot) {
  constexpr int kIdBytes = sizeof(Id);
  const auto* row =
      reinterpret_cast<const char*>(c.table_id + c.row_base(slot));
  for (int off = 0; off < c.row_width * kIdBytes; off += 64) {
    __builtin_prefetch(row + off);
  }
  if (c.s > 0) {
    const auto* succ = reinterpret_cast<const char*>(
        c.successors_id + c.successor_base(slot));
    for (int off = 0; off < c.s * kIdBytes; off += 64) {
      __builtin_prefetch(succ + off);
    }
  }
}

// Warms the first bucket the next XOR hop will read -- its index is a
// pure function of the new distance -- in the cached-id row.
template <typename Id>
inline void prefetch_xor_bucket(const ChurnKernelCtx<Id>& c, NodeSlot slot,
                                std::uint64_t cur_id,
                                std::uint64_t target_id) {
  const std::uint64_t distance = cur_id ^ target_id;
  if (distance == 0) {
    return;
  }
  const int d = c.row_width / c.bucket_k;
  const std::uint64_t base =
      c.row_base(slot) +
      static_cast<std::uint64_t>(d - std::bit_width(distance)) *
          static_cast<std::uint64_t>(c.bucket_k);
  constexpr int kIdsPerLine = 64 / static_cast<int>(sizeof(Id));
  for (int cell = 0; cell < c.bucket_k; cell += kIdsPerLine) {
    __builtin_prefetch(&c.table_id[base + static_cast<std::uint64_t>(cell)]);
  }
}

// Chord / Symphony: greedy clockwise without overshoot over the table row
// plus the successor list -- the list entries are ordinary candidate
// edges, so they both repair deep progress (a dead finger's gap) and
// guarantee the last hops.  Progress comes from the cached install-time
// ids (one sequential row scan, no pointer chasing): admissible candidates
// are probed in decreasing-progress order against the packed epoch
// structure, and a failed probe simply excludes the candidate -- for a
// valid entry the cached id IS the current id, and ties in progress are
// only possible against invalid entries (present ids are distinct), so
// the surviving pick equals the historical current-id kernel's bit for
// bit.  Empty cells carry the owner's own id: progress 0, inadmissible.
//
// Progress runs at the id columns' width: with Id = u32 (bits <= 32) every
// id and the key mask fit, and (a - b) mod 2^bits depends only on a and b
// mod 2^bits, so the narrow lattice orders candidates exactly like the
// 64-bit one.

// Fills cur's progress lattice -- cells 0 .. row_width-1 are the table
// row, the next s the successor list -- and returns the distance to the
// target.
template <typename Id>
inline Id fill_progress(const ChurnKernelCtx<Id>& c, NodeSlot cur,
                        std::uint64_t cur_id, std::uint64_t target_id,
                        Id* progress) {
  const auto mask = static_cast<Id>(c.key_mask);
  const auto cur_key = static_cast<Id>(cur_id);
  const std::uint64_t row_base = c.row_base(cur);
  const std::uint64_t succ_base = c.successor_base(cur);
  for (int j = 0; j < c.row_width; ++j) {
    progress[j] =
        (c.table_id[row_base + static_cast<std::uint64_t>(j)] - cur_key) &
        mask;
  }
  for (int t = 0; t < c.s; ++t) {
    progress[c.row_width + t] =
        (c.successors_id[succ_base + static_cast<std::uint64_t>(t)] -
         cur_key) &
        mask;
  }
  return (static_cast<Id>(target_id) - cur_key) & mask;
}

// The max-progress admissible lattice cell, or -1.  Admissible:
// 1 <= p <= distance, as the single wrap-around compare p - 1 < distance
// (p = 0 wraps past every distance <= the mask).
template <typename Id>
inline int best_admissible(const ChurnKernelCtx<Id>& c, const Id* progress,
                           Id distance) {
  const int m = c.row_width + c.s;
  Id best = 0;
  int bj = -1;
  for (int j = 0; j < m; ++j) {
    const Id p = progress[j];
    if (p - 1 < distance && p > best) {
      best = p;
      bj = j;
    }
  }
  return bj;
}

// Probes admissible cells in decreasing-progress order: the first valid
// entry is the hop; a failed probe excludes its cell and rescans.  No hop
// once none is left.
template <typename Id>
inline StepResult step_clockwise(const ChurnKernelCtx<Id>& c, NodeSlot cur,
                                 std::uint64_t cur_id,
                                 std::uint64_t target_id) {
  Id progress[kMaxCandidates];
  const Id distance = fill_progress(c, cur, cur_id, target_id, progress);
  for (int j = best_admissible(c, progress, distance); j >= 0;
       j = best_admissible(c, progress, distance)) {
    // Cell j lives in the table row or, past row_width, the successor list.
    const bool in_row = j < c.row_width;
    const std::uint64_t off =
        in_row ? c.row_base(cur) + static_cast<std::uint64_t>(j)
               : c.successor_base(cur) +
                     static_cast<std::uint64_t>(j - c.row_width);
    const NodeSlot entry = in_row ? c.table[off] : c.successors[off];
    const std::uint32_t gen =
        in_row ? c.table_gen[off] : c.successors_gen[off];
    // Overlap the next hop's row-map load with this validity probe
    // (admissible candidates are never empty cells, so entry is a slot).
    __builtin_prefetch(&c.row_of[entry]);
    if (ctx_entry_valid(c, entry, gen)) {
      return {entry, in_row ? c.table_id[off] : c.successors_id[off]};
    }
    progress[j] = 0;  // dead candidate: exclude and rescan
  }
  return {};
}

// Kademlia: walk the differing levels highest order first; within a
// bucket, probe the k cells head first (the longest-lived contacts --
// Kademlia's LRU preference, which heavy-tailed sessions reward); the
// first contact strictly closer in XOR distance by its cached id AND
// valid under the epoch probe wins -- the same first cell as the
// historical kernel, since a valid entry's cached id is its current id.
// The successor list is the sibling-list fallback: its entries are
// admissible whenever they are strictly closer, which covers the endgame
// where the deep buckets have decayed (an entry equal to cur, or an empty
// cell carrying the owner's id, has equal distance and falls out of the
// strict compare).  bucket_k = 1 reads exactly the pre-k cells.
template <typename Id>
inline StepResult step_xor(const ChurnKernelCtx<Id>& c, NodeSlot cur,
                           std::uint64_t cur_id, std::uint64_t target_id) {
  const std::uint64_t cur_distance = cur_id ^ target_id;
  const std::uint64_t row_base = c.row_base(cur);
  const int d = c.row_width / c.bucket_k;
  std::uint64_t diff = cur_distance;
  while (diff != 0) {
    const int bw = std::bit_width(diff);
    const std::uint64_t bucket_base =
        row_base +
        static_cast<std::uint64_t>(d - bw) *
            static_cast<std::uint64_t>(c.bucket_k);  // bucket d - bw + 1
    for (int cell = 0; cell < c.bucket_k; ++cell) {
      const std::uint64_t j = bucket_base + static_cast<std::uint64_t>(cell);
      const std::uint64_t eid = c.table_id[j];
      if ((eid ^ target_id) < cur_distance &&
          ctx_entry_valid(c, c.table[j], c.table_gen[j])) {
        return {c.table[j], eid};
      }
    }
    diff &= ~(std::uint64_t{1} << (bw - 1));
  }
  const std::uint64_t succ_base = c.successor_base(cur);
  for (int t = 0; t < c.s; ++t) {
    const std::uint64_t j = succ_base + static_cast<std::uint64_t>(t);
    const std::uint64_t eid = c.successors_id[j];
    if ((eid ^ target_id) < cur_distance &&
        ctx_entry_valid(c, c.successors[j], c.successors_gen[j])) {
      return {c.successors[j], eid};
    }
  }
  return {};
}

template <typename Id>
using StepFn = StepResult (*)(const ChurnKernelCtx<Id>&, NodeSlot,
                              std::uint64_t, std::uint64_t);

template <typename Id>
StepFn<Id> step_kernel(SparseChurnGeometry geometry) {
  return geometry == SparseChurnGeometry::kKademlia ? &step_xor<Id>
                                                    : &step_clockwise<Id>;
}

// The per-hop hook of a route that observes nothing; compiles away.
struct NoHop {
  void operator()(NodeSlot /*from*/, const StepResult& /*next*/) const {}
};

// One route against a frozen (sync) or moving (in-flight) world -- the
// shared single-route core behind measure_reference(), measure_inflight()
// and trace_route().  `step` is one of the kernels above.  `on_hop(from,
// next)` runs after every completed hop: the in-flight lifecycle advance,
// or the forensics recorder (the reference path passes NoHop).  kInflight
// adds the holder-departure check.  Load (when `load` is non-null) is
// bumped for the holding slot of every forward, before the step -- a
// dropped route charges the node that had no admissible hop, matching the
// historical accounting; outcomes are recorded into `rec` when non-null.
template <bool kInflight, typename Id, typename OnHop>
RouteStatus route_one(const ChurnKernelCtx<Id>& c, StepFn<Id> step,
                      NodeSlot source, std::uint64_t source_id,
                      NodeSlot target, std::uint64_t target_id,
                      std::uint64_t max_hops, std::uint64_t* load,
                      sparse::SparseEstimate* rec, OnHop&& on_hop) {
  NodeSlot cur = source;
  std::uint64_t cur_id = source_id;
  std::uint64_t hops = 0;
  for (;;) {
    if constexpr (kInflight) {
      if (!ctx_slot_alive(c, cur)) {
        // The node holding the message departed between hops -- the
        // mid-flight loss the round-synchronous mode cannot express.
        if (rec != nullptr) {
          rec->record_drop(obs::RouteFailure::kHolderDeparted);
        }
        return RouteStatus::kDropped;
      }
    }
    if (cur == target) {
      if (rec != nullptr) {
        rec->record_arrival(hops);
      }
      return RouteStatus::kArrived;
    }
    if (hops >= max_hops) {
      if (rec != nullptr) {
        rec->record_hop_limit();
      }
      return RouteStatus::kHopLimit;
    }
    if (load != nullptr) {
      ++load[cur];
    }
    const StepResult next = step(c, cur, cur_id, target_id);
    if (next.next == kNoSlot) {
      if (rec != nullptr) {
        rec->record_drop(classify_drop(c, cur));
      }
      return RouteStatus::kDropped;
    }
    on_hop(cur, next);
    cur = next.next;
    cur_id = next.next_id;
    ++hops;
  }
}

// The sync churn engine's lane policy over the shared driver
// (sim/lanes.hpp); kXor picks the geometry's kernel at compile time, and
// `refill` and `retire` are the caller's GET worklist.  `step` charges
// each active lane's holder one forward -- a plain add: a world is
// single-threaded -- records the lane's pre-step slot, so a retired drop
// can be classified at the node that had no admissible hop (a drop
// overwrites cur with the kNoSlot sentinel, erasing it), takes one hop
// through the scalar kernel route_one also uses, and prefetches the new
// hop's row unless the lane has arrived.  Identical accounting to
// route_one: a lane is charged before the step that drops it and not for
// the turn it retires on.  `dist` carries the lane's current-hop id.
//
// One kernel per geometry costs the sync route layer some overlap: a
// two-phase ring step that scanned all eight lanes' rows before probing
// any candidate kept their probe misses in flight together.  Without it,
// benchmark/run.py's churn.route_ns_per_route.sync read 3418 ns against
// 3121 (median of 10 alternated pairs, 4-vCPU Xeon VM, GCC 12), about
// 0.6% of a churn_sync pass, whose run_s did not rise.
template <bool kXor, typename Id, typename Refill, typename Retire>
struct ChurnLanes : sim::NoShortcut {
  const ChurnKernelCtx<Id>& c;
  std::uint64_t* load;
  Refill refill;
  Retire on_retire;
  NodeSlot last_cur[Lanes::kLanes] = {};

  void retire(const Lanes& b, int l, RouteStatus status) {
    on_retire(b, l, status, last_cur[l]);
  }

  void step(Lanes& b) {
    for (int l = 0; l < Lanes::kLanes; ++l) {
      if (b.active[l] == 0) {
        continue;
      }
      const NodeSlot cur = b.cur[l];
      ++load[cur];
      last_cur[l] = cur;
      const StepResult hop =
          kXor ? step_xor(c, cur, b.dist[l], b.target_id[l])
               : step_clockwise(c, cur, b.dist[l], b.target_id[l]);
      b.cur[l] = hop.next;  // kNoSlot on a dead end: the drop sentinel
      if (hop.next == kNoSlot) {
        continue;
      }
      b.dist[l] = hop.next_id;
      ++b.hops[l];
      if (hop.next == b.target[l]) {
        continue;
      }
      if constexpr (kXor) {
        prefetch_xor_bucket(c, hop.next, hop.next_id, b.target_id[l]);
      } else {
        prefetch_ring_row(c, hop.next);
      }
    }
  }
};

}  // namespace dht::churn::detail
