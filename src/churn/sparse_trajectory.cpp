#include "churn/sparse_trajectory.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/memory.hpp"
#include "common/strfmt.hpp"
#include "sim/shard_pool.hpp"
#include "sparse/flat_sparse.hpp"

namespace dht::churn {

namespace {

namespace flat = sparse::flat;
using flat::RouteBatch;
using flat::SparseRouteStatus;

// Upper bound on a greedy-ring candidate set: the table row (<= 63
// entries; bits <= 63, shortcuts capped at 64) plus the successor list
// (capped at 64) -- enforced by checked_config so the per-hop progress
// lattice fits on the stack.
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
// successor-id row), the only per-hop streams the ring kernels scan.
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
template <typename Id>
inline StepResult step_clockwise(const ChurnKernelCtx<Id>& c, NodeSlot cur,
                                 std::uint64_t cur_id,
                                 std::uint64_t target_id) {
  const auto mask = static_cast<Id>(c.key_mask);
  const auto cur_key = static_cast<Id>(cur_id);
  const Id distance = (static_cast<Id>(target_id) - cur_key) & mask;
  const std::uint64_t row_base = c.row_base(cur);
  const std::uint64_t succ_base = c.successor_base(cur);
  const int m = c.row_width + c.s;
  Id progress[kMaxCandidates];
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
  for (;;) {
    // Admissible: 1 <= p <= distance, as the single wrap-around compare
    // p - 1 < distance (p = 0 wraps past every distance <= the mask).
    Id best = 0;
    int bj = -1;
    for (int j = 0; j < m; ++j) {
      const Id p = progress[j];
      if (p - 1 < distance && p > best) {
        best = p;
        bj = j;
      }
    }
    if (bj < 0) {
      return {};
    }
    const bool in_row = bj < c.row_width;
    const std::uint64_t off =
        in_row ? row_base + static_cast<std::uint64_t>(bj)
               : succ_base + static_cast<std::uint64_t>(bj - c.row_width);
    const NodeSlot entry = in_row ? c.table[off] : c.successors[off];
    const std::uint32_t gen =
        in_row ? c.table_gen[off] : c.successors_gen[off];
    if (ctx_entry_valid(c, entry, gen)) {
      return {entry, in_row ? c.table_id[off] : c.successors_id[off]};
    }
    progress[bj] = 0;  // dead candidate: exclude and rescan
  }
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
// and trace_route().  `step` is one of the scalar kernels above.
// `on_hop(from, next)` runs after every completed hop: the in-flight
// lifecycle advance, or the forensics recorder (sync measurement passes
// NoHop).  kInflight adds the holder-departure check.  Load (when `load` is
// non-null) is bumped for the holding slot of every forward, before the
// step -- a dropped route charges the node that had no admissible hop,
// matching the historical accounting; outcomes are recorded into `rec`
// when non-null.
template <bool kInflight, typename Id, typename OnHop>
SparseRouteStatus route_one(const ChurnKernelCtx<Id>& c, StepFn<Id> step,
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
        return SparseRouteStatus::kDropped;
      }
    }
    if (cur == target) {
      if (rec != nullptr) {
        rec->record_arrival(hops);
      }
      return SparseRouteStatus::kArrived;
    }
    if (hops >= max_hops) {
      if (rec != nullptr) {
        rec->record_hop_limit();
      }
      return SparseRouteStatus::kHopLimit;
    }
    if (load != nullptr) {
      ++load[cur];
    }
    const StepResult next = step(c, cur, cur_id, target_id);
    if (next.next == kNoSlot) {
      if (rec != nullptr) {
        rec->record_drop(classify_drop(c, cur));
      }
      return SparseRouteStatus::kDropped;
    }
    on_hop(cur, next);
    cur = next.next;
    cur_id = next.next_id;
    ++hops;
  }
}

// One greedy-ring hop for every active lane, phased like the static
// engine's batch kernels: (A) scan each lane's cached-id row (prefetched
// a batch turn ahead) into a progress lattice and pick the max-progress
// admissible candidate, (B) probe candidates against the packed epoch
// structure, excluding failures and rescanning -- ~2 expected probes per
// hop under churn vs the historical kernel's row_width + s pointer
// chases.  b.dist carries the lane's current-hop id.
template <typename Id>
inline void step_batch_ring(const ChurnKernelCtx<Id>& c, RouteBatch& b) {
  constexpr int kLanes = RouteBatch::kLanes;
  Id progress[kLanes][kMaxCandidates];
  Id dist[kLanes];
  int cand[kLanes];
  const int m = c.row_width + c.s;
  const auto mask = static_cast<Id>(c.key_mask);
  for (int l = 0; l < kLanes; ++l) {
    if (b.active[l] == 0) {
      continue;
    }
    const NodeSlot cur = b.cur[l];
    const auto cur_key = static_cast<Id>(b.dist[l]);
    dist[l] = (static_cast<Id>(b.target_id[l]) - cur_key) & mask;
    const std::uint64_t row_base = c.row_base(cur);
    const std::uint64_t succ_base = c.successor_base(cur);
    Id* prog = progress[l];
    for (int j = 0; j < c.row_width; ++j) {
      prog[j] =
          (c.table_id[row_base + static_cast<std::uint64_t>(j)] - cur_key) &
          mask;
    }
    for (int t = 0; t < c.s; ++t) {
      prog[c.row_width + t] =
          (c.successors_id[succ_base + static_cast<std::uint64_t>(t)] -
           cur_key) &
          mask;
    }
    Id best = 0;
    int bj = -1;
    for (int j = 0; j < m; ++j) {
      const Id p = prog[j];
      if (p - 1 < dist[l] && p > best) {
        best = p;
        bj = j;
      }
    }
    cand[l] = bj;
    if (bj >= 0) {
      // Warm the candidate's entry + stamp for phase B while the other
      // lanes' scans provide latency cover.
      const std::uint64_t off =
          bj < c.row_width
              ? row_base + static_cast<std::uint64_t>(bj)
              : succ_base + static_cast<std::uint64_t>(bj - c.row_width);
      __builtin_prefetch(bj < c.row_width ? &c.table[off]
                                          : &c.successors[off]);
      __builtin_prefetch(bj < c.row_width ? &c.table_gen[off]
                                          : &c.successors_gen[off]);
    }
  }
  for (int l = 0; l < kLanes; ++l) {
    if (b.active[l] == 0) {
      continue;
    }
    const NodeSlot cur = b.cur[l];
    const std::uint64_t row_base = c.row_base(cur);
    const std::uint64_t succ_base = c.successor_base(cur);
    Id* prog = progress[l];
    int bj = cand[l];
    for (;;) {
      if (bj < 0) {
        b.cur[l] = kNoSlot;  // dead end: the drop sentinel
        break;
      }
      const bool in_row = bj < c.row_width;
      const std::uint64_t off =
          in_row ? row_base + static_cast<std::uint64_t>(bj)
                 : succ_base + static_cast<std::uint64_t>(bj - c.row_width);
      const NodeSlot entry = in_row ? c.table[off] : c.successors[off];
      const std::uint32_t gen =
          in_row ? c.table_gen[off] : c.successors_gen[off];
      // Overlap the next hop's row-map load with this validity probe
      // (admissible candidates are never empty cells, so entry is a slot).
      __builtin_prefetch(&c.row_of[entry]);
      if (ctx_entry_valid(c, entry, gen)) {
        b.cur[l] = entry;
        b.dist[l] = in_row ? c.table_id[off] : c.successors_id[off];
        ++b.hops[l];
        if (entry != b.target[l]) {
          prefetch_ring_row(c, entry);
        }
        break;
      }
      prog[bj] = 0;
      Id best = 0;
      bj = -1;
      for (int j = 0; j < m; ++j) {
        const Id p = prog[j];
        if (p - 1 < dist[l] && p > best) {
          best = p;
          bj = j;
        }
      }
    }
  }
}

// One XOR hop for every active lane: phase A walks the differing levels
// over the cached-id row alone -- sequential, no liveness loads -- to the
// first strictly-closer cell and warms it; phase B probes that cell and
// falls back to the full scalar step on a stale candidate (the re-walk
// probes the same cells in the same order, so the pick is unchanged).  A
// lane with no cached-closer cell anywhere holds no valid closer entry at
// all (valid entries' cached ids are current) and drops without a single
// random load.
template <typename Id>
inline void step_batch_xor(const ChurnKernelCtx<Id>& c, RouteBatch& b) {
  constexpr int kLanes = RouteBatch::kLanes;
  constexpr std::uint64_t kNoCand = ~std::uint64_t{0};
  std::uint64_t cand[kLanes];  // (offset << 1) | is_successor
  for (int l = 0; l < kLanes; ++l) {
    if (b.active[l] == 0) {
      continue;
    }
    const std::uint64_t target = b.target_id[l];
    const std::uint64_t cur_distance = b.dist[l] ^ target;
    const std::uint64_t row_base = c.row_base(b.cur[l]);
    const int d = c.row_width / c.bucket_k;
    std::uint64_t diff = cur_distance;
    std::uint64_t found = kNoCand;
    while (diff != 0 && found == kNoCand) {
      const int bw = std::bit_width(diff);
      const std::uint64_t bucket_base =
          row_base + static_cast<std::uint64_t>(d - bw) *
                         static_cast<std::uint64_t>(c.bucket_k);
      for (int cell = 0; cell < c.bucket_k; ++cell) {
        const std::uint64_t j =
            bucket_base + static_cast<std::uint64_t>(cell);
        if ((c.table_id[j] ^ target) < cur_distance) {
          found = j << 1;
          break;
        }
      }
      diff &= ~(std::uint64_t{1} << (bw - 1));
    }
    if (found == kNoCand) {
      const std::uint64_t succ_base = c.successor_base(b.cur[l]);
      for (int t = 0; t < c.s; ++t) {
        const std::uint64_t j = succ_base + static_cast<std::uint64_t>(t);
        if ((c.successors_id[j] ^ target) < cur_distance) {
          found = (j << 1) | 1;
          break;
        }
      }
    }
    cand[l] = found;
    if (found != kNoCand) {
      const std::uint64_t j = found >> 1;
      __builtin_prefetch((found & 1) != 0 ? &c.successors[j] : &c.table[j]);
      __builtin_prefetch((found & 1) != 0 ? &c.successors_gen[j]
                                          : &c.table_gen[j]);
    }
  }
  for (int l = 0; l < kLanes; ++l) {
    if (b.active[l] == 0) {
      continue;
    }
    if (cand[l] == kNoCand) {
      b.cur[l] = kNoSlot;  // no closer contact exists: drop
      continue;
    }
    const std::uint64_t j = cand[l] >> 1;
    const bool in_succ = (cand[l] & 1) != 0;
    const NodeSlot entry = in_succ ? c.successors[j] : c.table[j];
    const std::uint32_t gen =
        in_succ ? c.successors_gen[j] : c.table_gen[j];
    // Overlap the next hop's row-map load with this validity probe (a
    // strictly closer cached id is never an empty cell's, so entry is a
    // slot).
    __builtin_prefetch(&c.row_of[entry]);
    StepResult hop;
    if (ctx_entry_valid(c, entry, gen)) {
      hop = {entry, in_succ ? c.successors_id[j] : c.table_id[j]};
    } else {
      // Stale head candidate: resolve the lane with the full scalar walk
      // (it skips the failed cell via the same probe and continues).
      hop = step_xor(c, b.cur[l], b.dist[l], b.target_id[l]);
    }
    if (hop.next == kNoSlot) {
      b.cur[l] = kNoSlot;
      continue;
    }
    b.cur[l] = hop.next;
    b.dist[l] = hop.next_id;
    ++b.hops[l];
    if (hop.next != b.target[l]) {
      prefetch_xor_bucket(c, hop.next, hop.next_id, b.target_id[l]);
    }
  }
}

// The lane driver of the batched sync path (the drive_lanes shape of the
// static engine): retire every terminal lane -- drop sentinel, arrival,
// hop cap -- refill it from the pair source, then charge each active
// lane's holder one forward and advance all lanes one hop.  Identical
// accounting to route_one: a lane is charged before the step that drops
// it and not for the turn it retires on.  `retire` additionally receives
// the lane's pre-step slot -- the node that had no admissible hop -- so a
// drop can be classified (the batch kernels overwrite cur with the kNoSlot
// sentinel, erasing the dropping slot).
template <typename Id, typename StepBatch, typename Refill, typename Retire>
void drive_churn_lanes(const ChurnKernelCtx<Id>& c, std::uint64_t max_hops,
                       std::uint64_t* load, StepBatch&& step_batch,
                       Refill&& refill, Retire&& retire) {
  RouteBatch b;
  NodeSlot last_cur[RouteBatch::kLanes] = {};
  int active = 0;
  for (int l = 0; l < RouteBatch::kLanes; ++l) {
    b.active[l] = refill(b, l) ? 1 : 0;
    active += b.active[l];
  }
  while (active > 0) {
    for (int l = 0; l < RouteBatch::kLanes; ++l) {
      while (b.active[l] != 0) {
        SparseRouteStatus status;
        if (b.cur[l] == kNoSlot) {
          status = SparseRouteStatus::kDropped;
        } else if (b.cur[l] == b.target[l]) {
          status = SparseRouteStatus::kArrived;
        } else if (b.hops[l] >= max_hops) {
          status = SparseRouteStatus::kHopLimit;
        } else {
          break;
        }
        retire(b, l, status, last_cur[l]);
        if (!refill(b, l)) {
          b.active[l] = 0;
          --active;
        }
      }
    }
    if (active == 0) {
      break;
    }
    for (int l = 0; l < RouteBatch::kLanes; ++l) {
      if (b.active[l] != 0) {
        ++load[b.cur[l]];
        last_cur[l] = b.cur[l];
      }
    }
    step_batch(c, b);
  }
}

// Visits present slots in ascending order by scanning the packed alive
// bitmap one u64 word at a time (countr_zero per member) -- the flattened
// replacement for full-capacity presence scans.  Visit order is identical
// to `for slot < capacity: if present`, so every rng and accumulation
// stream downstream is unchanged.  The callback must not change presence.
template <typename Fn>
void for_each_alive(const SparseMembership& membership, Fn&& fn) {
  const std::uint64_t* words = membership.alive_bits_data();
  const std::uint64_t nwords = membership.alive_words();
  for (std::uint64_t w = 0; w < nwords; ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const auto b = static_cast<std::uint64_t>(std::countr_zero(bits));
      fn(static_cast<NodeSlot>((w << 6) + b));
      bits &= bits - 1;
    }
  }
}

// Rejects a config whose `worlds` live replicas cannot fit in physical
// memory, naming the knobs that size a world.
void check_footprint(SparseChurnGeometry geometry,
                     const SparseChurnConfig& config, std::uint64_t worlds) {
  const std::uint64_t per_world =
      SparseChurnWorld::footprint_bytes(geometry, config);
  const std::uint64_t total = common::saturating_mul(per_world, worlds);
  const std::uint64_t physical = common::physical_memory_bytes();
  DHT_CHECK(total <= physical,
            strfmt("%llu live sparse churn world(s) need %llu bytes (%llu "
                   "each) but the host has %llu bytes of physical memory; "
                   "lower capacity (n0), bits, bucket_k (--k) or shortcuts, "
                   "or run fewer threads",
                   static_cast<unsigned long long>(worlds),
                   static_cast<unsigned long long>(total),
                   static_cast<unsigned long long>(per_world),
                   static_cast<unsigned long long>(physical)));
}

// Validates the config ahead of every allocation -- value ranges, then the
// footprint of `live_worlds` worlds -- and passes it through.  The world's
// first member initializer runs this.
SparseChurnConfig checked_config(const SparseChurnConfig& config,
                                 SparseChurnGeometry geometry,
                                 std::uint64_t live_worlds) {
  DHT_CHECK(config.bits >= 1 && config.bits <= 63,
            "sparse churn supports 1 <= bits <= 63");
  DHT_CHECK(config.successors >= 0 && config.successors <= 64,
            "successor-list length must be in [0, 64]");
  DHT_CHECK(config.bucket_k >= 1 && config.bucket_k <= 64,
            "kademlia bucket width must be in [1, 64]");
  DHT_CHECK(config.replicas >= 1 && config.replicas <= 64,
            "replication factor must be in [1, 64]");
  DHT_CHECK(std::isfinite(config.zipf_s) && config.zipf_s >= 0.0,
            "workload zipf skew must be finite and >= 0");
  DHT_CHECK(config.objects <= (std::uint64_t{1} << 26),
            "workload object count exceeds the 2^26 population cap");
  if (geometry == SparseChurnGeometry::kSymphony) {
    // The upper cap (with bits <= 63 and the successor cap above) keeps
    // every routing row + successor list within kMaxCandidates, so the
    // kernels' per-hop progress lattices live on the stack.
    DHT_CHECK(config.shortcuts >= 1 && config.shortcuts <= 64,
              "symphony shortcut count must be in [1, 64]");
  }
  check_footprint(geometry, config, live_worlds);
  return config;
}

}  // namespace

bool sparse_churn_geometry_from_name(std::string_view name,
                                     SparseChurnGeometry& out) {
  if (name == "ring") {
    out = SparseChurnGeometry::kChord;
    return true;
  }
  if (name == "xor") {
    out = SparseChurnGeometry::kKademlia;
    return true;
  }
  if (name == "symphony") {
    out = SparseChurnGeometry::kSymphony;
    return true;
  }
  return false;
}

const char* to_string(SparseChurnGeometry geometry) noexcept {
  switch (geometry) {
    case SparseChurnGeometry::kChord:
      return "ring";
    case SparseChurnGeometry::kKademlia:
      return "xor";
    case SparseChurnGeometry::kSymphony:
      return "symphony";
  }
  return "?";
}

std::uint64_t capacity_for_population(std::uint64_t population,
                                      const ChurnParams& params) {
  const double a = availability(params);
  auto capacity = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(population) / a));
  // Clamp into SparseMembership's supported roster range: a derived
  // capacity above the 2^26 per-slot-state cap would otherwise throw from
  // inside a sweep's shard pool, discarding every computed grid point.
  capacity = std::min(capacity, std::uint64_t{1} << 26);
  return capacity < 2 ? 2 : capacity;
}

SparseChurnWorld::SparseChurnWorld(SparseChurnGeometry geometry,
                                   const SparseChurnConfig& config,
                                   const ChurnParams& params,
                                   double repair_probability,
                                   std::uint64_t max_hops,
                                   const math::Rng& rng)
    : geometry_(geometry),
      config_(checked_config(config, geometry, /*live_worlds=*/1)),
      params_(params),
      repair_probability_(repair_probability),
      max_hops_(max_hops == 0 ? config.capacity : max_hops),
      session_(params, config.session),
      lifecycle_rng_(rng.fork(1)),
      table_rng_(rng.fork(2)),
      measure_rng_(rng.fork(3)),
      id_rng_(rng.fork(4)),
      membership_(config.bits, config.capacity),
      rows_(geometry, config) {
  const double a = availability(params);  // validates the lifecycle rates
  DHT_CHECK(repair_probability >= 0.0 && repair_probability <= 1.0,
            "repair probability must be in [0, 1]");
  const std::uint64_t capacity = membership_.capacity();
  joined_at_.assign(capacity, 0);
  load_.assign(capacity, 0);
  if (workload_enabled()) {
    zipf_.emplace(object_count(), config_.zipf_s);
  }
  // Stationary membership: each slot present w.p. a, like the dense world's
  // stationary liveness -- the dense-limit oracle depends on the two
  // lifecycle processes being the same slot-level chain.  (The Pareto
  // calibration pins the mean session to 1/pd, so `a` is the geometric
  // availability for every session model.)  Heavy-tailed sessions also
  // draw a stationary session age per initial member -- the age-dependent
  // hazard starts in steady state; geometric sessions are memoryless and
  // skip the draw, keeping the historical rng stream bit for bit.
  joiners_.clear();
  for (NodeSlot slot = 0; slot < capacity; ++slot) {
    if (lifecycle_rng_.bernoulli(a)) {
      joiners_.push_back(slot);
      if (!session_.geometric()) {
        joined_at_[slot] = -session_.sample_stationary_age(lifecycle_rng_);
      }
    }
  }
  membership_.join(joiners_, id_rng_);
  membership_.commit();
  total_joins_ += joiners_.size();
  rows_.acquire(joiners_);
  for_each_alive(membership_, [&](NodeSlot slot) { rebuild_node(slot); });
  // Stagger refresh phases so entry ages start uniform over 0..R-1,
  // matching the q_eff derivation (and the dense world's construction).
  const auto interval =
      static_cast<std::uint64_t>(params_.refresh_interval);
  for_each_alive(membership_, [&](NodeSlot slot) {
    const std::uint64_t base = rows_.row_offset(slot);
    for (int j = 0; j < rows_.row_width(); ++j) {
      rows_.set_stamp(
          base + static_cast<std::uint64_t>(j),
          -static_cast<std::int32_t>(table_rng_.uniform_below(interval)));
    }
    if (config_.successors > 0) {
      rows_.set_successors_refreshed_at(
          slot, -static_cast<std::int32_t>(table_rng_.uniform_below(interval)));
    }
  });
}

std::uint64_t SparseChurnWorld::footprint_bytes(
    SparseChurnGeometry geometry, const SparseChurnConfig& config) {
  // joined_at_ and load_: one i64 and one u64 per slot.
  const std::uint64_t world_slot_bytes =
      common::saturating_mul(config.capacity, 2 * sizeof(std::uint64_t));
  return common::saturating_add(
      common::saturating_add(ChurnRows::bytes_for(geometry, config),
                             SparseMembership::bytes_for(config.bits,
                                                         config.capacity)),
      world_slot_bytes);
}

void SparseChurnWorld::audit() const {
  membership_.audit();
  rows_.audit(membership_, round_, params_.refresh_interval,
              /*due_bound=*/repair_probability_ == 0.0);
}

bool SparseChurnWorld::entry_valid(NodeSlot entry,
                                   std::uint32_t generation) const {
  // Probe the packed alive bitmap rather than the byte mask: the bitmap
  // for a full-sized roster is 16 KiB (L1-resident under the maintenance
  // sweeps' random slot access), the byte mask 64x that.
  return entry != kNoSlot &&
         (membership_.alive_bits_data()[entry >> 6] >> (entry & 63) & 1) !=
             0 &&
         membership_.generation(entry) == generation;
}

void SparseChurnWorld::refresh_entry(NodeSlot slot, int index) {
  const std::uint64_t id = membership_.id_of(slot);
  const std::uint64_t mask = membership_.key_mask();
  const std::uint64_t offset =
      rows_.row_offset(slot) + static_cast<std::uint64_t>(index);
  NodeSlot chosen = kNoSlot;
  switch (geometry_) {
    case SparseChurnGeometry::kChord: {
      // Finger i = index+1 points at successor(id + 2^{d-i}).
      const std::uint64_t key =
          (id + (std::uint64_t{1} << (config_.bits - index - 1))) & mask;
      chosen = membership_.successor_of_key(key);
      break;
    }
    case SparseChurnGeometry::kKademlia: {
      // Cell `index % k` of bucket `index / k + 1`; every cell re-draws a
      // uniform bucket member, so k = 1 consumes the pre-k stream exactly.
      const auto [lo, hi] = kademlia_bucket_range(
          id, index / config_.bucket_k + 1, config_.bits);
      const auto [first, last] = membership_.order_range(lo, hi);
      if (first < last) {
        chosen = membership_.slot_at(
            first + table_rng_.uniform_below(last - first));
      }
      break;
    }
    case SparseChurnGeometry::kSymphony: {
      // Harmonic key-distance draw, linked to the key's current owner;
      // re-draw when it degenerates to the node itself.  This is the
      // shortcut re-draw semantics the dense trajectory engine lacks: the
      // sparse world re-draws the *key* and resolves it against the
      // current membership.
      const std::uint64_t keys = membership_.key_space_size();
      const double log_range =
          std::log(static_cast<double>(keys - 1));
      NodeSlot link = slot;
      for (int attempt = 0; attempt < 64 && link == slot; ++attempt) {
        const double u = table_rng_.uniform01();
        std::uint64_t key_offset =
            static_cast<std::uint64_t>(std::exp(u * log_range));
        key_offset = key_offset < 1 ? 1 : key_offset;
        key_offset = key_offset > keys - 1 ? keys - 1 : key_offset;
        link = membership_.successor_of_key((id + key_offset) & mask);
      }
      chosen = link;  // may stay self in degenerate tiny populations
      break;
    }
  }
  rows_.install(offset, chosen, membership_, id,
                static_cast<std::int32_t>(round_));
}

void SparseChurnWorld::rebuild_tables(NodeSlot slot) {
  if (geometry_ == SparseChurnGeometry::kChord) {
    // Bulk finger rebuild -- the join-storm path (every joiner re-derives
    // its whole row, hundreds of millions of entries per trajectory).
    rows_.install_chord_row(slot, membership_,
                            static_cast<std::int32_t>(round_));
    return;
  }
  if (geometry_ == SparseChurnGeometry::kKademlia) {
    // Bulk bucket rebuild: every bucket's range from one narrowing pass,
    // then its k cells drawn from that range in refresh_entry's cell
    // order -- the same draws and writes as refresh_entry per index,
    // without re-searching a bucket once per cell.
    const std::uint64_t id = membership_.id_of(slot);
    const int k = config_.bucket_k;
    membership_.bucket_ranges(id, bucket_ranges_);
    std::uint64_t offset = rows_.row_offset(slot);
    const auto stamp = static_cast<std::int32_t>(round_);
    for (const auto& [first, last] : bucket_ranges_) {
      for (int cell = 0; cell < k; ++cell, ++offset) {
        const NodeSlot chosen =
            first < last ? membership_.slot_at(
                               first + table_rng_.uniform_below(last - first))
                         : kNoSlot;
        rows_.install(offset, chosen, membership_, id, stamp);
      }
    }
    return;
  }
  for (int j = 0; j < rows_.row_width(); ++j) {
    refresh_entry(slot, j);
  }
}

void SparseChurnWorld::rebuild_node(NodeSlot slot) {
  rebuild_tables(slot);
  if (config_.successors > 0) {
    const std::uint64_t own =
        membership_.successor_position(membership_.id_of(slot));
    // First node strictly clockwise.
    rows_.rebuild_successors(slot, membership_, own + 1,
                             static_cast<std::int32_t>(round_));
  }
}

void SparseChurnWorld::announce_join(NodeSlot slot) {
  const std::uint64_t population = membership_.order_size();
  if (population < 2) {
    return;
  }
  const std::uint64_t own =
      membership_.successor_position(membership_.id_of(slot));
  // Chord's notify: the clockwise predecessor learns its new successor
  // immediately (its rebuilt list starts at the joiner).  This is what
  // keeps arrival working under membership turnover -- without it a
  // newcomer is unreachable until its neighborhood refreshes.
  if (config_.successors > 0) {
    const NodeSlot predecessor =
        membership_.slot_at((own + population - 1) % population);
    if (predecessor != slot) {
      rows_.rebuild_successors(predecessor, membership_, own,
                               static_cast<std::int32_t>(round_));
    }
  }
  // Kademlia's join lookup: the joiner installs itself into the matching
  // bucket of its closest peers (deepest shared-prefix levels first),
  // filling entries that are empty or point at departed/recycled nodes.
  // Bucket membership is symmetric -- u in v's level-l bucket iff v in
  // u's -- so the peers are exactly the members of the joiner's own deep
  // buckets.
  if (geometry_ == SparseChurnGeometry::kKademlia && config_.announce > 0) {
    int budget = config_.announce;
    const int k = config_.bucket_k;
    const std::uint64_t id = membership_.id_of(slot);
    membership_.bucket_ranges(id, bucket_ranges_);
    for (int level = config_.bits; level >= 1 && budget > 0; --level) {
      const auto [first, last] =
          bucket_ranges_[static_cast<std::size_t>(level - 1)];
      for (std::uint64_t pos = first; pos < last && budget > 0; ++pos) {
        const NodeSlot peer = membership_.slot_at(pos);
        // The joiner enters the peer's bucket at its first free cell --
        // empty or observed-stale -- i.e. at the tail of the live entries,
        // the newcomer end of the LRU order.  A bucket full of valid
        // contacts ignores the announcement (classic Kademlia keeps its
        // long-lived members).
        const std::uint64_t bucket_base =
            rows_.row_offset(peer) + static_cast<std::uint64_t>(level - 1) *
                                         static_cast<std::uint64_t>(k);
        for (int cell = 0; cell < k; ++cell) {
          const std::uint64_t offset =
              bucket_base + static_cast<std::uint64_t>(cell);
          if (!entry_valid(rows_.entry(offset),
                           rows_.entry_generation(offset))) {
            rows_.install(offset, slot, membership_, id,
                          static_cast<std::int32_t>(round_));
            break;
          }
        }
        --budget;
      }
    }
  }
}

void SparseChurnWorld::maintain_successors(NodeSlot slot) {
  const int s = config_.successors;
  if (s == 0) {
    return;
  }
  bool broken = false;
  NodeSlot first_alive = kNoSlot;
  for (int t = 0; t < s; ++t) {
    const NodeSlot e = rows_.successor(slot, t);
    if (e == slot || !entry_valid(e, rows_.successor_generation(slot, t))) {
      broken = true;
    } else if (first_alive == kNoSlot) {
      first_alive = e;
    }
  }
  if (broken) {
    if (first_alive != kNoSlot) {
      // Consult the list: the first alive entry seeds the repaired list
      // (its current clockwise chain).  Joiners between this node and that
      // entry are picked up by the next scheduled rebuild -- the
      // stabilization lag of real successor lists.
      rows_.rebuild_successors(
          slot, membership_,
          membership_.successor_position(membership_.id_of(first_alive)),
          static_cast<std::int32_t>(round_));
    } else {
      // Every sequential neighbor is gone: fall back to a full rebuild
      // (tables included), the re-join-like recovery path.
      rebuild_node(slot);
    }
  } else if (round_ - rows_.successors_refreshed_at(slot) >=
             params_.refresh_interval) {
    const std::uint64_t own =
        membership_.successor_position(membership_.id_of(slot));
    rows_.rebuild_successors(slot, membership_, own + 1,
                             static_cast<std::int32_t>(round_));
  }
}

// Entry maintenance for the single-contact row geometries (Chord fingers,
// Symphony shortcuts): due refreshes plus the eager-repair channel (an
// entry observed dead is re-pointed with probability rho between scheduled
// refreshes).  Fresh joiner rows are stamped with the current round, so
// they fall through every branch.
void SparseChurnWorld::maintain_entries(NodeSlot slot) {
  if (geometry_ == SparseChurnGeometry::kKademlia) {
    maintain_kademlia_buckets(slot);
    return;
  }
  if (repair_probability_ == 0.0) {
    // Pure lazy refresh consumes no rng during the scan, so a row whose
    // earliest possibly-due round lies in the future can be skipped
    // outright -- the dirty-row worklist that replaces the full-width
    // sweep.  The bound is conservative: stamps only move forward between
    // scans (refreshes and announcements re-stamp with the current
    // round), so a skipped row provably has nothing due.
    if (round_ < rows_.due_round(slot)) {
      return;
    }
    // Two passes so the common case -- scanning a row with nothing or
    // almost nothing due -- is a branch-free strip over the contiguous
    // stamps (row_width <= 64 outside Kademlia, so the due set packs into
    // one word).  Refreshing ascending mask bits then reproduces the
    // interleaved loop exactly: refreshes re-stamp with round_, so the
    // post-scan minimum is min(surviving stamps, round_), and round_ only
    // enters when something was refreshed -- surviving stamps never
    // exceed it.
    const int row_width = rows_.row_width();
    const std::int32_t* stamps = rows_.row_stamps(slot);
    const std::int32_t due_at =
        static_cast<std::int32_t>(round_) -
        static_cast<std::int32_t>(params_.refresh_interval);
    std::uint64_t due = 0;
    std::int32_t min_live = std::numeric_limits<std::int32_t>::max();
    for (int j = 0; j < row_width; ++j) {
      const bool is_due = stamps[j] <= due_at;
      due |= static_cast<std::uint64_t>(is_due) << j;
      min_live = !is_due && stamps[j] < min_live ? stamps[j] : min_live;
    }
    std::int32_t min_stamp = min_live;
    if (due != 0) {
      do {
        refresh_entry(slot, std::countr_zero(due));
        due &= due - 1;
      } while (due != 0);
      min_stamp = std::min(min_live, static_cast<std::int32_t>(round_));
    }
    rows_.set_due_round(
        slot, min_stamp + static_cast<std::int32_t>(params_.refresh_interval));
    return;
  }
  const std::uint64_t row_base = rows_.row_offset(slot);
  for (int j = 0; j < rows_.row_width(); ++j) {
    const std::uint64_t offset = row_base + static_cast<std::uint64_t>(j);
    if (round_ - rows_.stamp(offset) >= params_.refresh_interval) {
      refresh_entry(slot, j);
    } else {
      // Observed-dead covers departed targets AND recycled slots (the
      // node at that address is a different one now) -- both are
      // generation mismatches.
      const NodeSlot entry = rows_.entry(offset);
      if (entry != kNoSlot &&
          !entry_valid(entry, rows_.entry_generation(offset)) &&
          table_rng_.bernoulli(repair_probability_)) {
        refresh_entry(slot, j);
      }
    }
  }
}

// k-bucket maintenance (the Roos et al. LRU discipline): a cell due for
// refresh is re-drawn in place (the scheduled touch); a cell observed dead
// by the rho channel is EVICTED -- the bucket compacts toward the head,
// preserving insertion order, and the freed tail cell is refreshed (the
// replacement enters at the newcomer end).  With k = 1 the compaction is
// empty and both branches collapse onto the single-contact sequence, so
// the pre-k rng stream and tables are reproduced bit for bit.
void SparseChurnWorld::maintain_kademlia_buckets(NodeSlot slot) {
  const int k = config_.bucket_k;
  const std::uint64_t row_base = rows_.row_offset(slot);
  // rho == 0: the scan is rng-free, so the due-round bound applies
  // exactly as in maintain_entries (evictions -- which shift stamps
  // mid-scan -- exist only on the rho > 0 branch, where the bound is
  // never consulted or maintained).
  const bool lazy_only = repair_probability_ == 0.0;
  if (lazy_only && round_ < rows_.due_round(slot)) {
    return;
  }
  std::int32_t min_stamp = std::numeric_limits<std::int32_t>::max();
  for (int b = 0; b < config_.bits; ++b) {
    const std::uint64_t bucket_base =
        row_base + static_cast<std::uint64_t>(b) * static_cast<std::uint64_t>(k);
    for (int cell = 0; cell < k; ++cell) {
      const std::uint64_t offset =
          bucket_base + static_cast<std::uint64_t>(cell);
      if (round_ - rows_.stamp(offset) >= params_.refresh_interval) {
        refresh_entry(slot, b * k + cell);
      } else if (!lazy_only) {
        const NodeSlot entry = rows_.entry(offset);
        if (entry != kNoSlot &&
            !entry_valid(entry, rows_.entry_generation(offset)) &&
            table_rng_.bernoulli(repair_probability_)) {
          rows_.evict(bucket_base, cell, k);
          refresh_entry(slot, b * k + (k - 1));
          // The shifted-in cell keeps its own stamps and gets its next
          // look next round -- each cell is examined once per round.
        }
      }
      min_stamp = std::min(min_stamp, rows_.stamp(offset));
    }
  }
  if (lazy_only) {
    rows_.set_due_round(
        slot, min_stamp + static_cast<std::int32_t>(params_.refresh_interval));
  }
}

// Integrates the joiner cohort collected since the last call: fresh-id
// draw, order-index commit, bootstrap against the committed membership
// (which already includes the whole cohort, mirroring the dense rejoiner
// rebuilds), then announcement (predecessor notify / deep-bucket inserts).
// `commit_always` forces the order-index rebuild even with no joiners --
// the round-boundary contract (departed entries dropped every round); the
// in-flight path skips the O(N) rebuild at joinerless lookup boundaries
// (mid-round the order index may briefly carry departed entries, which
// read as dead through the presence mask like any stale state).
void SparseChurnWorld::integrate_joiners(bool commit_always) {
  // Round-boundary commits (commit_always) also refresh the membership's
  // prefix-seek table: a round of maintenance queries follows and
  // amortizes the rebuild many times over.  The in-flight engine's
  // per-lookup boundary commits skip the rebuild -- their delta is a
  // handful of slots and the next boundary is one lookup away -- at the
  // price of seek windows widened by the membership drift since the last
  // refreshing commit.
  if (joiners_.empty()) {
    if (commit_always) {
      membership_.commit(/*refresh_seek=*/true);
    }
    return;
  }
  membership_.join(joiners_, id_rng_);
  membership_.commit(/*refresh_seek=*/commit_always);
  total_joins_ += joiners_.size();
  rows_.acquire(joiners_);
  for (const NodeSlot slot : joiners_) {
    joined_at_[slot] = round_;
  }
  for (const NodeSlot slot : joiners_) {
    rebuild_node(slot);
  }
  for (const NodeSlot slot : joiners_) {
    announce_join(slot);
  }
  joiners_.clear();
}

// One slot of the fused in-flight sweep: the lifecycle flip, then -- for a
// surviving member -- its round maintenance in place.  Unlike step(),
// where every flip happens before any repair, the world here is genuinely
// un-frozen: a slot's maintenance sees whatever the sweep has already done
// this round.  The lifecycle stream still draws exactly one Bernoulli per
// slot in slot order, so it stays the same sequence as step()'s.
void SparseChurnWorld::lifecycle_and_maintain_slot(NodeSlot slot) {
  if (membership_.present(slot)) {
    if (lifecycle_rng_.bernoulli(
            session_.hazard(static_cast<std::int64_t>(round_) -
                            joined_at_[slot]))) {
      membership_.leave(slot);
      rows_.release(slot);
      ++total_leaves_;
      return;
    }
    if (membership_.order_size() == 0) {
      return;  // order index momentarily empty: nothing to repair against
    }
    maintain_successors(slot);
    maintain_entries(slot);
  } else if (lifecycle_rng_.bernoulli(params_.rebirth_per_round)) {
    joiners_.push_back(slot);
  }
}

void SparseChurnWorld::advance_sweep(std::uint64_t& cursor,
                                     std::uint64_t slots) {
  const std::uint64_t capacity = membership_.capacity();
  const std::uint64_t end =
      slots > capacity - cursor ? capacity : cursor + slots;
  for (; cursor < end; ++cursor) {
    lifecycle_and_maintain_slot(static_cast<NodeSlot>(cursor));
  }
}

void SparseChurnWorld::step() {
  ++round_;
  const std::uint64_t capacity = membership_.capacity();
  // Lifecycle flips first: a slot's decision reads its pre-round state
  // (leave() flips presence in place, but each slot is visited once; join
  // assignment is deferred to the batch below).  The departure draw runs
  // through the session model's age-dependent hazard; geometric sessions
  // have the constant hazard pd, reproducing the historical stream.
  obs::PhaseTimer lifecycle_timer(profile_, obs::Phase::kLifecycle, trace_);
  joiners_.clear();
  for (NodeSlot slot = 0; slot < capacity; ++slot) {
    if (membership_.present(slot)) {
      if (lifecycle_rng_.bernoulli(
              session_.hazard(static_cast<std::int64_t>(round_) -
                              joined_at_[slot]))) {
        membership_.leave(slot);
        rows_.release(slot);
        ++total_leaves_;
      }
    } else if (lifecycle_rng_.bernoulli(params_.rebirth_per_round)) {
      joiners_.push_back(slot);
    }
  }
  lifecycle_timer.stop();
  {
    obs::PhaseTimer commit_timer(profile_, obs::Phase::kMembershipCommit,
                                 trace_);
    integrate_joiners(/*commit_always=*/true);
  }
  // Maintenance for present nodes: successor-list stabilization, due
  // refreshes, and eager repair.  Members are enumerated through the
  // packed alive bitmap (same ascending order as the historical
  // full-capacity presence scan) and rows that provably have nothing due
  // are skipped inside maintain_entries.
  obs::PhaseTimer refresh_timer(profile_, obs::Phase::kRefreshRepair, trace_);
  for_each_alive(membership_, [&](NodeSlot slot) {
    maintain_successors(slot);
    maintain_entries(slot);
  });
}

template <typename Id>
sparse::SparseEstimate SparseChurnWorld::measure_sync(std::uint64_t pairs,
                                                      bool batched) {
  math::Rng& rng = measure_rng_;
  obs::PhaseTimer route_timer(profile_, obs::Phase::kRoute, trace_);
  sparse::SparseEstimate estimate;
  if (membership_.population() < 2) {
    return estimate;  // nothing to sample: the empty-estimate contract
  }
  const ChurnKernelCtx<Id> ctx = rows_.kernel_view<Id>(membership_);
  const std::uint64_t capacity = membership_.capacity();
  const bool workload = workload_enabled();
  // Replica attempts are capped by the population once for the whole
  // call: the world is frozen in sync mode, so the historical per-pair
  // min is a constant.
  const int attempts =
      workload ? static_cast<int>(std::min<std::uint64_t>(
                     static_cast<std::uint64_t>(config_.replicas),
                     membership_.order_size()))
               : 1;
  // Draws are pulled a chunk at a time BEFORE any routing: routing is
  // rng-free, so hoisting the draws out of the route loop consumes the
  // measurement stream byte for byte like the historical interleaved
  // loop, while giving the batch driver a pair source to refill lanes
  // from.  Chunking bounds the scratch (and keeps pair tags in u32).
  constexpr std::uint64_t kDrawChunk = 4096;
  for (std::uint64_t start = 0; start < pairs; start += kDrawChunk) {
    const std::uint64_t n = std::min(kDrawChunk, pairs - start);
    draws_.clear();
    draws_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      GetDraw draw;
      if (!workload) {
        NodeSlot source =
            static_cast<NodeSlot>(rng.uniform_below(capacity));
        while (!membership_.present(source)) {
          source = static_cast<NodeSlot>(rng.uniform_below(capacity));
        }
        NodeSlot target =
            static_cast<NodeSlot>(rng.uniform_below(capacity));
        while (!membership_.present(target) || target == source) {
          target = static_cast<NodeSlot>(rng.uniform_below(capacity));
        }
        draw.source = source;
        draw.target = target;
      } else {
        // Replicated GET: the object's key places it on its successor
        // (the primary, attempt 0 -- what the routing estimate records)
        // and the next r - 1 clockwise present nodes hold the replicas.
        // Sources colliding with the primary redraw both draws, like the
        // uniform path's target rejection.
        for (;;) {
          draw.source =
              static_cast<NodeSlot>(rng.uniform_below(capacity));
          while (!membership_.present(draw.source)) {
            draw.source =
                static_cast<NodeSlot>(rng.uniform_below(capacity));
          }
          const std::uint64_t object = zipf_->sample(rng);
          draw.position = membership_.successor_position(
              flat::object_key(ctx.key_mask, object));
          draw.target = membership_.ring_successor(draw.position, 0);
          if (draw.target != draw.source) {
            break;
          }
        }
      }
      draws_.push_back(draw);
    }
    // Forensics: the sink's stride selects pairs by their index within
    // this measurement call -- a pure function of (shard, round, pair
    // index), so the traced set is identical at any thread count.  The
    // re-route runs against the same frozen snapshot the measurement
    // routes see and touches no rng, load counter, or estimate.
    if (trace_sink_ != nullptr && trace_sink_->enabled()) {
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t pair_index = start + i;
        if (trace_sink_->selects(pair_index)) {
          trace_route(ctx, draws_[i].source, draws_[i].target, pair_index);
        }
      }
    }
    if (batched) {
      measure_batched_routes(ctx, attempts, estimate);
    } else {
      measure_scalar_routes(ctx, attempts, estimate);
    }
  }
  return estimate;
}

// Re-routes one selected pair through route_one against the frozen
// snapshot, recording each chosen hop's slot, cached id, table rank (the
// index in the forwarding node's row; -1 marks a successor-list hop), and
// the generation probe that admitted it.  Routing is rng-free and the world
// is frozen in sync mode, so the walk reproduces the measurement route
// exactly; it charges no load and records into no estimate, so it never
// perturbs the measurement either.
template <typename Id>
void SparseChurnWorld::trace_route(const ChurnKernelCtx<Id>& ctx,
                                   NodeSlot source, NodeSlot target,
                                   std::uint64_t pair_index) {
  static_assert(static_cast<int>(SparseRouteStatus::kArrived) == 0 &&
                    static_cast<int>(SparseRouteStatus::kDropped) == 1 &&
                    static_cast<int>(SparseRouteStatus::kHopLimit) == 2,
                "RouteTrace::status codes are SparseRouteStatus values");
  obs::RouteTrace trace;
  trace.shard = trace_shard_;
  trace.round = round_;
  trace.pair_index = pair_index;
  trace.source_slot = source;
  trace.source_id = ctx.ids[source];
  trace.target_id = ctx.ids[target];
  const auto record_hop = [&](NodeSlot from, const StepResult& next) {
    obs::RouteHop hop;
    hop.slot = next.next;
    hop.id = next.next_id;
    hop.rank = -1;
    hop.gen_ok = false;
    // Recover the rank: the chosen entry lives in the forwarding node's
    // table row (rank = cell index) or its successor list (rank = -1);
    // match on slot + cached id so a recycled slot in another cell can't
    // alias the pick.
    const std::uint64_t row_base = ctx.row_base(from);
    for (int j = 0; j < ctx.row_width; ++j) {
      const std::uint64_t off = row_base + static_cast<std::uint64_t>(j);
      if (ctx.table[off] == next.next && ctx.table_id[off] == next.next_id &&
          ctx_entry_valid(ctx, ctx.table[off], ctx.table_gen[off])) {
        hop.rank = j;
        hop.gen_ok = true;
        break;
      }
    }
    if (hop.rank < 0) {
      const std::uint64_t succ_base = ctx.successor_base(from);
      for (int t = 0; t < ctx.s; ++t) {
        const std::uint64_t off = succ_base + static_cast<std::uint64_t>(t);
        if (ctx.successors[off] == next.next &&
            ctx.successors_id[off] == next.next_id &&
            ctx_entry_valid(ctx, ctx.successors[off],
                            ctx.successors_gen[off])) {
          hop.gen_ok = true;
          break;
        }
      }
    }
    trace.hops.push_back(hop);
  };
  trace.status = static_cast<std::uint32_t>(route_one<false>(
      ctx, step_kernel<Id>(geometry_), source, trace.source_id, target,
      trace.target_id, max_hops_, /*load=*/nullptr, /*rec=*/nullptr,
      record_hop));
  trace_sink_->push(std::move(trace));
}

// The scalar reference path: pair by pair through the shared single-route
// core, replicas consulted in attempt order only while unavailable --
// exactly the historical control flow over the drawn chunk.
template <typename Id>
void SparseChurnWorld::measure_scalar_routes(
    const ChurnKernelCtx<Id>& ctx, int attempts,
    sparse::SparseEstimate& estimate) {
  const StepFn<Id> kernel = step_kernel<Id>(geometry_);
  const bool workload = workload_enabled();
  for (const GetDraw& draw : draws_) {
    const std::uint64_t source_id = ctx.ids[draw.source];
    bool available =
        route_one<false>(ctx, kernel, draw.source, source_id, draw.target,
                         ctx.ids[draw.target], max_hops_, load_.data(),
                         &estimate, NoHop{}) == SparseRouteStatus::kArrived;
    if (!workload) {
      continue;
    }
    ++estimate.gets;
    for (int a = 1; a < attempts && !available; ++a) {
      const NodeSlot holder = membership_.ring_successor(
          draw.position, static_cast<std::uint64_t>(a));
      if (!membership_.present(holder)) {
        continue;  // the replica departed with its holder
      }
      // The source may hold the replica itself.
      available =
          holder == draw.source ||
          route_one<false>(ctx, kernel, draw.source, source_id, holder,
                           ctx.ids[holder], max_hops_, load_.data(), nullptr,
                           NoHop{}) == SparseRouteStatus::kArrived;
    }
    if (available) {
      ++estimate.gets_available;
    }
  }
}

// The batched path: the drawn chunk feeds the 8 SoA lanes; replica
// attempts are failure-driven (attempt a launches only once attempts
// 0..a-1 have failed, via the LIFO retry worklist), so exactly the scalar
// attempt set gets routed.  Every recorded quantity -- estimate counters,
// availability flags, load bumps -- is a commutative sum over that
// identical set, so lane scheduling cannot change the merged result;
// per-pair equality against measure_scalar_routes is gated in
// test_sparse_churn.
template <typename Id>
void SparseChurnWorld::measure_batched_routes(
    const ChurnKernelCtx<Id>& ctx, int attempts,
    sparse::SparseEstimate& estimate) {
  const bool workload = workload_enabled();
  const bool xor_geometry = geometry_ == SparseChurnGeometry::kKademlia;
  const auto n = static_cast<std::uint32_t>(draws_.size());
  get_available_.assign(n, 0);
  retry_.clear();
  std::uint32_t next = 0;
  int lane_attempt[RouteBatch::kLanes] = {};
  const auto launch = [&](RouteBatch& b, int l, std::uint32_t pair,
                          int attempt, NodeSlot target) {
    const GetDraw& draw = draws_[pair];
    b.rank[l] = pair;  // the lane's GET tag
    lane_attempt[l] = attempt;
    b.cur[l] = draw.source;
    b.dist[l] = ctx.ids[draw.source];
    b.target[l] = target;
    b.target_id[l] = ctx.ids[target];
    b.hops[l] = 0;
    if (xor_geometry) {
      prefetch_xor_bucket(ctx, draw.source, b.dist[l], b.target_id[l]);
    } else {
      prefetch_ring_row(ctx, draw.source);
    }
  };
  const auto refill = [&](RouteBatch& b, int l) -> bool {
    for (;;) {
      std::uint32_t pair;
      int attempt;
      if (!retry_.empty()) {
        pair = retry_.back().first;
        attempt = retry_.back().second;
        retry_.pop_back();
      } else if (next < n) {
        pair = next++;
        attempt = 0;
      } else {
        return false;
      }
      const GetDraw& draw = draws_[pair];
      if (attempt == 0) {
        launch(b, l, pair, attempt, draw.target);
        return true;
      }
      const NodeSlot holder = membership_.ring_successor(
          draw.position, static_cast<std::uint64_t>(attempt));
      if (!membership_.present(holder)) {
        // The replica departed with its holder: fall through to the
        // next attempt without routing, like the scalar `continue`.
        if (attempt + 1 < attempts) {
          retry_.emplace_back(pair, attempt + 1);
        }
        continue;
      }
      if (holder == draw.source) {
        get_available_[pair] = 1;  // the source holds the replica itself
        continue;
      }
      launch(b, l, pair, attempt, holder);
      return true;
    }
  };
  const auto retire = [&](RouteBatch& b, int l, SparseRouteStatus status,
                          NodeSlot drop_slot) {
    if (lane_attempt[l] == 0) {
      // Attempt 0 is what the routing estimate records (the historical
      // uniform route / primary GET).  A drop is classified at the slot
      // that had no admissible hop -- the lane's pre-step position, which
      // is exactly the `cur` the scalar path classifies at.
      flat::record_route(estimate, status,
                         static_cast<std::uint64_t>(b.hops[l]),
                         status == SparseRouteStatus::kDropped
                             ? classify_drop(ctx, drop_slot)
                             : obs::RouteFailure::kDeadEntry);
    }
    if (!workload) {
      return;
    }
    if (status == SparseRouteStatus::kArrived) {
      get_available_[b.rank[l]] = 1;
    } else if (lane_attempt[l] + 1 < attempts) {
      retry_.emplace_back(b.rank[l], lane_attempt[l] + 1);
    }
  };
  if (xor_geometry) {
    drive_churn_lanes(ctx, max_hops_, load_.data(), step_batch_xor<Id>,
                      refill, retire);
  } else {
    drive_churn_lanes(ctx, max_hops_, load_.data(), step_batch_ring<Id>,
                      refill, retire);
  }
  if (workload) {
    estimate.gets += n;
    for (const std::uint8_t available : get_available_) {
      estimate.gets_available += available;
    }
  }
}

sparse::SparseEstimate SparseChurnWorld::measure(std::uint64_t pairs) {
  return rows_.narrow_ids() ? measure_sync<std::uint32_t>(pairs, true)
                            : measure_sync<std::uint64_t>(pairs, true);
}

sparse::SparseEstimate SparseChurnWorld::measure_reference(
    std::uint64_t pairs) {
  return rows_.narrow_ids() ? measure_sync<std::uint32_t>(pairs, false)
                            : measure_sync<std::uint64_t>(pairs, false);
}

sparse::SparseEstimate SparseChurnWorld::measure_inflight(
    std::uint64_t pairs, std::uint64_t events_per_hop) {
  return rows_.narrow_ids()
             ? inflight_round<std::uint32_t>(pairs, events_per_hop)
             : inflight_round<std::uint64_t>(pairs, events_per_hop);
}

template <typename Id>
sparse::SparseEstimate SparseChurnWorld::inflight_round(
    std::uint64_t pairs, std::uint64_t events_per_hop) {
  math::Rng& rng = measure_rng_;
  // The in-flight round fuses the lifecycle sweep into the routes (each
  // hop advances the world), so the whole body is one route-phase span --
  // nesting lifecycle/commit timers inside it would double-count.
  obs::PhaseTimer route_timer(profile_, obs::Phase::kRoute, trace_);
  ++round_;
  const std::uint64_t capacity = membership_.capacity();
  joiners_.clear();
  std::uint64_t cursor = 0;
  std::uint64_t eph = events_per_hop;
  if (eph == 0) {
    // Derive the rate from the pair budget: one full capacity sweep
    // spread over the round's expected hop count, `pairs` routes of
    // ~log2 N hops each.  Routes shorter than the estimate leave a sweep
    // remainder, flushed below -- the round always completes exactly one
    // lifecycle sweep either way.
    const std::uint64_t population =
        membership_.population() < 2 ? 2 : membership_.population();
    // max(1, ...): pairs == 0 still closes the round (the flush below runs
    // the whole sweep), it just samples nothing.
    const std::uint64_t hop_budget = std::max<std::uint64_t>(
        1, pairs * static_cast<std::uint64_t>(std::bit_width(population)));
    eph = (capacity + hop_budget - 1) / hop_budget;
    eph = eph == 0 ? 1 : eph;
  }
  sparse::SparseEstimate estimate;
  // The ctx pointers stay valid while the world moves: the per-slot
  // arrays never resize, rows never move (a leave or join only rewrites
  // the slot's entry in the slot -> row map), and membership mutations
  // (leave / join) update the packed epoch structure in place.  Ids can
  // change only on rejoin, which happens at lookup boundaries -- never
  // mid-route -- so the cached-id kernels' carried identifiers cannot go
  // stale in flight.
  const ChurnKernelCtx<Id> ctx = rows_.kernel_view<Id>(membership_);
  const StepFn<Id> kernel = step_kernel<Id>(geometry_);
  // In-flight route through the shared single-route core: the holder's
  // departure drops the message (checked before arrival -- a route
  // "arriving" at a slot that just left gets no reply), and the lifecycle
  // sweep advances under every hop, which is what keeps this path scalar:
  // each hop depends on the sweep the previous hop triggered.  Forwards
  // bump the holding slot's load counter, rng-free as in measure().
  const auto sweep = [&](NodeSlot /*from*/, const StepResult& /*next*/) {
    advance_sweep(cursor, eph);
  };
  const auto route_to = [&](NodeSlot source, NodeSlot target,
                            sparse::SparseEstimate* rec) -> bool {
    return route_one<true>(ctx, kernel, source, ctx.ids[source], target,
                           ctx.ids[target], max_hops_, load_.data(), rec,
                           sweep) == SparseRouteStatus::kArrived;
  };
  const bool workload = workload_enabled();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    // Joins become routable at lookup boundaries only: a node that
    // arrived mid-route has not finished bootstrapping until the overlay
    // absorbs it here (id draw, order-index commit, bootstrap, announce).
    // A replicated GET is one lookup transaction: all its attempts run
    // against the membership of its boundary.
    integrate_joiners(/*commit_always=*/false);
    if (membership_.population() < 2) {
      continue;  // nothing to sample this instant; the sweep still flushes
    }
    if (!workload) {
      NodeSlot source = static_cast<NodeSlot>(rng.uniform_below(capacity));
      while (!membership_.present(source)) {
        source = static_cast<NodeSlot>(rng.uniform_below(capacity));
      }
      NodeSlot target = static_cast<NodeSlot>(rng.uniform_below(capacity));
      while (!membership_.present(target) || target == source) {
        target = static_cast<NodeSlot>(rng.uniform_below(capacity));
      }
      route_to(source, target, &estimate);
      continue;
    }
    NodeSlot source;
    NodeSlot primary;
    std::uint64_t position;
    for (;;) {
      source = static_cast<NodeSlot>(rng.uniform_below(capacity));
      while (!membership_.present(source)) {
        source = static_cast<NodeSlot>(rng.uniform_below(capacity));
      }
      const std::uint64_t object = zipf_->sample(rng);
      position = membership_.successor_position(
          flat::object_key(ctx.key_mask, object));
      primary = membership_.ring_successor(position, 0);
      if (primary != source) {
        break;
      }
    }
    ++estimate.gets;
    bool available = route_to(source, primary, &estimate);
    const auto attempts = static_cast<int>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(config_.replicas),
        membership_.order_size()));
    for (int a = 1; a < attempts && !available; ++a) {
      const NodeSlot holder =
          membership_.ring_successor(position, static_cast<std::uint64_t>(a));
      if (!membership_.present(holder)) {
        continue;  // the replica departed with its holder
      }
      available = holder == source  // the source holds the replica itself
                      ? true
                      : route_to(source, holder, nullptr);
    }
    if (available) {
      ++estimate.gets_available;
    }
  }
  // Flush the sweep remainder and close the round: exactly one full
  // lifecycle round per measured round, so the stationary population (and
  // the q_nr bridge) matches the round-synchronous mode.
  advance_sweep(cursor, capacity);
  integrate_joiners(/*commit_always=*/true);
  return estimate;
}

sim::LoadSummary SparseChurnWorld::load_summary() const {
  return sim::summarize_load(load_, [this](std::size_t slot) {
    return membership_.present(static_cast<NodeSlot>(slot));
  });
}

double SparseChurnWorld::alive_fraction() const noexcept {
  return static_cast<double>(membership_.population()) /
         static_cast<double>(membership_.capacity());
}

double SparseChurnWorld::mean_entry_age() const {
  double total = 0.0;
  std::uint64_t counted = 0;
  // Bitmap enumeration preserves the ascending slot order, so the
  // floating-point accumulation is bit-identical to the historical
  // full-capacity scan.
  for_each_alive(membership_, [&](NodeSlot slot) {
    const std::int32_t* stamps = rows_.row_stamps(slot);
    for (int j = 0; j < rows_.row_width(); ++j) {
      total += round_ - stamps[j];
      ++counted;
    }
  });
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

SparseChurnResult run_sparse_churn_trajectory(
    SparseChurnGeometry geometry, const SparseChurnConfig& config,
    const ChurnParams& params, const TrajectoryOptions& options,
    const math::Rng& rng) {
  validate_trajectory_options(options);
  DHT_CHECK(options.trace_routes == 0 || !options.inflight,
            "route forensics requires the round-synchronous mode (in-flight "
            "routes have no frozen snapshot to re-route against)");
  (void)availability(params);

  const std::uint64_t shards =
      options.shards != 0 ? options.shards : kDefaultTrajectoryShards;
  const unsigned threads = sim::resolve_threads(options.threads);
  // Every worker holds one world at a time (chunk = 1 below).
  (void)checked_config(config, geometry,
                       std::min<std::uint64_t>(threads, shards));
  const int rounds = options.measured_rounds;
  std::vector<std::vector<sparse::SparseEstimate>> shard_rounds(shards);
  std::vector<double> population_sum(shards, 0.0);
  std::vector<double> alive_sum(shards, 0.0);
  std::vector<double> age_sum(shards, 0.0);
  std::vector<sim::LoadSummary> shard_loads(shards);
  // Timing side-channel only: per-shard profiles reduce in shard order
  // below; a null profile/trace reads no clock anywhere.
  const bool observed = options.profile != nullptr || options.trace != nullptr;
  std::vector<obs::PhaseProfile> shard_profiles(observed ? shards : 0);
  // Forensics sinks: each shard keeps the newest `budget` traces of the
  // pairs its stride selects -- both pure functions of (shard, round, pair
  // index), so the drained set is bit-identical at any thread count.
  std::vector<obs::RouteTraceSink> shard_sinks;
  if (options.trace_routes != 0) {
    const std::uint64_t budget =
        std::max<std::uint64_t>(1, options.trace_routes / shards);
    const std::uint64_t per_shard_pairs =
        options.pairs_per_round * static_cast<std::uint64_t>(rounds);
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, per_shard_pairs / budget);
    shard_sinks.reserve(shards);
    for (std::uint64_t s = 0; s < shards; ++s) {
      shard_sinks.emplace_back(stride, budget);
    }
  }

  sim::run_sharded(
      shards,
      sim::PoolOptions{.threads = threads,
                       // Replica worlds are heavy; claim one at a time so
                       // the tail load-balances.
                       .chunk = 1,
                       .pin_workers = options.pin_workers},
      [&](std::uint64_t s) {
        obs::PhaseProfile* const profile =
            observed ? &shard_profiles[s] : nullptr;
        // Shard s is an independent replica of the whole trajectory, a
        // pure function of (caller seed, s).  Its world is allocated here,
        // on the (optionally pinned) worker, so first touch places it on
        // the worker's socket.
        obs::PhaseTimer build_timer(profile, obs::Phase::kWorldBuild,
                                    options.trace);
        SparseChurnWorld world(geometry, config, params,
                               options.repair_probability, options.max_hops,
                               rng.fork(s));
        build_timer.stop();
        world.set_observer(profile, options.trace);
        if (!shard_sinks.empty()) {
          world.set_route_trace(&shard_sinks[s], s);
        }
        for (int i = 0; i < options.warmup_rounds; ++i) {
          world.step();
        }
        auto& mine = shard_rounds[s];
        mine.reserve(static_cast<std::size_t>(rounds));
        for (int r = 0; r < rounds; ++r) {
          if (options.inflight) {
            // In-flight: the round's lifecycle advances DURING the
            // measured routes (measure_inflight steps the round itself).
            mine.push_back(world.measure_inflight(
                options.pairs_per_round, options.inflight_events_per_hop));
          } else {
            world.step();
            mine.push_back(world.measure(options.pairs_per_round));
          }
          population_sum[s] += static_cast<double>(world.population());
          alive_sum[s] += world.alive_fraction();
          age_sum[s] += world.mean_entry_age();
        }
        shard_loads[s] = world.load_summary();
      });

  SparseChurnResult result;
  result.shards = shards;
  result.per_round.resize(static_cast<std::size_t>(rounds));
  {
    obs::PhaseProfile merge_profile;
    obs::PhaseTimer merge_timer(observed ? &merge_profile : nullptr,
                                obs::Phase::kMerge, options.trace);
    for (int r = 0; r < rounds; ++r) {
      for (std::uint64_t s = 0; s < shards; ++s) {
        result.per_round[static_cast<std::size_t>(r)].merge(
            shard_rounds[s][static_cast<std::size_t>(r)]);
      }
      result.overall.merge(result.per_round[static_cast<std::size_t>(r)]);
    }
    merge_timer.stop();
    if (options.profile != nullptr) {
      for (const obs::PhaseProfile& p : shard_profiles) {
        options.profile->merge(p);
      }
      options.profile->merge(merge_profile);
    }
  }
  // Drain the forensics sinks in shard order: the concatenation is the
  // same regardless of which worker ran which shard.
  for (obs::RouteTraceSink& sink : shard_sinks) {
    for (obs::RouteTrace& trace : sink.drain()) {
      result.traces.push_back(std::move(trace));
    }
  }
  double population_total = 0.0;
  double alive_total = 0.0;
  double age_total = 0.0;
  for (std::uint64_t s = 0; s < shards; ++s) {
    population_total += population_sum[s];
    alive_total += alive_sum[s];
    age_total += age_sum[s];
  }
  // validate_trajectory_options guarantees rounds >= 1 and shards >= 1, but
  // keep the division guarded: an empty run must surface zeroed
  // diagnostics, never NaN leaking into JSONL.
  const double snapshots =
      static_cast<double>(shards) * static_cast<double>(rounds);
  result.mean_population =
      snapshots > 0.0 ? population_total / snapshots : 0.0;
  result.mean_alive_fraction = snapshots > 0.0 ? alive_total / snapshots : 0.0;
  result.mean_entry_age = snapshots > 0.0 ? age_total / snapshots : 0.0;
  // Load reduction in shard order: the hottest slot of any world, and the
  // shape statistics averaged over worlds (each shard is an independent
  // trajectory; max commutes, so the result is thread-count-independent).
  double p99_total = 0.0;
  double cv_total = 0.0;
  for (std::uint64_t s = 0; s < shards; ++s) {
    result.load_max = std::max(result.load_max, shard_loads[s].max);
    p99_total += static_cast<double>(shard_loads[s].p99);
    cv_total += shard_loads[s].cv;
  }
  result.load_p99 = p99_total / static_cast<double>(shards);
  result.load_cv = cv_total / static_cast<double>(shards);
  return result;
}

std::vector<SparseChurnSweepPoint> run_sparse_churn_sweep(
    const SparseChurnSweepSpec& spec) {
  DHT_CHECK(!spec.bits.empty(), "sweep needs at least one bits value");
  DHT_CHECK(!spec.populations.empty(),
            "sweep needs at least one population value");
  DHT_CHECK(!spec.churn.empty(), "sweep needs at least one churn point");
  DHT_CHECK(!spec.repair.empty(), "sweep needs at least one repair value");
  DHT_CHECK(!spec.successors.empty(),
            "sweep needs at least one successor-list length");
  const math::Rng root(spec.seed);
  std::vector<SparseChurnSweepPoint> points;
  points.reserve(spec.bits.size() * spec.populations.size() *
                 spec.churn.size() * spec.repair.size() *
                 spec.successors.size());
  std::uint64_t index = 0;
  for (const int bits : spec.bits) {
    for (const std::uint64_t population : spec.populations) {
      for (const ChurnParams& params : spec.churn) {
        std::uint64_t capacity = capacity_for_population(population, params);
        if (bits < 26 && capacity > (std::uint64_t{1} << bits)) {
          capacity = std::uint64_t{1} << bits;  // dense-limit clamp
        }
        for (const double rho : spec.repair) {
          for (const int s : spec.successors) {
            SparseChurnConfig config;
            config.bits = bits;
            config.capacity = capacity;
            config.successors = s;
            config.shortcuts = spec.shortcuts;
            config.bucket_k = spec.bucket_k;
            config.session = spec.session;
            config.replicas = spec.replicas;
            config.zipf_s = spec.zipf_s;
            config.objects = spec.objects;
            TrajectoryOptions options = spec.options;
            options.repair_probability = rho;
            SparseChurnSweepPoint point;
            point.bits = bits;
            point.population = population;
            point.capacity = capacity;
            point.params = params;
            point.repair_probability = rho;
            point.successors = s;
            point.q_eff = effective_q(params);
            point.result = run_sparse_churn_trajectory(
                spec.geometry, config, params, options, root.fork(index));
            points.push_back(std::move(point));
            ++index;
          }
        }
      }
    }
  }
  return points;
}

}  // namespace dht::churn
