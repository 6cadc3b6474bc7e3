// Flattened routing kernels and the sharded parallel estimator for
// non-fully-populated identifier spaces.
//
// The virtual SparseOverlay::next_hop path (sparse_overlay.hpp) is the
// semantic oracle of the serial estimator; these kernels, the parallel
// estimator's only route path, replicate it hop for hop on contiguous
// state -- the sorted id array (index -> identifier), the row-major
// neighbor tables (Chord fingers / Kademlia contacts / Symphony
// shortcuts), and the raw liveness mask -- with no virtual dispatch, no
// std::optional, and no precondition re-checks per hop.  This is the
// sim/flat_route.hpp pattern with the id->index indirection folded in:
// kernels compare *identifiers* (read through c.ids) but step between
// *indices*, which is what lets a 2^20-node population routed in a 2^63
// key space touch only O(N) state.
//
// estimate_routability_parallel shards the pair budget over
// sim/shard_pool.hpp exactly like the dense engine: shard k draws from
// Rng::fork(k), per-shard SparseEstimates (exact integer counters) are
// merged in shard order, so results are bit-identical at any thread count.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "math/rng.hpp"
#include "obs/phase_timer.hpp"
#include "sim/lanes.hpp"
#include "sim/load_stats.hpp"
#include "sparse/sparse_overlay.hpp"

namespace dht::sparse {
namespace flat {

enum class SparseKernelKind {
  kChord,
  kKademlia,
  kSymphony,
};

/// Lanes of the static sparse batch kernels and the sparse churn lane
/// policy (churn/churn_kernels.hpp).
using Lanes = sim::LaneBatch<NodeIndex>;
static_assert(Lanes::kDropped == kNoNode, "kernels drop a lane with kNoNode");

/// Folds one retired route into the estimate counters.  Shared by the
/// static and churn lane policies (sim/lanes.hpp): every counter is a
/// commutative sum, which is exactly why retirement order (and hence
/// batch scheduling) can never change a merged estimate.  `drop_cause`
/// classifies a kDropped retirement for the failure taxonomy
/// (obs/failure.hpp); the static kernels only ever stall on dead entries,
/// so the default covers them, while the churn policy passes the cause it
/// diagnosed at the drop site.
inline void record_route(
    SparseEstimate& estimate, sim::RouteStatus status, std::uint64_t hops,
    obs::RouteFailure drop_cause = obs::RouteFailure::kDeadEntry) {
  switch (status) {
    case sim::RouteStatus::kArrived:
      estimate.record_arrival(hops);
      break;
    case sim::RouteStatus::kDropped:
      estimate.record_drop(drop_cause);
      break;
    case sim::RouteStatus::kHopLimit:
      estimate.record_hop_limit();
      break;
  }
}

struct PathCache;

// Flattened sparse routing context: everything a kernel needs, as raw
// pointers and scalars.  Built once per engine invocation, read-only
// across threads.
struct FlatSparseCtx {
  SparseKernelKind kind = SparseKernelKind::kChord;
  int d = 0;                             // key-space bits
  std::uint64_t key_mask = 0;            // 2^d - 1
  std::uint64_t n = 0;                   // node count
  const std::uint64_t* ids = nullptr;    // index -> identifier, sorted
  const std::uint8_t* alive = nullptr;   // liveness mask over indices
  const NodeIndex* table = nullptr;      // row-major per-node entries
  int row_width = 0;                     // entries per node (d*k, or ks)
  int bucket_k = 1;                      // kademlia contacts per bucket
  int kn = 0;                            // symphony near neighbors
  int ks = 0;                            // symphony shortcuts
  // Chord fixed-stride rows (SparseChordOverlay::route_packed() et al.):
  // per-node distinct fingers, progress descending and precomputed, rows
  // padded to row_width entries with (progress 0, kNoNode); row_len holds
  // the real per-row entry counts (N bytes, cache-resident).  `packed` is
  // the bits <= 32 shape -- one u64 (progress << 32) | target per entry,
  // with `table`/`progress` null; wider spaces use the parallel arrays.
  const std::uint64_t* packed = nullptr;
  const std::uint64_t* progress = nullptr;
  const std::uint8_t* row_len = nullptr;
  std::uint64_t max_hops = 0;
  // Liveness packed one bit per node (same content as `alive`).  The byte
  // mask is megabytes at 2^20 nodes and every hop probes it at a random
  // index; the bit mask is N/8 bytes and stays cache-resident, so the
  // batched kernels' candidate probes stop missing to memory.  Built by
  // make_sparse_ctx.
  const std::uint64_t* alive_bits = nullptr;
  std::shared_ptr<const std::vector<std::uint64_t>> alive_bits_owner;
  // --- Workload layer (null/0 = off; the default path is untouched). ---
  // Per-node forwarded-message counters, ONE array shared by every shard:
  // relaxed atomic integer adds are commutative, so the final counts are
  // independent of thread interleaving -- the same schedule-independence
  // HopStats gets from ordered shard merges (see sim/load_stats.hpp for
  // the overflow analysis).
  std::atomic<std::uint64_t>* load = nullptr;
  // Per-SHARD finger-path cache of popular objects (PathCache in
  // flat_sparse.cpp).  Shard-private (set on a per-shard ctx copy) so the
  // warm-up trajectory is a pure function of the shard's deterministic
  // lane schedule -- shared cache state would make hits depend on thread
  // interleaving.  Every shard starts from an all-empty cache.
  PathCache* cache = nullptr;
};

/// Lane rank sentinel: the route targets a uniformly drawn node, not a
/// workload object -- cache probes are skipped.
inline constexpr std::uint32_t kNoRank = 0xFFFFFFFFu;

/// Packed-liveness probe (flat-kind contexts only).
inline bool alive_bit(const FlatSparseCtx& c, NodeIndex i) {
  return (c.alive_bits[i >> 6] >> (i & 63)) & 1;
}

// Sparse Kademlia: walk the differing levels highest order first, each
// bucket's k cells head first (bucket_k = 1 reads exactly the pre-k
// single-contact cells); the first alive non-empty contact wins -- exactly
// SparseKademliaOverlay::next_hop, *including* its strictly-closer check,
// which the kernel elides because it always holds for bucket members: a
// level-l member agrees with `cur` above bit d-l, so when the walk probes
// level l it matches the target on every higher differing bit already
// probed and clears bit d-l, sitting strictly closer whatever its suffix.
// That removes the candidate id lookup -- the last random read per probe
// -- from the hot path; the per-pair oracle test (test_flat_sparse) pins
// the two paths to each other.
/// One forwarding step; kNoNode when the protocol drops the message.  The
/// batch kernel's fallback for lanes whose bucket head is empty or dead.
inline NodeIndex step_sparse_kademlia(const FlatSparseCtx& c, NodeIndex cur,
                                      std::uint64_t target_id) {
  const NodeIndex* row =
      c.table + cur * static_cast<std::uint64_t>(c.row_width);
  const int d = c.row_width / c.bucket_k;
  std::uint64_t diff = c.ids[cur] ^ target_id;
  while (diff != 0) {
    const int bw = std::bit_width(diff);
    const NodeIndex* bucket =
        row + static_cast<std::uint64_t>(d - bw) *
                  static_cast<std::uint64_t>(c.bucket_k);
    for (int cell = 0; cell < c.bucket_k; ++cell) {  // bucket d - bw + 1
      const NodeIndex entry = bucket[cell];
      if (entry != kNoNode && alive_bit(c, entry)) {
        return entry;  // the batch kernel warms the next hop's row and id
      }
    }
    diff &= ~(std::uint64_t{1} << (bw - 1));
  }
  return kNoNode;
}

// Sparse Symphony: greedy clockwise without overshoot over shortcuts, then
// the kn ring successors -- exactly SparseSymphonyOverlay::next_hop.
/// One forwarding step; kNoNode when the protocol drops the message.  The
/// symphony batch kernel runs it per lane.
inline NodeIndex step_sparse_symphony(const FlatSparseCtx& c, NodeIndex cur,
                                      std::uint64_t target_id) {
  const std::uint64_t cur_id = c.ids[cur];
  const std::uint64_t distance = (target_id - cur_id) & c.key_mask;
  const NodeIndex* row =
      c.table + cur * static_cast<std::uint64_t>(c.row_width);
  std::uint64_t best_progress = 0;
  NodeIndex best = kNoNode;
  const auto consider = [&](NodeIndex link) {
    if (link == cur) {
      return;
    }
    const std::uint64_t progress = (c.ids[link] - cur_id) & c.key_mask;
    if (progress > distance || progress <= best_progress) {
      return;  // overshoots, or no better than the current best
    }
    if (c.alive[link]) {
      best_progress = progress;
      best = link;
    }
  };
  for (int j = 0; j < c.ks; ++j) {
    consider(row[j]);
  }
  for (int k = 1; k <= c.kn; ++k) {
    consider(static_cast<NodeIndex>(
        (cur + static_cast<std::uint64_t>(k)) % c.n));
  }
  return best;
}

// Batch kernels.  Each advances every active lane of a sim::LaneBatch one
// hop (sim/lanes.hpp: lanes as parallel arrays, a drop written as kNoNode
// into cur), running each micro-phase -- distance computation, lock-step
// row scans, liveness probes -- as a short branch-light loop over lanes,
// where every iteration is independent and its loads issue together.
// Plain scalar code, no intrinsics: the shape alone buys the memory-level
// parallelism (and the compiler is free to vectorize the arithmetic
// phases).

/// One Chord hop for every active lane: greedy clockwise without
/// overshoot, over the node's row of *distinct* fingers sorted by strictly
/// decreasing progress -- the count of entries above the remaining
/// distance IS the index of the first admissible finger, and the first
/// alive one from there is SparseChordOverlay::next_hop's pick (duplicate
/// fingers collapse onto one node), at ~log2 N contiguous reads per hop.
/// Packed rows compare entry > (distance << 32 | 0xFFFFFFFF): true iff
/// the entry's progress exceeds the distance (targets are 32-bit).
/// Phased: (A) distances and row bases -- pure arithmetic, the row address
/// is cur * stride with no offsets load on the critical path, (B) count
/// every lane's overshooting prefix with branchless fixed-trip loops, (C)
/// probe the max-progress candidates' liveness in the packed bit mask,
/// falling back to the in-row scan for the rare dead-candidate lane.  The writeback prefetches the *next*
/// hop's whole row, so phase B of the following turn runs against lines
/// that have had a full batch turn of latency cover.
inline void step_batch_chord_packed(const FlatSparseCtx& c, Lanes& b) {
  constexpr int kLanes = Lanes::kLanes;
  const std::uint64_t stride = static_cast<std::uint64_t>(c.row_width);
  std::uint64_t key[kLanes];
  std::uint64_t base[kLanes];
  std::uint64_t len[kLanes];
  std::uint64_t at[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    if (!b.active[l]) {
      continue;
    }
    const NodeIndex cur = b.cur[l];
    key[l] = (b.dist[l] << 32) | std::uint64_t{kNoNode};
    base[l] = cur * stride;
    len[l] = c.row_len[cur];
  }
  for (int l = 0; l < kLanes; ++l) {
    if (!b.active[l]) {
      continue;
    }
    const std::uint64_t* row = c.packed + base[l];
    const std::uint64_t d = key[l];
    std::uint64_t k = 0;
    for (std::uint64_t e = 0; e < len[l]; ++e) {
      k += row[e] > d ? 1 : 0;
    }
    at[l] = k;
  }
  for (int l = 0; l < kLanes; ++l) {
    if (!b.active[l]) {
      continue;
    }
    NodeIndex next = kNoNode;
    std::uint64_t progress = 0;
    const std::uint64_t* row = c.packed + base[l];
    for (std::uint64_t e = at[l]; e < len[l]; ++e) {
      const std::uint64_t entry = row[e];
      const NodeIndex f = static_cast<NodeIndex>(entry);
      if (alive_bit(c, f)) {
        next = f;
        progress = entry >> 32;
        break;
      }
    }
    if (next == kNoNode) {
      b.cur[l] = kNoNode;  // dropped; hops stays at the count taken
      continue;
    }
    b.cur[l] = next;
    b.dist[l] = (b.dist[l] - progress) & c.key_mask;
    b.hops[l] += 1;
    // Warm the next hop's packed row; the loads have a full batch turn of
    // cover before phase A touches them.  The row-length lookup is
    // cache-resident, so sizing the burst by it costs nothing and skips
    // the pad lines.  No ids prefetch: the incremental distance is the
    // kernel's only geometry, so the id array is off the ring hop path.
    const std::uint64_t nb = next * stride;
    const std::uint64_t nlen = c.row_len[next];
    for (std::uint64_t off = 0; off < nlen; off += 8) {
      __builtin_prefetch(&c.packed[nb + off]);
    }
  }
}

inline void step_batch_chord_wide(const FlatSparseCtx& c, Lanes& b) {
  constexpr int kLanes = Lanes::kLanes;
  const std::uint64_t stride = static_cast<std::uint64_t>(c.row_width);
  std::uint64_t distance[kLanes];
  std::uint64_t base[kLanes];
  std::uint64_t len[kLanes];
  std::uint64_t at[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    if (!b.active[l]) {
      continue;
    }
    const NodeIndex cur = b.cur[l];
    distance[l] = (b.target_id[l] - c.ids[cur]) & c.key_mask;
    base[l] = cur * stride;
    len[l] = c.row_len[cur];
  }
  for (int l = 0; l < kLanes; ++l) {
    if (!b.active[l]) {
      continue;
    }
    const std::uint64_t* prog = c.progress + base[l];
    const std::uint64_t d = distance[l];
    std::uint64_t k = 0;
    for (std::uint64_t e = 0; e < len[l]; ++e) {
      k += prog[e] > d ? 1 : 0;
    }
    at[l] = k;
  }
  NodeIndex cand[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    if (!b.active[l]) {
      continue;
    }
    cand[l] = at[l] < len[l] ? c.table[base[l] + at[l]] : kNoNode;
  }
  for (int l = 0; l < kLanes; ++l) {
    if (!b.active[l]) {
      continue;
    }
    NodeIndex next = kNoNode;
    if (cand[l] != kNoNode) {
      if (alive_bit(c, cand[l])) {
        next = cand[l];
      } else {
        for (std::uint64_t e = at[l] + 1; e < len[l]; ++e) {
          const NodeIndex f = c.table[base[l] + e];
          if (alive_bit(c, f)) {
            next = f;
            break;
          }
        }
      }
    }
    if (next == kNoNode) {
      b.cur[l] = kNoNode;  // dropped; hops stays at the count taken
      continue;
    }
    b.cur[l] = next;
    b.hops[l] += 1;
    // Warm the next hop's identifier and (progress, finger) row; the loads
    // have a full batch turn of cover before phase A touches them.
    __builtin_prefetch(&c.ids[next]);
    const std::uint64_t nb = next * stride;
    const std::uint64_t nlen = c.row_len[next];
    for (std::uint64_t off = 0; off < nlen; off += 8) {
      __builtin_prefetch(&c.progress[nb + off]);
    }
    for (std::uint64_t off = 0; off < nlen; off += 16) {
      __builtin_prefetch(&c.table[nb + off]);
    }
  }
}

inline void step_batch_chord(const FlatSparseCtx& c, Lanes& b) {
  if (c.packed != nullptr) {
    step_batch_chord_packed(c, b);
  } else {
    step_batch_chord_wide(c, b);
  }
}

/// One Kademlia hop for every active lane.  Same rule as
/// step_sparse_kademlia, staged: (A) compute each lane's head contact of
/// the highest differing bucket and prefetch its liveness word, (B)
/// resolve -- the head is the hop in the common case (head present and
/// alive); lanes that miss fall back to the full scalar bucket walk.
inline void step_batch_kademlia(const FlatSparseCtx& c, Lanes& b) {
  constexpr int kLanes = Lanes::kLanes;
  const int d = c.row_width / c.bucket_k;
  NodeIndex head[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    if (!b.active[l]) {
      continue;
    }
    const NodeIndex cur = b.cur[l];
    const std::uint64_t diff = c.ids[cur] ^ b.target_id[l];
    const NodeIndex* row =
        c.table + cur * static_cast<std::uint64_t>(c.row_width);
    head[l] = row[static_cast<std::uint64_t>(d - std::bit_width(diff)) *
                  static_cast<std::uint64_t>(c.bucket_k)];
    if (head[l] != kNoNode) {
      __builtin_prefetch(&c.alive_bits[head[l] >> 6]);
    }
  }
  for (int l = 0; l < kLanes; ++l) {
    if (!b.active[l]) {
      continue;
    }
    NodeIndex next = head[l];
    if (next == kNoNode || !alive_bit(c, next)) {
      next = step_sparse_kademlia(c, b.cur[l], b.target_id[l]);
    }
    if (next == kNoNode) {
      b.cur[l] = kNoNode;
      continue;
    }
    b.cur[l] = next;
    b.hops[l] += 1;
    // Warm the next hop's identifier and its whole contact row -- the
    // needed bucket depends on the next XOR distance, unknown until the
    // ids load resolves, so cover every line of the row now.
    __builtin_prefetch(&c.ids[next]);
    const NodeIndex* row =
        c.table + next * static_cast<std::uint64_t>(c.row_width);
    for (int off = 0; off < c.row_width; off += 16) {
      __builtin_prefetch(row + off);
    }
  }
}

/// One Symphony hop for every active lane.  The scan is short (ks
/// shortcuts + kn successors, all usually cache-resident), so per-lane
/// scalar steps suffice; the batch shape still overlaps the shortcut-id
/// gathers of different lanes.
inline void step_batch_symphony(const FlatSparseCtx& c, Lanes& b) {
  for (int l = 0; l < Lanes::kLanes; ++l) {
    if (!b.active[l]) {
      continue;
    }
    const NodeIndex next = step_sparse_symphony(c, b.cur[l], b.target_id[l]);
    if (next == kNoNode) {
      b.cur[l] = kNoNode;
      continue;
    }
    b.cur[l] = next;
    b.hops[l] += 1;
    __builtin_prefetch(c.table +
                       next * static_cast<std::uint64_t>(c.row_width));
    __builtin_prefetch(&c.ids[next]);
  }
}

/// Builds a context over an immutable sparse overlay + failure scenario.
/// Throws PreconditionError for an overlay type with no kernel.
FlatSparseCtx make_sparse_ctx(const SparseOverlay& overlay,
                              const SparseFailure& failures,
                              std::uint64_t max_hops);

/// Object o's key: a fixed keyed hash of o masked to the key space.  It
/// does not depend on the caller seed, so the object placement is a
/// property of the space alone.
inline std::uint64_t object_key(std::uint64_t key_mask, std::uint64_t object) {
  return math::CounterRng(0xb10c9a3f0b173c75ULL).at(object) & key_mask;
}

/// The owner of every object 0 .. objects-1: the successor of the object's
/// key (the first node at or clockwise of it), walked clockwise past dead
/// nodes -- the consistent-hashing reassignment a real DHT performs on
/// failure.  Equal to space.successor_of_key(object_key(..)) stepped with
/// ring_step(., 1) while dead, but keys resolve through a bucket index over
/// the top floor(log2 n) key bits: one O(n) pass over the sorted ids, then
/// a scan of about one id per key.  Precondition: a node is alive.
std::vector<NodeIndex> object_owners(const SparseIdSpace& space,
                                     const SparseFailure& failures,
                                     std::uint64_t objects);

}  // namespace flat

/// Heavy-traffic workload knobs for the static sparse estimator.  With the
/// object model engaged (zipf_s > 0 or cache_entries > 0), each sampled
/// lookup draws an object by Zipf popularity and routes to the object's
/// owner -- the first alive node clockwise of the object's key (consistent
/// hashing) -- instead of a uniform alive node.  All draws come from the
/// same per-lane CounterRng streams as the uniform path, so estimates stay
/// bit-identical at any thread count.
struct SparseWorkloadOptions {
  /// Zipf skew of object popularity (0 = uniform over objects).
  double zipf_s = 0.0;
  /// Distinct objects (0 = one per alive node).  Capped at 2^26.
  std::uint64_t objects = 0;
  /// Per-node direct-mapped path-cache slots (0 = caching off), at most
  /// kMaxCacheEntries.  A probe hit forwards straight to the cached owner
  /// in one hop.  Each running shard holds one n * cache_entries * 8-byte
  /// cache, which must fit in kMaxPathCacheBytes.
  int cache_entries = 0;
  static constexpr int kMaxCacheEntries = 1024;
  static constexpr std::uint64_t kMaxPathCacheBytes = std::uint64_t{1} << 32;
  /// Record messages forwarded per node (one shared atomic counter array;
  /// see flat::FlatSparseCtx::load).  Works with or without the object
  /// model.
  bool record_load = false;

  bool enabled() const noexcept {
    return zipf_s > 0.0 || cache_entries > 0;
  }
};

struct SparseParallelOptions {
  /// Number of ordered (source, target) pairs to sample.
  std::uint64_t pairs = 20000;
  /// Safety hop cap (0 = default N).
  std::uint64_t max_hops = 0;
  /// Worker threads (0 = hardware concurrency).  Never affects results.
  unsigned threads = 0;
  /// Work shards (0 = default, min(pairs, 256)).  Results are a function of
  /// (seed, shard count); keep it fixed when comparing runs.
  std::uint64_t shards = 0;
  /// Pin worker threads round-robin across NUMA nodes (sim/topology.hpp);
  /// best effort, a silent no-op where unsupported.  Never affects results.
  bool pin_workers = false;
  /// Heavy-traffic workload model (defaults fully off: the uniform-pair
  /// engine below is byte-for-byte the historical one).
  SparseWorkloadOptions workload{};
  /// Observability sinks (obs/phase_timer.hpp), both optional and both
  /// pure timing side-channels: the engine adds per-shard phase seconds
  /// (reduced in shard order) into `profile` and emits phase spans into
  /// `trace`.  Null (the default) is the zero-cost path -- no clock is
  /// read -- and attaching them never changes any counter.
  obs::PhaseProfile* profile = nullptr;
  obs::Trace* trace = nullptr;
};

/// Monte-Carlo estimate over sampled alive index pairs, sharded across
/// threads.  `rng` is only fork()ed, never advanced.  Preconditions: at
/// least two alive nodes, pairs > 0.
SparseEstimate estimate_routability_parallel(
    const SparseOverlay& overlay, const SparseFailure& failures,
    const SparseParallelOptions& options, const math::Rng& rng);

/// estimate_routability_parallel plus the workload layer's outputs: the
/// routing estimate (cache counters included) and the per-node load
/// summary over alive nodes (zeroed unless options.workload.record_load).
struct SparseWorkloadReport {
  SparseEstimate estimate;
  sim::LoadSummary load;
};

SparseWorkloadReport estimate_workload_parallel(
    const SparseOverlay& overlay, const SparseFailure& failures,
    const SparseParallelOptions& options, const math::Rng& rng);

}  // namespace dht::sparse
