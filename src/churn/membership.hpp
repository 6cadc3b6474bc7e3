// Dynamic membership over a non-fully-populated identifier space -- the
// population layer under the sparse churn engine (churn/sparse_trajectory.hpp).
//
// The dense churn model (churn/churn.hpp) flips liveness on a fixed roster
// of 2^d identifiers; here the roster is a fixed array of `capacity` SLOTS
// over a 2^bits key space (bits <= 63), and N itself evolves: a joining
// slot draws a fresh identifier uniformly from the unoccupied keys, a
// leaving slot is removed from the population (its stale id and routing
// rows linger until the slot is recycled by a later join).  Slots are the
// stable handles routing tables store -- an in-edge to a departed slot
// reads as dead through the presence mask until the owner refreshes it, or
// until the slot is recycled by a join (the sparse analogue of a dense
// rebirth making a stale entry valid again, except the recycled slot
// carries a new identifier).
//
// Membership changes are batched per round: leave() flips presence
// immediately, join() assigns fresh distinct ids to a cohort of slots, and
// commit() rebuilds the sorted (id -> slot) order index in one O(N + k)
// merge pass.  All queries the table machinery needs -- successor of a
// key, id ranges (Kademlia buckets), clockwise ring steps (successor
// lists) -- are binary searches over that index, so only the population is
// ever materialized, never the key space.  Every draw comes from a caller
// rng, so a membership trajectory is a pure function of (rng lineage,
// inputs) -- the property the sharded replica engine needs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "math/rng.hpp"
#include "sparse/sparse_space.hpp"

namespace dht::churn {

/// Stable handle of a roster slot (the unit routing tables reference).
using NodeSlot = sparse::NodeIndex;

/// Sentinel for "no slot" in routing rows (empty buckets, short rings).
inline constexpr NodeSlot kNoSlot = sparse::kNoNode;

/// The identifier range of Kademlia bucket `level` (1-based from the most
/// significant of `bits` bits) around `id`: ids sharing the first level-1
/// bits with bit `level` flipped -- a contiguous [lo, hi] once the suffix
/// is freed.  Single-entry refresh searches this range;
/// SparseMembership::bucket_ranges finds every level's at once and is
/// tested against it.
inline std::pair<std::uint64_t, std::uint64_t> kademlia_bucket_range(
    std::uint64_t id, int level, int bits) {
  const int suffix_bits = bits - level;
  const std::uint64_t lo =
      ((id ^ (std::uint64_t{1} << suffix_bits)) >> suffix_bits)
      << suffix_bits;
  return {lo, lo + ((std::uint64_t{1} << suffix_bits) - 1)};
}

class SparseMembership {
 public:
  /// A roster of `capacity` slots over a 2^bits key space, all initially
  /// absent.  Preconditions: 1 <= bits <= 63, 2 <= capacity <= 2^bits, and
  /// capacity <= 2^26 (per-slot state is materialized).
  SparseMembership(int bits, std::uint64_t capacity);

  /// Bytes the per-slot state and the order index of a (bits, capacity)
  /// roster occupy at full population -- ids, presence, generations, the
  /// packed alive mask, the join flags, the order arrays and the seek
  /// table -- saturating at UINT64_MAX.  The footprint check of the sparse
  /// churn world adds this to its routing rows.
  static std::uint64_t bytes_for(int bits, std::uint64_t capacity);

  int bits() const noexcept { return bits_; }
  std::uint64_t key_space_size() const noexcept {
    return std::uint64_t{1} << bits_;
  }
  std::uint64_t key_mask() const noexcept { return key_space_size() - 1; }
  std::uint64_t capacity() const noexcept { return present_.size(); }
  std::uint64_t population() const noexcept { return population_; }

  bool present(NodeSlot slot) const { return present_[slot] != 0; }
  /// The slot's identifier; stale (the last occupant's) while absent.
  std::uint64_t id_of(NodeSlot slot) const { return ids_[slot]; }
  /// The slot's occupancy generation, incremented on every join.  Routing
  /// entries stamp the generation they were installed against, so an edge
  /// to a departed node stays invalid when the slot is recycled -- in a
  /// dynamic-membership world identities never return, unlike the dense
  /// model's rebirths.
  std::uint32_t generation(NodeSlot slot) const { return generations_[slot]; }

  /// Raw id / generation arrays over slots; the routing kernels of the
  /// sparse churn world index these directly.
  const std::uint64_t* id_data() const noexcept { return ids_.data(); }
  const std::uint32_t* generation_data() const noexcept {
    return generations_.data();
  }

  /// Packed presence: one u64 word per 64 slots (bit set iff present),
  /// maintained by join()/leave().  The whole mask for a 2^17-slot roster
  /// is 16 KiB -- cache-resident where the byte mask is not -- so the
  /// routing kernels' validity probes and the engine's present-slot sweeps
  /// (std::countr_zero over the words) go through this instead of the
  /// byte mask behind present().
  const std::uint64_t* alive_bits_data() const noexcept {
    return alive_bits_.data();
  }
  std::uint64_t alive_words() const noexcept { return alive_bits_.size(); }

  /// Marks a present slot absent.  The order index keeps the stale entry
  /// (filtered by the presence mask) until the next commit().
  void leave(NodeSlot slot);

  /// Joins a cohort of absent slots: draws distinct identifiers uniformly
  /// from the keys not presently occupied (batched draw + sort + dedup, the
  /// SparseIdSpace construction pattern) and assigns them in ascending
  /// order to the ascending cohort.  Slots become present immediately; the
  /// order index sees them at the next commit().
  void join(const std::vector<NodeSlot>& slots, math::Rng& rng);

  /// Brings the sorted (id -> slot) order index up to date: drops departed
  /// entries, merges joined ones.  Incremental and allocation-free in
  /// steady state -- a no-op when nothing changed since the last commit,
  /// an in-place compaction for departures, and a backward shift-merge of
  /// the (sorted) pending joiners on top; the arrays only ever grow to the
  /// high-water population, so per-round rebuild allocations are gone.
  ///
  /// `refresh_seek` additionally rebuilds the prefix-seek accelerator (an
  /// O(buckets + N) streaming pass) so subsequent order queries run over
  /// tiny bucket windows.  Pass false on high-frequency commits whose
  /// query volume would not amortize the rebuild -- the in-flight engine's
  /// per-lookup-boundary commits.  The table then lags the arrays, but
  /// by a known amount: no position has moved further than the entries
  /// removed (down) or merged (up) since the last refreshing commit, so
  /// the queries widen each bucket window by exactly that drift until the
  /// next refresh.  Results are identical either way; this is purely a
  /// cost trade.
  void commit(bool refresh_seek = true);

  // --- Order-index queries (reflect the membership as of the last
  // --- commit(); call commit() after leave()/join() before using them).

  /// Present-node count in the index (== population() when in sync).
  std::uint64_t order_size() const noexcept { return order_slots_.size(); }

  /// The slot at ring position `pos` (ids ascending).
  NodeSlot slot_at(std::uint64_t pos) const { return order_slots_[pos]; }

  /// The id at ring position `pos`.
  std::uint64_t id_at(std::uint64_t pos) const { return order_ids_[pos]; }

  /// Ring position of the first present node at or clockwise-after `key`
  /// (Chord successor convention; wraps to 0 past the largest id).
  /// Precondition: order_size() > 0.  Inline (with order_range below):
  /// these run hundreds of millions of times under the churn engines'
  /// finger refreshes, and the seek window reduces them to a handful of
  /// instructions worth keeping call-free.
  std::uint64_t successor_position(std::uint64_t key) const {
    DHT_CHECK(!order_ids_.empty(), "successor query on an empty population");
    // Search only `key`'s seek window: ids past the window's end belong
    // to higher prefixes and are > key, so if the window holds nothing
    // >= key the answer is exactly its end.
    const auto [window_lo, window_hi] = seek_window(key >> seek_shift_);
    const auto it = std::lower_bound(order_ids_.begin() + window_lo,
                                     order_ids_.begin() + window_hi, key);
    const auto pos = static_cast<std::uint64_t>(it - order_ids_.begin());
    if (pos == order_ids_.size()) {
      return 0;  // wrap to the smallest identifier
    }
    return pos;
  }

  /// The owning slot of `key` (successor convention).
  NodeSlot successor_of_key(std::uint64_t key) const {
    return order_slots_[successor_position(key)];
  }

  /// Present nodes with ids in [lo, hi] (inclusive, no wrap: lo <= hi) as a
  /// ring-position range [first, last).
  std::pair<std::uint64_t, std::uint64_t> order_range(std::uint64_t lo,
                                                      std::uint64_t hi) const {
    DHT_CHECK(lo <= hi, "order_range requires lo <= hi");
    // Same windowing as successor_position, once per endpoint: positions
    // past a window's end hold strictly larger prefixes, so each bound is
    // fully determined inside its own bucket's window.
    const auto [lo_first, lo_last] = seek_window(lo >> seek_shift_);
    const auto first = std::lower_bound(order_ids_.begin() + lo_first,
                                        order_ids_.begin() + lo_last, lo);
    const auto [hi_first, hi_last] = seek_window(hi >> seek_shift_);
    const auto last =
        std::upper_bound(std::max(first, order_ids_.begin() + hi_first),
                         order_ids_.begin() + hi_last, hi);
    return {static_cast<std::uint64_t>(first - order_ids_.begin()),
            static_cast<std::uint64_t>(last - order_ids_.begin())};
  }

  /// The order-position ranges of all bits() Kademlia buckets of `id`:
  /// out[l - 1] is order_range over kademlia_bucket_range(id, l, bits()),
  /// for every level l, found in one narrowing pass instead of bits()
  /// independent searches.  The ids sharing `id`'s first l bits form a
  /// contiguous window; splitting it at its first id with bit l + 1 set
  /// yields the next window (`id`'s side) and bucket l + 1 (the far
  /// side).  Only an empty window ends the pass: the index may hold
  /// departed entries or lack `id` itself, so a one-entry window is not
  /// proof that the deeper buckets are empty.  Resizes `out` to bits().
  void bucket_ranges(
      std::uint64_t id,
      std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const;

  /// Checks the index invariants, throwing PreconditionError on the first
  /// violation: ids strictly ascending; with no leave()/join() since the
  /// last commit(), exactly the present slots under their current ids;
  /// and every seek bucket's true first position inside its
  /// drift-widened window.  O(capacity + N + buckets); for tests.
  void audit() const;

  /// The slot `steps` positions clockwise of ring position `pos`.
  /// Precondition: order_size() > 0.
  NodeSlot ring_successor(std::uint64_t pos, std::uint64_t steps) const {
    // Callers pass pos <= size and small steps, so skip the 64-bit divide
    // (a hot-loop cost in successor-list rebuilds) unless a wrap happens.
    const std::uint64_t raw = pos + steps;
    return order_slots_[raw < order_slots_.size()
                            ? raw
                            : raw % order_slots_.size()];
  }

 private:
  // log2 of the seek table's bucket count for a (bits, capacity) roster.
  static int seek_bucket_bits(int bits, std::uint64_t capacity);
  bool id_occupied(std::uint64_t id) const;

  // The order positions that can hold the lower bound of any key in seek
  // bucket `bucket`: the bucket's span as of the last refreshing commit,
  // widened by the drift since (entries before it removed pull its start
  // down, entries merged pull its end up), clamped to the array.  Zero
  // drift -- every query after a refreshing commit -- skips the widening
  // arithmetic, which would cost these one-or-two-element searches ~10%.
  std::pair<std::uint64_t, std::uint64_t> seek_window(
      std::uint64_t bucket) const {
    const std::uint64_t first = seek_[bucket];
    const std::uint64_t last = seek_[bucket + 1];
    if ((seek_removed_ | seek_added_) == 0) {
      return {first, last};
    }
    return {first > seek_removed_ ? first - seek_removed_ : 0,
            std::min<std::uint64_t>(last + seek_added_, order_ids_.size())};
  }

  int bits_;
  std::vector<std::uint64_t> ids_;       // per slot; stale while absent
  std::vector<std::uint8_t> present_;    // per slot
  std::vector<std::uint32_t> generations_;  // per slot; bumped on join
  // Packed mirror of present_: bit (slot & 63) of word (slot >> 6).
  std::vector<std::uint64_t> alive_bits_;
  std::uint64_t population_ = 0;
  // Set by leave(): the order index carries entries that must be dropped
  // at the next commit().  join()+commit() always run back to back (the
  // joiner-integration contract), so pending_ is empty whenever leave()
  // runs and this single flag captures every departure-only delta.
  bool stale_ = false;
  // Sorted present ids + parallel slots, as of the last commit().
  std::vector<std::uint64_t> order_ids_;
  std::vector<NodeSlot> order_slots_;
  // Prefix-seek accelerator over the order index: seek_[b] is the first
  // order position whose id is >= (b << seek_shift_), seek_.back() ==
  // order_size().  Every order query (successor, range, occupancy) then
  // binary-searches only the handful of entries inside one key-prefix
  // bucket instead of the whole population -- the queries stay exact
  // lower/upper bounds, just over a provably sufficient window, so results
  // are bit-identical to the plain searches.  Rebuilt by commit() in one
  // streaming pass (the arrays it walks are already hot from the merge).
  int seek_shift_ = 0;
  std::vector<std::uint32_t> seek_;
  // Entries removed from / merged into the order index since seek_ was
  // last rebuilt (zero after a refreshing commit): the drift bound
  // seek_window() widens by.
  std::uint64_t seek_removed_ = 0;
  std::uint64_t seek_added_ = 0;
  // Joins since the last commit(), sorted by id, plus a per-slot flag so
  // commit() can tell a surviving order entry from one whose slot was
  // recycled this round (possibly onto the very same identifier).
  std::vector<std::pair<std::uint64_t, NodeSlot>> pending_;
  std::vector<std::uint8_t> in_pending_;
};

}  // namespace dht::churn
