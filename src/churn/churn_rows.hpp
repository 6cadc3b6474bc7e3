// The routing rows of the sparse churn world (churn/sparse_trajectory.hpp):
// one owner for the per-cell layout, so the layout changes in one place.
//
// A world keeps, per roster slot, one table row of `row_width` cells
// (Chord fingers, Kademlia bucket contacts, Symphony shortcuts) and one
// successor list of `s` cells.  Each cell is stored column-wise: the
// target slot, the target's occupancy generation at install (an entry is
// valid only while its target keeps that generation -- identities never
// return), the target's install-time identifier, and -- table cells only
// -- the round the cell was refreshed.  Rows add the earliest round at
// which they can hold a due cell; successor lists add one refresh stamp.
//
// The id columns are as wide as the key space needs: u32 when bits <= 32
// (every id fits), u64 above.  A table cell is then 16 or 20 bytes and a
// successor cell 12 or 16.  The columns stay separate (SoA): the ring
// kernels scan only the id row and probe slot + generation for the ~2
// candidates a hop tries, so narrow ids halve the bytes each hop scans.
// The kernels take the id type as a template parameter (ChurnKernelCtx<Id>)
// and the world picks the instantiation once per measure call.
//
// ChurnRows owns allocation, every cell write (single install, the Chord
// bulk rebuild, the join-announcement insert, successor-list rebuilds, the
// Kademlia LRU eviction shift), and the flattened kernel view; the world
// decides *what* to install and reads cells through the accessors.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "churn/membership.hpp"
#include "churn/sparse_config.hpp"

namespace dht::churn {

// Flattened routing view over a world's slot state: identifiers (stale for
// departed slots), the packed epoch structure (one alive-bitmap u64 word
// per 64 slots + the flat generation array), the row-major tables with
// their cached install-time target ids, and the successor lists.  Kernels
// compare identifiers but step between slots -- the sparse/flat_sparse.hpp
// pattern with mutable membership underneath.  `Id` is the cached-id
// column type (ChurnRows::narrow_ids); membership ids stay 64-bit.
template <typename Id>
struct ChurnKernelCtx {
  const std::uint64_t* ids = nullptr;
  const std::uint64_t* alive_bits = nullptr;
  const std::uint32_t* generations = nullptr;
  const NodeSlot* table = nullptr;
  const std::uint32_t* table_gen = nullptr;
  const Id* table_id = nullptr;
  const NodeSlot* successors = nullptr;
  const std::uint32_t* successors_gen = nullptr;
  const Id* successors_id = nullptr;
  int row_width = 0;
  int bucket_k = 1;  // kademlia contacts per bucket (row_width = d * k)
  int s = 0;
  std::uint64_t key_mask = 0;
};

// One cached-id column: u32 cells when narrow, u64 otherwise.  Exactly
// one of the two vectors is allocated.
class IdColumn {
 public:
  /// Allocates `cells` zero ids, backed by huge pages where possible.
  void allocate(std::uint64_t cells, bool narrow);
  bool narrow() const noexcept { return narrow_; }
  std::uint64_t get(std::uint64_t i) const {
    return narrow_ ? narrow_ids_[i] : wide_ids_[i];
  }
  /// Stores `id`; narrow columns hold only ids below 2^32.
  void set(std::uint64_t i, std::uint64_t id) {
    if (narrow_) {
      narrow_ids_[i] = static_cast<std::uint32_t>(id);
    } else {
      wide_ids_[i] = id;
    }
  }
  template <typename Id>
  const Id* data() const noexcept {
    if constexpr (std::is_same_v<Id, std::uint32_t>) {
      return narrow_ids_.data();
    } else {
      static_assert(std::is_same_v<Id, std::uint64_t>);
      return wide_ids_.data();
    }
  }

 private:
  bool narrow_ = false;
  std::vector<std::uint32_t> narrow_ids_;
  std::vector<std::uint64_t> wide_ids_;
};

class ChurnRows {
 public:
  /// Allocates empty rows (kNoSlot cells, zero stamps, every row possibly
  /// due) for config.capacity slots, backed by huge pages where possible.
  ChurnRows(SparseChurnGeometry geometry, const SparseChurnConfig& config);

  /// Bytes the constructor allocates for (geometry, config) -- the same
  /// per-cell and per-slot sizes, saturating at UINT64_MAX.
  static std::uint64_t bytes_for(SparseChurnGeometry geometry,
                                 const SparseChurnConfig& config);

  /// Whether the cached-id columns store u32 (bits <= 32).
  bool narrow_ids() const noexcept { return table_id_.narrow(); }

  int row_width() const noexcept { return row_width_; }
  /// Offset of `slot`'s first table cell; cell j of the row is at + j.
  std::uint64_t row_offset(NodeSlot slot) const noexcept {
    return slot * static_cast<std::uint64_t>(row_width_);
  }

  // --- Cell reads (offsets are row_offset(slot) + index).
  NodeSlot entry(std::uint64_t offset) const { return table_[offset]; }
  std::uint32_t entry_generation(std::uint64_t offset) const {
    return table_gen_[offset];
  }
  std::int32_t stamp(std::uint64_t offset) const {
    return refreshed_at_[offset];
  }
  /// The row's refresh stamps, row_width() contiguous values.
  const std::int32_t* row_stamps(NodeSlot slot) const {
    return refreshed_at_.data() + row_offset(slot);
  }
  /// Earliest round at which `slot`'s row can hold a due cell.
  std::int32_t due_round(NodeSlot slot) const {
    return table_due_round_[slot];
  }
  void set_due_round(NodeSlot slot, std::int32_t round) {
    table_due_round_[slot] = round;
  }
  NodeSlot successor(NodeSlot slot, int t) const {
    return successors_[successor_offset(slot, t)];
  }
  std::uint32_t successor_generation(NodeSlot slot, int t) const {
    return successors_gen_[successor_offset(slot, t)];
  }
  std::int32_t successors_refreshed_at(NodeSlot slot) const {
    return successors_refreshed_at_[slot];
  }

  // --- Cell writes.
  /// Re-stamps one table cell (the construction-time age stagger).
  void set_stamp(std::uint64_t offset, std::int32_t stamp) {
    refreshed_at_[offset] = stamp;
  }
  void set_successors_refreshed_at(NodeSlot slot, std::int32_t stamp) {
    successors_refreshed_at_[slot] = stamp;
  }

  /// Installs `chosen` (kNoSlot for an empty cell) at `offset`, stamped
  /// `round` -- refreshes, bulk Kademlia rebuilds, join announcements.
  /// The cached id is the target's install-time id: for as long as the
  /// entry stays valid this IS its current id (ids change only on rejoin,
  /// which bumps the generation).  Empty cells carry the owner's own id,
  /// which every kernel's admissibility arithmetic rejects (progress 0 on
  /// the ring, equal XOR distance), so kernels can screen candidates by
  /// cached id without ever probing an out-of-row slot.
  void install(std::uint64_t offset, NodeSlot chosen,
               const SparseMembership& membership, std::uint64_t owner_id,
               std::int32_t round) {
    write(offset, chosen,
          chosen == kNoSlot ? 0 : membership.generation(chosen),
          chosen == kNoSlot ? owner_id : membership.id_of(chosen), round);
  }

  /// Chord's bulk finger rebuild of `slot`'s row: finger j + 1 points at
  /// successor(id + 2^(bits - j - 1)).  Chord refreshes consume no rng,
  /// so this is exactly install() per index with the per-call reloads
  /// hoisted out of the loop -- the join-storm path.
  void install_chord_row(NodeSlot slot, const SparseMembership& membership,
                         std::int32_t round);

  /// Rebuilds `slot`'s successor list from ring position `from_position`
  /// (the next s ring members) and stamps it `round`.  A self-entry (tiny
  /// populations wrap the ring onto the owner) carries the owner's id,
  /// inadmissible to every kernel by arithmetic alone.
  void rebuild_successors(NodeSlot slot, const SparseMembership& membership,
                          std::uint64_t from_position, std::int32_t round);

  /// The Kademlia LRU eviction: drops cell `cell` of the k-cell bucket at
  /// `bucket_base` by shifting the cells behind it one toward the head
  /// (insertion order and stamps preserved).  The tail cell keeps a stale
  /// copy; the caller refreshes it -- the replacement enters at the
  /// newcomer end.
  void evict(std::uint64_t bucket_base, int cell, int k);

  /// Checks the rows of every present slot against `membership`,
  /// throwing PreconditionError on the first violation:
  ///  * no entry's generation is ahead of its target's (generations only
  ///    increase), and every entry whose generation is its target's
  ///    current one -- every valid entry -- caches, at the column's width,
  ///    exactly the target's id;
  ///  * every empty (kNoSlot) table cell caches its owner's id;
  ///  * no stamp lies past `round`;
  ///  * with `due_bound` (rho = 0 worlds), each row's due round is at most
  ///    its true minimum stamp + `refresh_interval`.
  /// O(capacity x (row width + s)); for tests.
  void audit(const SparseMembership& membership, int round,
             int refresh_interval, bool due_bound) const;

  /// The kernels' raw view of these rows over `membership`.  `Id` must
  /// be the column type: std::uint32_t iff narrow_ids().
  template <typename Id>
  ChurnKernelCtx<Id> kernel_view(const SparseMembership& membership) const {
    ChurnKernelCtx<Id> ctx;
    ctx.ids = membership.id_data();
    ctx.alive_bits = membership.alive_bits_data();
    ctx.generations = membership.generation_data();
    ctx.table = table_.data();
    ctx.table_gen = table_gen_.data();
    ctx.table_id = table_id_.data<Id>();
    ctx.successors = successors_.data();
    ctx.successors_gen = successors_gen_.data();
    ctx.successors_id = successors_id_.data<Id>();
    ctx.row_width = row_width_;
    ctx.bucket_k = bucket_k_;
    ctx.s = s_;
    ctx.key_mask = membership.key_mask();
    return ctx;
  }

 private:
  // Cells per table row: shortcuts (Symphony), bits * bucket_k
  // (Kademlia), or bits (Chord).
  static int row_width_for(SparseChurnGeometry geometry,
                           const SparseChurnConfig& config);
  // Whether the id columns store u32: every id of a bits <= 32 key space
  // fits, so the narrowing is exact.
  static bool narrow_ids_for(const SparseChurnConfig& config) {
    return config.bits <= 32;
  }
  std::uint64_t successor_offset(NodeSlot slot, int t) const noexcept {
    return slot * static_cast<std::uint64_t>(s_) +
           static_cast<std::uint64_t>(t);
  }
  void write(std::uint64_t offset, NodeSlot slot, std::uint32_t generation,
             std::uint64_t id, std::int32_t round) {
    table_[offset] = slot;
    table_gen_[offset] = generation;
    table_id_.set(offset, id);
    refreshed_at_[offset] = round;
  }

  int row_width_;
  int bucket_k_;
  int s_;
  // Row-major [slot][index] table entries, the generation each entry was
  // installed against, the install-time id of its target, and the round
  // it was refreshed.
  std::vector<NodeSlot> table_;
  std::vector<std::uint32_t> table_gen_;
  IdColumn table_id_;
  std::vector<std::int32_t> refreshed_at_;
  // Per slot: earliest round at which the row can hold a due entry (min
  // refreshed_at over the row + R, maintained conservatively: stamps only
  // increase between scans).  Lets rho = 0 maintenance skip whole rows
  // without touching them.  INT32_MIN = "possibly due immediately": rows
  // earn a real bound at their first full maintenance scan.
  std::vector<std::int32_t> table_due_round_;
  // Row-major [slot][0..s) successor lists + generations + cached target
  // ids (same discipline as the table) + per-node refresh stamps.
  std::vector<NodeSlot> successors_;
  std::vector<std::uint32_t> successors_gen_;
  IdColumn successors_id_;
  std::vector<std::int32_t> successors_refreshed_at_;
};

}  // namespace dht::churn
