// The routing rows of the sparse churn world (churn/sparse_trajectory.hpp):
// one owner for the per-cell layout, so the layout changes in one place.
//
// Every present member owns one table row of `row_width` cells (Chord
// fingers, Kademlia bucket contacts, Symphony shortcuts) and one successor
// list of `s` cells.  Each cell is stored column-wise: the target slot,
// the target's occupancy generation at install (an entry is valid only
// while its target keeps that generation -- identities never return), the
// target's install-time identifier, and -- table cells only -- the round
// the cell was refreshed.
//
// Rows belong to present members only.  A slot -> row map sends each
// present slot to its row (kNoRow for absent slots): a joining slot
// acquire()s a row -- the most recently freed one, else the next row never
// used -- and a leaving slot release()s it.  The rows live in one
// page-backed reservation of `capacity` rows per column whose pages are
// touched only when a row is first handed out, so resident row memory
// follows the population's high-water mark (about a x capacity at
// availability a), not the roster.  The rows a cohort takes past the
// high-water mark are advised onto huge pages before they are filled --
// whole huge pages only, so the initial cohort's rows get them and the few
// rows later growth adds take small ones.  The reservation and each of its
// columns start on a huge page, so which rows those are follows from the
// layout alone, the same in every process.  Rows never move: pointers into
// them stay valid while the world steps.  The footprint check
// (bytes_for) still charges every row of the reservation: all slots
// present is the worst case.  Row placement feeds no decision, so
// every draw, cell and route is the same as with one row per roster slot.
// In AddressSanitizer builds a free row is poisoned in every column, so any
// read of a departed member's row fails; ASan tracks 8-byte granules, so
// where a column's row segment is not a multiple of 8 bytes (odd widths of
// u32 cells) the granule shared by two neighbouring rows stays readable
// while either is in use.
//
// Two per-slot scalars stay slot-indexed: the earliest round at which the
// row can hold a due cell, and the successor list's refresh stamp.  The
// rho = 0 due-row skip is then a sequential scan that never touches the
// row it skips.
//
// The id columns are as wide as the key space needs: u32 when bits <= 32
// (every id fits), u64 above.  A table cell is then 16 or 20 bytes and a
// successor cell 12 or 16.  The columns stay separate (SoA): the ring
// kernels scan only the id row and probe slot + generation for the ~2
// candidates a hop tries, so narrow ids halve the bytes each hop scans.
// The kernels take the id type as a template parameter (ChurnKernelCtx<Id>)
// and the world picks the instantiation once per measure call.
//
// ChurnRows owns allocation, row hand-out, every cell write (single
// install, the Chord bulk rebuild, the join-announcement insert,
// successor-list rebuilds, the Kademlia LRU eviction shift), and the
// flattened kernel view; the world decides *what* to install and reads
// cells through the accessors.
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "churn/membership.hpp"
#include "churn/sparse_config.hpp"
#include "common/page_buffer.hpp"

namespace dht::churn {

// Flattened routing view over a world's slot state: identifiers (stale for
// departed slots), the packed epoch structure (one alive-bitmap u64 word
// per 64 slots + the flat generation array), the slot -> row map, the
// row-major tables with their cached install-time target ids, and the
// successor lists.  Kernels compare identifiers but step between slots --
// the sparse/flat_sparse.hpp pattern with mutable membership underneath.
// `Id` is the cached-id column type (ChurnRows::narrow_ids); membership ids
// stay 64-bit.  Only present slots have rows: read a slot's row only after
// its presence probe passed.
template <typename Id>
struct ChurnKernelCtx {
  const std::uint64_t* ids = nullptr;
  const std::uint64_t* alive_bits = nullptr;
  const std::uint32_t* generations = nullptr;
  const std::uint32_t* row_of = nullptr;
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

  /// Offset of present `slot`'s first table cell.
  std::uint64_t row_base(NodeSlot slot) const {
    return row_of[slot] * static_cast<std::uint64_t>(row_width);
  }
  /// Offset of present `slot`'s first successor-list cell.
  std::uint64_t successor_base(NodeSlot slot) const {
    return row_of[slot] * static_cast<std::uint64_t>(s);
  }
};

// One cached-id column over memory the caller owns: u32 cells when narrow,
// u64 otherwise.
class IdColumn {
 public:
  IdColumn() = default;
  IdColumn(void* cells, bool narrow) : cells_(cells), narrow_(narrow) {}
  static std::uint64_t cell_bytes(bool narrow) noexcept {
    return narrow ? sizeof(std::uint32_t) : sizeof(std::uint64_t);
  }
  bool narrow() const noexcept { return narrow_; }
  const void* cells() const noexcept { return cells_; }
  std::uint64_t get(std::uint64_t i) const {
    return narrow_ ? static_cast<const std::uint32_t*>(cells_)[i]
                   : static_cast<const std::uint64_t*>(cells_)[i];
  }
  /// Stores `id`; narrow columns hold only ids below 2^32.
  void set(std::uint64_t i, std::uint64_t id) {
    if (narrow_) {
      static_cast<std::uint32_t*>(cells_)[i] = static_cast<std::uint32_t>(id);
    } else {
      static_cast<std::uint64_t*>(cells_)[i] = id;
    }
  }
  template <typename Id>
  const Id* data() const noexcept {
    static_assert(std::is_same_v<Id, std::uint32_t> ||
                  std::is_same_v<Id, std::uint64_t>);
    return static_cast<const Id*>(cells_);
  }

 private:
  void* cells_ = nullptr;
  bool narrow_ = false;
};

class ChurnRows {
 public:
  /// The row of an absent slot.
  static constexpr std::uint32_t kNoRow =
      std::numeric_limits<std::uint32_t>::max();

  /// Reserves (without touching) config.capacity rows, advised onto huge
  /// pages where possible; no slot holds a row yet.
  ChurnRows(SparseChurnGeometry geometry, const SparseChurnConfig& config);
  ~ChurnRows();
  ChurnRows(const ChurnRows&) = delete;
  ChurnRows& operator=(const ChurnRows&) = delete;

  /// Bytes the rows can occupy for (geometry, config): every one of the
  /// capacity rows in use -- every slot present -- plus the per-slot
  /// scalars, the slot -> row map and the free list.  Saturates at
  /// UINT64_MAX.
  static std::uint64_t bytes_for(SparseChurnGeometry geometry,
                                 const SparseChurnConfig& config);

  /// Hands each of `slots` (absent until now, present from here on) a row,
  /// in order: the most recently released one, else the next never-used
  /// one.  A row's cells keep whatever an earlier owner left; the caller
  /// rebuilds the whole row and successor list before anything reads
  /// them.  Each row's due round restarts at "possibly due".
  void acquire(const std::vector<NodeSlot>& slots);
  /// Returns departing `slot`'s row to the free list.
  void release(NodeSlot slot);

  /// Whether the cached-id columns store u32 (bits <= 32).
  bool narrow_ids() const noexcept { return table_id_.narrow(); }

  int row_width() const noexcept { return row_width_; }
  /// Offset of present `slot`'s first table cell; cell j of the row is at
  /// + j.
  std::uint64_t row_offset(NodeSlot slot) const noexcept {
    return row_of_[slot] * static_cast<std::uint64_t>(row_width_);
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
    return refreshed_at_ + row_offset(slot);
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

  /// Checks the rows against `membership`, throwing PreconditionError on
  /// the first violation:
  ///  * the slot -> row map is a bijection between the present slots and
  ///    the rows in use: absent slots map to kNoRow, no row has two
  ///    owners, and the free rows plus the rows in use are exactly the
  ///    rows ever handed out;
  ///  * no entry's generation is ahead of its target's (generations only
  ///    increase), and every entry whose generation is its target's
  ///    current one -- every valid entry -- caches, at the column's width,
  ///    exactly the target's id;
  ///  * every empty (kNoSlot) table cell caches its owner's id;
  ///  * every successor list runs clockwise from its owner: cached ids at
  ///    strictly increasing clockwise distance, up to a self-entry (a tiny
  ///    ring wrapping onto the owner);
  ///  * no stamp lies past `round`;
  ///  * with `due_bound` (rho = 0 worlds), each row's due round is at most
  ///    its true minimum stamp + `refresh_interval`.
  /// O(capacity + population x (row width + s)); for tests.
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
    ctx.row_of = row_of_.data();
    ctx.table = table_;
    ctx.table_gen = table_gen_;
    ctx.table_id = table_id_.data<Id>();
    ctx.successors = successors_;
    ctx.successors_gen = successors_gen_;
    ctx.successors_id = successors_id_.data<Id>();
    ctx.row_width = row_width_;
    ctx.bucket_k = bucket_k_;
    ctx.s = s_;
    ctx.key_mask = membership.key_mask();
    return ctx;
  }

 private:
  // Byte offsets of the seven columns inside the reservation (each column
  // huge-page-aligned, so a column's pages hold only its own rows) and its
  // total size.
  struct Layout {
    std::uint64_t table, table_gen, table_id, refreshed_at;
    std::uint64_t successors, successors_gen, successors_id;
    std::uint64_t bytes;
  };
  static Layout layout_for(int row_width, int s, bool narrow,
                           std::uint64_t capacity);
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
    return row_of_[slot] * static_cast<std::uint64_t>(s_) +
           static_cast<std::uint64_t>(t);
  }
  void write(std::uint64_t offset, NodeSlot slot, std::uint32_t generation,
             std::uint64_t id, std::int32_t round) {
    table_[offset] = slot;
    table_gen_[offset] = generation;
    table_id_.set(offset, id);
    refreshed_at_[offset] = round;
  }
  // Calls fn(begin, bytes) on the span of rows [first_row, first_row +
  // rows) in each of the seven columns.
  template <typename Fn>
  void for_each_segment(std::uint64_t first_row, std::uint64_t rows,
                        Fn&& fn) const;

  int row_width_;
  int bucket_k_;
  int s_;
  // Per slot: the slot's row, kNoRow while absent.
  std::vector<std::uint32_t> row_of_;
  // Released rows, reused last-in first-out; rows at or past rows_used_
  // were never handed out (their pages are still untouched).
  std::vector<std::uint32_t> free_rows_;
  std::uint32_t rows_used_ = 0;
  // Per slot: earliest round at which the row can hold a due entry (min
  // refreshed_at over the row + R, maintained conservatively: stamps only
  // increase between scans).  Lets rho = 0 maintenance skip whole rows
  // without touching them.  INT32_MIN = "possibly due immediately": rows
  // earn a real bound at their first full maintenance scan.
  std::vector<std::int32_t> table_due_round_;
  // Per slot: the round the successor list was last rebuilt.
  std::vector<std::int32_t> successors_refreshed_at_;
  // The reservation the columns below point into.
  Layout layout_;
  common::PageBuffer arena_;
  // Row-major [row][index] table entries, the generation each entry was
  // installed against, the install-time id of its target, and the round
  // it was refreshed.
  NodeSlot* table_;
  std::uint32_t* table_gen_;
  IdColumn table_id_;
  std::int32_t* refreshed_at_;
  // Row-major [row][0..s) successor lists + generations + cached target
  // ids (same discipline as the table).
  NodeSlot* successors_;
  std::uint32_t* successors_gen_;
  IdColumn successors_id_;
};

}  // namespace dht::churn
