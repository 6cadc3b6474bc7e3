#include "churn/churn_rows.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/hugepage.hpp"
#include "common/memory.hpp"
#include "common/sanitizer.hpp"

namespace dht::churn {

namespace {

// Column alignment inside the reservation, which itself starts on a huge
// page: one huge page.  No page then holds two columns' rows, and which of
// a cohort's rows land on whole huge pages follows from the layout alone,
// the same in every process; at page alignment it would move with the
// mapping's address, and the share of the kernels' working set on small
// pages with it.  The padding is address space only: its pages are never
// touched.
constexpr std::uint64_t kColumnAlign = common::kHugePageBytes;

std::uint64_t column_span(std::uint64_t cells, std::uint64_t cell_bytes) {
  return (cells * cell_bytes + kColumnAlign - 1) & ~(kColumnAlign - 1);
}

}  // namespace

ChurnRows::Layout ChurnRows::layout_for(int row_width, int s, bool narrow,
                                        std::uint64_t capacity) {
  const std::uint64_t row_cells =
      capacity * static_cast<std::uint64_t>(row_width);
  const std::uint64_t succ_cells = capacity * static_cast<std::uint64_t>(s);
  const std::uint64_t id_bytes = IdColumn::cell_bytes(narrow);
  Layout layout{};
  std::uint64_t next = 0;
  const auto carve = [&](std::uint64_t& offset, std::uint64_t cells,
                         std::uint64_t cell_bytes) {
    offset = next;
    next += column_span(cells, cell_bytes);
  };
  carve(layout.table, row_cells, sizeof(NodeSlot));
  carve(layout.table_gen, row_cells, sizeof(std::uint32_t));
  carve(layout.table_id, row_cells, id_bytes);
  carve(layout.refreshed_at, row_cells, sizeof(std::int32_t));
  carve(layout.successors, succ_cells, sizeof(NodeSlot));
  carve(layout.successors_gen, succ_cells, sizeof(std::uint32_t));
  carve(layout.successors_id, succ_cells, id_bytes);
  layout.bytes = next;
  return layout;
}

ChurnRows::ChurnRows(SparseChurnGeometry geometry,
                     const SparseChurnConfig& config)
    : row_width_(row_width_for(geometry, config)),
      bucket_k_(config.bucket_k),
      s_(config.successors),
      layout_(layout_for(row_width_, s_, narrow_ids_for(config),
                         config.capacity)),
      arena_(layout_.bytes, common::kHugePageBytes) {
  const std::uint64_t capacity = config.capacity;
  row_of_.assign(capacity, kNoRow);
  free_rows_.reserve(capacity);
  table_due_round_.assign(capacity, std::numeric_limits<std::int32_t>::min());
  successors_refreshed_at_.assign(capacity, 0);
  char* const base = arena_.as<char>();
  table_ = reinterpret_cast<NodeSlot*>(base + layout_.table);
  table_gen_ = reinterpret_cast<std::uint32_t*>(base + layout_.table_gen);
  table_id_ = IdColumn(base + layout_.table_id, narrow_ids_for(config));
  refreshed_at_ = reinterpret_cast<std::int32_t*>(base + layout_.refreshed_at);
  successors_ = reinterpret_cast<NodeSlot*>(base + layout_.successors);
  successors_gen_ =
      reinterpret_cast<std::uint32_t*>(base + layout_.successors_gen);
  successors_id_ =
      IdColumn(base + layout_.successors_id, narrow_ids_for(config));
  DHT_ASAN_POISON(base, layout_.bytes);
}

ChurnRows::~ChurnRows() {
  // The pages go back to the kernel; clear their poison so a later
  // mapping at the same addresses starts readable.
  DHT_ASAN_UNPOISON(arena_.as<char>(), layout_.bytes);
}

void ChurnRows::acquire(const std::vector<NodeSlot>& slots) {
  // The rows this cohort takes past the high-water mark have never been
  // touched.  They are the kernels' random-access working set, so advise
  // them onto huge pages (best effort) before the caller fills them: the
  // fill then faults 2MB pages directly -- same rationale as the static
  // engine's tables.  The advice covers only whole huge pages inside each
  // column's new span, so the initial cohort lands on huge pages while the
  // few rows later cohorts add past it take small pages, and resident
  // memory never runs a partly used huge page ahead of the high-water
  // mark.
  const std::uint64_t reused =
      std::min<std::uint64_t>(free_rows_.size(), slots.size());
  for_each_segment(rows_used_, slots.size() - reused,
                   [](char* begin, std::uint64_t bytes) {
                     common::advise_hugepages(begin, bytes);
                   });
  for (const NodeSlot slot : slots) {
    std::uint32_t row;
    if (!free_rows_.empty()) {
      row = free_rows_.back();
      free_rows_.pop_back();
    } else {
      row = rows_used_++;
    }
    row_of_[slot] = row;
    table_due_round_[slot] = std::numeric_limits<std::int32_t>::min();
    for_each_segment(row, 1, [](char* begin, std::uint64_t bytes) {
      DHT_ASAN_UNPOISON(begin, bytes);
    });
  }
}

void ChurnRows::release(NodeSlot slot) {
  const std::uint32_t row = row_of_[slot];
  for_each_segment(row, 1, [](char* begin, std::uint64_t bytes) {
    DHT_ASAN_POISON(begin, bytes);
  });
  free_rows_.push_back(row);
  row_of_[slot] = kNoRow;
}

template <typename Fn>
void ChurnRows::for_each_segment(std::uint64_t first_row, std::uint64_t rows,
                                 Fn&& fn) const {
  char* const base = arena_.as<char>();
  const auto segment = [&](std::uint64_t column, std::uint64_t row_bytes) {
    fn(base + column + first_row * row_bytes, rows * row_bytes);
  };
  const auto width = static_cast<std::uint64_t>(row_width_);
  const auto s = static_cast<std::uint64_t>(s_);
  const std::uint64_t id_bytes = IdColumn::cell_bytes(narrow_ids());
  segment(layout_.table, width * sizeof(NodeSlot));
  segment(layout_.table_gen, width * sizeof(std::uint32_t));
  segment(layout_.table_id, width * id_bytes);
  segment(layout_.refreshed_at, width * sizeof(std::int32_t));
  segment(layout_.successors, s * sizeof(NodeSlot));
  segment(layout_.successors_gen, s * sizeof(std::uint32_t));
  segment(layout_.successors_id, s * id_bytes);
}

int ChurnRows::row_width_for(SparseChurnGeometry geometry,
                             const SparseChurnConfig& config) {
  switch (geometry) {
    case SparseChurnGeometry::kSymphony:
      return config.shortcuts;
    case SparseChurnGeometry::kKademlia:
      return config.bits * config.bucket_k;
    case SparseChurnGeometry::kChord:
      break;
  }
  return config.bits;
}

std::uint64_t ChurnRows::bytes_for(SparseChurnGeometry geometry,
                                   const SparseChurnConfig& config) {
  const std::uint64_t id_bytes = IdColumn::cell_bytes(narrow_ids_for(config));
  const std::uint64_t cell_bytes = sizeof(NodeSlot) + sizeof(std::uint32_t) +
                                   id_bytes + sizeof(std::int32_t);
  const std::uint64_t successor_bytes =
      sizeof(NodeSlot) + sizeof(std::uint32_t) + id_bytes;
  // Per slot beside its row: the due round and successor stamp, the slot
  // -> row map entry, and a free-list entry.
  constexpr std::uint64_t kSlotScalarBytes =
      2 * sizeof(std::int32_t) + 2 * sizeof(std::uint32_t);
  const std::uint64_t slot_bytes = common::saturating_add(
      common::saturating_add(
          common::saturating_mul(
              static_cast<std::uint64_t>(row_width_for(geometry, config)),
              cell_bytes),
          common::saturating_mul(
              static_cast<std::uint64_t>(config.successors),
              successor_bytes)),
      kSlotScalarBytes);
  return common::saturating_mul(config.capacity, slot_bytes);
}

void ChurnRows::install_chord_row(NodeSlot slot,
                                  const SparseMembership& membership,
                                  std::int32_t round) {
  const std::uint64_t id = membership.id_of(slot);
  const std::uint64_t mask = membership.key_mask();
  const int bits = membership.bits();
  const std::uint64_t base = row_offset(slot);
  for (int j = 0; j < row_width_; ++j) {
    const std::uint64_t key = (id + (std::uint64_t{1} << (bits - j - 1))) & mask;
    const NodeSlot chosen = membership.successor_of_key(key);
    write(base + static_cast<std::uint64_t>(j), chosen,
          membership.generation(chosen), membership.id_of(chosen), round);
  }
}

void ChurnRows::rebuild_successors(NodeSlot slot,
                                   const SparseMembership& membership,
                                   std::uint64_t from_position,
                                   std::int32_t round) {
  for (int t = 0; t < s_; ++t) {
    const NodeSlot succ = membership.ring_successor(
        from_position, static_cast<std::uint64_t>(t));
    const std::uint64_t offset = successor_offset(slot, t);
    successors_[offset] = succ;
    successors_gen_[offset] = membership.generation(succ);
    successors_id_.set(offset, membership.id_of(succ));
  }
  successors_refreshed_at_[slot] = round;
}

void ChurnRows::evict(std::uint64_t bucket_base, int cell, int k) {
  for (int t = cell; t + 1 < k; ++t) {
    const std::uint64_t dst = bucket_base + static_cast<std::uint64_t>(t);
    table_[dst] = table_[dst + 1];
    table_gen_[dst] = table_gen_[dst + 1];
    table_id_.set(dst, table_id_.get(dst + 1));
    refreshed_at_[dst] = refreshed_at_[dst + 1];
  }
}

void ChurnRows::audit(const SparseMembership& membership, int round,
                      int refresh_interval, bool due_bound) const {
  // The slot -> row map: a bijection between the present slots and the
  // rows in use, which together with the free rows are exactly the rows
  // handed out so far.
  DHT_CHECK(rows_used_ <= membership.capacity(),
            "more rows handed out than the roster has slots");
  std::vector<std::uint8_t> owned(rows_used_, 0);
  std::uint64_t in_use = 0;
  for (NodeSlot slot = 0; slot < membership.capacity(); ++slot) {
    const std::uint32_t row = row_of_[slot];
    if (!membership.present(slot)) {
      DHT_CHECK(row == kNoRow, "absent slot still holds a row");
      continue;
    }
    DHT_CHECK(row < rows_used_, "present slot holds no row");
    DHT_CHECK(owned[row] == 0, "row held by two slots");
    owned[row] = 1;
    ++in_use;
  }
  for (const std::uint32_t row : free_rows_) {
    DHT_CHECK(row < rows_used_ && owned[row] == 0,
              "free row is out of range, in use, or listed twice");
    owned[row] = 1;
  }
  DHT_CHECK(in_use + free_rows_.size() == rows_used_,
            "rows in use plus free rows differ from the rows handed out");

  const auto check_entry = [&](NodeSlot target, std::uint32_t generation,
                               std::uint64_t cached_id) {
    DHT_CHECK(target < membership.capacity(),
              "routing entry points outside the roster");
    const std::uint32_t current = membership.generation(target);
    DHT_CHECK(generation <= current,
              "routing entry generation is ahead of its target's");
    DHT_CHECK(generation != current || cached_id == membership.id_of(target),
              "valid routing entry caches a stale or truncated target id");
  };
  const std::uint64_t mask = membership.key_mask();
  for (NodeSlot slot = 0; slot < membership.capacity(); ++slot) {
    if (!membership.present(slot)) {
      continue;
    }
    const std::uint64_t owner_id = membership.id_of(slot);
    const std::uint64_t base = row_offset(slot);
    std::int32_t min_stamp = std::numeric_limits<std::int32_t>::max();
    for (int j = 0; j < row_width_; ++j) {
      const std::uint64_t offset = base + static_cast<std::uint64_t>(j);
      if (table_[offset] == kNoSlot) {
        DHT_CHECK(table_id_.get(offset) == owner_id,
                  "empty table cell must cache its owner's id");
      } else {
        check_entry(table_[offset], table_gen_[offset], table_id_.get(offset));
      }
      DHT_CHECK(refreshed_at_[offset] <= round,
                "table cell stamped past the current round");
      min_stamp = std::min(min_stamp, refreshed_at_[offset]);
    }
    DHT_CHECK(!due_bound || row_width_ == 0 ||
                  table_due_round_[slot] <= min_stamp + refresh_interval,
              "row due round exceeds its minimum stamp + R");
    // A list is s consecutive ring members as of its last rebuild, taken
    // clockwise from a point past the owner; cached ids never change, so
    // their clockwise distances from the owner keep rising until a tiny
    // ring wraps the list onto the owner itself.
    std::uint64_t last_distance = 0;
    for (int t = 0; t < s_; ++t) {
      const std::uint64_t offset = successor_offset(slot, t);
      const std::uint64_t cached_id = successors_id_.get(offset);
      check_entry(successors_[offset], successors_gen_[offset], cached_id);
      const std::uint64_t distance = (cached_id - owner_id) & mask;
      if (distance == 0) {
        break;
      }
      DHT_CHECK(distance > last_distance,
                "successor list does not run clockwise from its owner");
      last_distance = distance;
    }
    DHT_CHECK(successors_refreshed_at_[slot] <= round,
              "successor list stamped past the current round");
  }
}

}  // namespace dht::churn
