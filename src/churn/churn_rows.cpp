#include "churn/churn_rows.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/hugepage.hpp"
#include "common/memory.hpp"

namespace dht::churn {

void IdColumn::allocate(std::uint64_t cells, bool narrow) {
  narrow_ = narrow;
  if (narrow) {
    common::reserve_hugepages(narrow_ids_, cells);
    narrow_ids_.assign(cells, 0);
  } else {
    common::reserve_hugepages(wide_ids_, cells);
    wide_ids_.assign(cells, 0);
  }
}

ChurnRows::ChurnRows(SparseChurnGeometry geometry,
                     const SparseChurnConfig& config)
    : row_width_(row_width_for(geometry, config)),
      bucket_k_(config.bucket_k),
      s_(config.successors) {
  const std::uint64_t capacity = config.capacity;
  const std::uint64_t row_cells =
      capacity * static_cast<std::uint64_t>(row_width_);
  const std::uint64_t succ_cells = capacity * static_cast<std::uint64_t>(s_);
  // The row arenas are the kernels' random-access working set; back them
  // with huge pages (best effort) before first touch so the fill faults
  // 2MB pages directly -- same rationale as the static engine's tables.
  common::reserve_hugepages(table_, row_cells);
  common::reserve_hugepages(table_gen_, row_cells);
  common::reserve_hugepages(refreshed_at_, row_cells);
  common::reserve_hugepages(successors_, succ_cells);
  common::reserve_hugepages(successors_gen_, succ_cells);
  table_.assign(row_cells, kNoSlot);
  table_gen_.assign(row_cells, 0);
  table_id_.allocate(row_cells, narrow_ids_for(config));
  refreshed_at_.assign(row_cells, 0);
  table_due_round_.assign(capacity, std::numeric_limits<std::int32_t>::min());
  successors_.assign(succ_cells, kNoSlot);
  successors_gen_.assign(succ_cells, 0);
  successors_id_.allocate(succ_cells, narrow_ids_for(config));
  successors_refreshed_at_.assign(capacity, 0);
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
  const std::uint64_t id_bytes = narrow_ids_for(config)
                                     ? sizeof(std::uint32_t)
                                     : sizeof(std::uint64_t);
  const std::uint64_t cell_bytes = sizeof(NodeSlot) + sizeof(std::uint32_t) +
                                   id_bytes + sizeof(std::int32_t);
  const std::uint64_t successor_bytes =
      sizeof(NodeSlot) + sizeof(std::uint32_t) + id_bytes;
  const std::uint64_t slot_bytes = common::saturating_add(
      common::saturating_add(
          common::saturating_mul(
              static_cast<std::uint64_t>(row_width_for(geometry, config)),
              cell_bytes),
          common::saturating_mul(
              static_cast<std::uint64_t>(config.successors),
              successor_bytes)),
      2 * sizeof(std::int32_t));  // due round + successor stamp
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
    for (int t = 0; t < s_; ++t) {
      const std::uint64_t offset = successor_offset(slot, t);
      check_entry(successors_[offset], successors_gen_[offset],
                  successors_id_.get(offset));
    }
    DHT_CHECK(successors_refreshed_at_[slot] <= round,
              "successor list stamped past the current round");
  }
}

}  // namespace dht::churn
