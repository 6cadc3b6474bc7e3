#include "sim/prefix_table.hpp"

#include "common/check.hpp"
#include "common/hugepage.hpp"

namespace dht::sim {

PrefixTable::PrefixTable(const IdSpace& space, math::Rng& rng)
    : d_(space.bits()), size_(space.size()) {
  common::reserve_hugepages(entries_, size_ * static_cast<std::uint64_t>(d_));
  for (NodeId v = 0; v < size_; ++v) {
    for (int level = 1; level <= d_; ++level) {
      // Keep the first level-1 bits, flip bit `level`, randomize the rest
      // (the flip is flip_level(v, level, d_) without its range checks).
      const int suffix_bits = d_ - level;
      const NodeId kept = ((v >> suffix_bits) ^ 1) << suffix_bits;
      const NodeId suffix =
          suffix_bits == 0
              ? 0
              : rng.uniform_below(std::uint64_t{1} << suffix_bits);
      entries_.push_back(static_cast<std::uint32_t>(kept | suffix));
    }
  }
}

PrefixTable::PrefixTable(const IdSpace& space,
                         std::vector<std::uint32_t> entries)
    : d_(space.bits()), size_(space.size()), entries_(std::move(entries)) {
  DHT_CHECK(entries_.size() == size_ * static_cast<std::uint64_t>(d_),
            "entry count must be N * d");
  for (NodeId v = 0; v < size_; ++v) {
    for (int level = 1; level <= d_; ++level) {
      const NodeId entry = entries_[v * static_cast<std::uint64_t>(d_) +
                                    static_cast<std::uint64_t>(level - 1)];
      DHT_CHECK(entry < size_, "entry out of the id space");
      DHT_CHECK(shares_prefix(v, entry, level - 1, d_) &&
                    bit_at_level(v, level, d_) !=
                        bit_at_level(entry, level, d_),
                "entry violates its (prefix, flipped-bit) class");
    }
  }
}

NodeId PrefixTable::neighbor(NodeId node, int level) const {
  DHT_CHECK(node < size_, "node id out of range");
  DHT_CHECK(level >= 1 && level <= d_, "level out of range");
  return entries_[node * static_cast<std::uint64_t>(d_) +
                  static_cast<std::uint64_t>(level - 1)];
}

}  // namespace dht::sim
