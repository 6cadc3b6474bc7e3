#include "sim/prefix_table.hpp"

#include "common/check.hpp"

namespace dht::sim {

PrefixTable::PrefixTable(const IdSpace& space, math::Rng& rng)
    : rows_(EntryClass::kPrefix, space.bits(), space.size()) {
  const int d = space.bits();
  // Level d's class is the single node with the last bit flipped: no draw.
  std::uint64_t members[ClassRows::kMaxLevels] = {};
  for (NodeId v = 0; v < space.size(); ++v) {
    for (int level = 1; level < d; ++level) {
      members[level - 1] = rng.uniform_below(std::uint64_t{1} << (d - level));
    }
    rows_.set_row(v, members);
  }
}

PrefixTable::PrefixTable(const IdSpace& space,
                         const std::vector<std::uint32_t>& entries)
    : rows_(EntryClass::kPrefix, space.bits(), space.size()) {
  const int d = space.bits();
  DHT_CHECK(entries.size() == space.size() * static_cast<std::uint64_t>(d),
            "entry count must be N * d");
  for (NodeId v = 0; v < space.size(); ++v) {
    for (int level = 1; level <= d; ++level) {
      const NodeId entry = entries[v * static_cast<std::uint64_t>(d) +
                                   static_cast<std::uint64_t>(level - 1)];
      const std::uint64_t member =
          entry & ((std::uint64_t{1} << (d - level)) - 1);
      DHT_CHECK(class_member(EntryClass::kPrefix, d, v, level, member) == entry,
                "entry violates its (prefix, flipped-bit) class");
      rows_.set_member(v, level, member);
    }
  }
}

PrefixTable::PrefixTable(ClassRows rows) : rows_(std::move(rows)) {
  DHT_CHECK(rows_.entry_class() == EntryClass::kPrefix &&
                rows_.bytes() == (rows_.row_bytes() << levels()) +
                                     ClassRows::kTailBytes,
            "prefix table needs one prefix-class row per node");
}

NodeId PrefixTable::neighbor(NodeId node, int level) const {
  DHT_CHECK(node >> levels() == 0, "node id out of range");
  DHT_CHECK(level >= 1 && level <= levels(), "level out of range");
  return rows_.entry(node, level);
}

}  // namespace dht::sim
