#include "sim/prefix_table.hpp"

#include "common/check.hpp"
#include "sim/shard_pool.hpp"

namespace dht::sim {

PrefixTable::PrefixTable(const IdSpace& space, math::Rng& rng)
    : rows_(EntryClass::kPrefix, space.bits(), space.size()) {
  const int d = space.bits();
  // Level d's class is the single node with the last bit flipped: no draw.
  // Every other level is one power-of-two draw, one next_u64.
  const auto fill = [&](NodeId begin, NodeId end, math::Rng& chunk_rng) {
    std::uint64_t members[ClassRows::kMaxLevels] = {};
    for (NodeId v = begin; v < end; ++v) {
      for (int level = 1; level < d; ++level) {
        members[level - 1] =
            chunk_rng.uniform_below(std::uint64_t{1} << (d - level));
      }
      rows_.set_row(v, members);
    }
  };
  run_draw_chunks(space.size(), d - 1, rng, fill);
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
