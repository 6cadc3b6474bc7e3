#include "sparse/sparse_space.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/hugepage.hpp"
#include "sim/shard_pool.hpp"

namespace dht::sparse {

SparseIdSpace::SparseIdSpace(int bits, std::uint64_t node_count,
                             math::Rng& rng)
    : bits_(bits) {
  DHT_CHECK(bits >= 1 && bits <= 63, "sparse space supports 1 <= bits <= 63");
  DHT_CHECK(node_count >= 2, "sparse space needs at least two nodes");
  DHT_CHECK(node_count <= (std::uint64_t{1} << std::min(bits, 26)),
            "node_count must fit the key space and stay <= 2^26");

  const std::uint64_t size = std::uint64_t{1} << bits_;
  if (node_count == size) {
    // Fully populated: the sparse machinery degenerates to the dense case.
    ids_.resize(node_count);
    for (std::uint64_t i = 0; i < node_count; ++i) {
      ids_[i] = i;
    }
    return;
  }
  // Distinct uniform ids by batched draw + sort + dedup: each round draws
  // the missing ids, sorts them, merges them into the sorted distinct
  // prefix, and drops duplicates.  This needs no hash set (8 bytes per
  // node, million-node spaces construct in one or two rounds at real-world
  // densities) and converges for any density < 1.  A power-of-two
  // uniform_below is one masked draw, so a round's draws split into chunks
  // (sim::run_draw_chunks) that draw and sort on every core, then merge
  // pairwise.
  common::reserve_hugepages(ids_, node_count);
  ids_.resize(node_count);
  std::uint64_t held = 0;  // ids_[0, held) is sorted and distinct
  while (held < node_count) {
    const std::uint64_t fresh = node_count - held;
    const auto tail = ids_.begin() + static_cast<std::ptrdiff_t>(held);
    sim::run_draw_chunks(
        fresh, 1, rng,
        [&](std::uint64_t begin, std::uint64_t end, math::Rng& chunk_rng) {
          for (std::uint64_t v = begin; v < end; ++v) {
            tail[v] = chunk_rng.uniform_below(size);
          }
          std::sort(tail + begin, tail + end);
        });
    for (std::uint64_t run = sim::kDrawChunkNodes; run < fresh; run *= 2) {
      sim::run_sharded(
          (fresh + 2 * run - 1) / (2 * run),
          sim::PoolOptions{.threads = sim::resolve_threads(0), .chunk = 1},
          [&](std::uint64_t pair) {
            const std::uint64_t lo = 2 * run * pair;
            std::inplace_merge(tail + lo, tail + std::min(fresh, lo + run),
                               tail + std::min(fresh, lo + 2 * run));
          });
    }
    std::inplace_merge(ids_.begin(), tail, ids_.end());
    held = static_cast<std::uint64_t>(
        std::unique(ids_.begin(), ids_.end()) - ids_.begin());
  }
}

sim::NodeId SparseIdSpace::id_of(NodeIndex index) const {
  DHT_CHECK(index < ids_.size(), "node index out of range");
  return ids_[index];
}

NodeIndex SparseIdSpace::successor_of_key(sim::NodeId key) const {
  DHT_CHECK(key < key_space_size(), "key out of range");
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), key);
  if (it == ids_.end()) {
    return 0;  // wrap to the smallest identifier
  }
  return static_cast<NodeIndex>(it - ids_.begin());
}

NodeIndex SparseIdSpace::ring_step(NodeIndex index,
                                   std::uint64_t steps) const {
  DHT_CHECK(index < ids_.size(), "node index out of range");
  return static_cast<NodeIndex>(
      (index + steps) % static_cast<std::uint64_t>(ids_.size()));
}

}  // namespace dht::sparse
