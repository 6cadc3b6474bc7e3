#include "sparse/sparse_space.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/hugepage.hpp"

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
  // Distinct uniform ids by batched draw + sort + dedup: each round tops the
  // array up to node_count fresh draws, sorts, and drops duplicates.  This
  // needs no hash set (8 bytes per node, million-node spaces construct in
  // one or two rounds at real-world densities) and converges for any
  // density < 1 -- the resample loop is the coupon-collector tail the old
  // rejection sampler paid per draw.
  common::reserve_hugepages(ids_, node_count);
  while (ids_.size() < node_count) {
    while (ids_.size() < node_count) {
      ids_.push_back(rng.uniform_below(size));
    }
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
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
