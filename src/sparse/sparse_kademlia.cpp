#include "sparse/sparse_kademlia.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.hpp"
#include "common/hugepage.hpp"

namespace dht::sparse {

SparseKademliaOverlay::SparseKademliaOverlay(const SparseIdSpace& space,
                                             math::Rng& rng)
    : SparseKademliaOverlay(space, rng, 1) {}

SparseKademliaOverlay::SparseKademliaOverlay(const SparseIdSpace& space,
                                             math::Rng& rng, int k)
    : space_(&space), k_(k) {
  DHT_CHECK(k >= 1 && k <= 64, "bucket width must be in [1, 64]");
  const int d = space.bits();
  const std::uint64_t n = space.node_count();
  const sim::NodeId* ids = space.ids().data();
  const auto row_width = static_cast<std::uint64_t>(d) * k;
  // Bucket i of node v holds the ids sharing v's first i-1 bits and
  // differing at bit i.  The nodes sharing v's first i-1 bits form a
  // contiguous index window; its level-i split (the first member with bit
  // i set -- members share the prefix, so that bit is sorted) cuts it into
  // v's side, the next level's window, and the far side, bucket i.  The
  // windows only narrow, so each split is a search of the current window,
  // and once the window is v alone every deeper bucket is empty.  Nodes
  // adjacent in ring order share their windows down to the level where
  // their ids first differ, so each node re-splits only from there.
  // window[i] holds the nodes sharing v's first i bits, bucket[i] the
  // range of bucket i + 1.
  std::vector<std::pair<NodeIndex, NodeIndex>> window(
      static_cast<std::size_t>(d) + 1, {0, static_cast<NodeIndex>(n)});
  std::vector<std::pair<NodeIndex, NodeIndex>> bucket(
      static_cast<std::size_t>(d));
  common::reserve_hugepages(contacts_, n * row_width);
  for (NodeIndex v = 0; v < n; ++v) {
    const sim::NodeId base = ids[v];
    // Levels above the first bit where v and v-1 differ keep v-1's
    // windows and buckets; v-1's window at that level held both nodes, so
    // v-1 split it.  The walk stops at `level`: buckets from there on are
    // empty.
    int level = v == 0 ? 0 : d - std::bit_width(ids[v - 1] ^ base);
    for (; level < d; ++level) {
      const auto [lo, hi] = window[static_cast<std::size_t>(level)];
      if (hi - lo == 1) {
        break;  // v alone: this and every deeper bucket is empty
      }
      const sim::NodeId bit = sim::NodeId{1} << (d - level - 1);
      const auto split = static_cast<NodeIndex>(
          std::partition_point(ids + lo, ids + hi,
                               [bit](sim::NodeId id) {
                                 return (id & bit) == 0;
                               }) -
          ids);
      const bool upper = (base & bit) != 0;
      window[static_cast<std::size_t>(level) + 1] =
          upper ? std::pair{split, hi} : std::pair{lo, split};
      bucket[static_cast<std::size_t>(level)] =
          upper ? std::pair{lo, split} : std::pair{split, hi};
    }
    contacts_.insert(contacts_.end(), row_width, kNoNode);
    for (int i = 0; i < level; ++i) {
      const auto [first, last] = bucket[static_cast<std::size_t>(i)];
      if (first == last) {
        continue;  // empty bucket: nobody lives in this subtree
      }
      const std::uint64_t bucket_base =
          v * row_width + static_cast<std::uint64_t>(i) * k;
      // Cell 0 is the historical single uniform draw (bit-compatible rng
      // stream at k = 1); further cells add distinct members -- bounded
      // rejection against the cells already chosen, then a deterministic
      // scan from the rejected draw (k and bucket overlaps are small).
      const std::uint64_t size = last - first;
      const auto head =
          static_cast<NodeIndex>(first + rng.uniform_below(size));
      contacts_[bucket_base] = head;
      const int cells = static_cast<int>(
          size < static_cast<std::uint64_t>(k) ? size : k);
      for (int cell = 1; cell < cells; ++cell) {
        const auto taken = [&](NodeIndex candidate) {
          for (int prev = 0; prev < cell; ++prev) {
            if (contacts_[bucket_base + prev] == candidate) {
              return true;
            }
          }
          return false;
        };
        auto pick = static_cast<NodeIndex>(first + rng.uniform_below(size));
        for (int attempt = 0; attempt < 16 && taken(pick); ++attempt) {
          pick = static_cast<NodeIndex>(first + rng.uniform_below(size));
        }
        while (taken(pick)) {  // walk to the next free member (cells < size)
          pick = pick + 1 == last ? static_cast<NodeIndex>(first)
                                  : static_cast<NodeIndex>(pick + 1);
        }
        contacts_[bucket_base + cell] = pick;
      }
    }
  }
}

std::optional<NodeIndex> SparseKademliaOverlay::contact(NodeIndex node,
                                                        int bucket,
                                                        int cell) const {
  DHT_CHECK(node < space_->node_count(), "node index out of range");
  DHT_CHECK(bucket >= 1 && bucket <= space_->bits(),
            "bucket index out of range");
  DHT_CHECK(cell >= 0 && cell < k_, "bucket cell out of range");
  const NodeIndex entry =
      contacts_[node * static_cast<std::uint64_t>(space_->bits()) * k_ +
                static_cast<std::uint64_t>(bucket - 1) * k_ +
                static_cast<std::uint64_t>(cell)];
  if (entry == kNoNode) {
    return std::nullopt;
  }
  return entry;
}

std::optional<NodeIndex> SparseKademliaOverlay::next_hop(
    NodeIndex current, NodeIndex target,
    const SparseFailure& failures) const {
  // Range checks live here at the API boundary; the bucket walk below reads
  // the contact row and id array raw (contact()/id_of() would re-check per
  // call, d times per hop on the hot path).
  DHT_CHECK(current != target, "next_hop requires current != target");
  DHT_CHECK(current < space_->node_count() && target < space_->node_count(),
            "node index out of range");
  const int d = space_->bits();
  const sim::NodeId* ids = space_->ids().data();
  const NodeIndex* row = contacts_.data() +
                         current * static_cast<std::uint64_t>(d) * k_;
  const sim::NodeId current_id = ids[current];
  const sim::NodeId target_id = ids[target];
  const std::uint64_t current_distance =
      sim::xor_distance(current_id, target_id);
  // Buckets at levels where current and target differ, highest order
  // first; within a bucket, cells head first.  The first alive contact
  // strictly closer to the target is the greedy choice (correcting a
  // higher-order bit dominates any suffix noise).
  sim::NodeId diff = current_distance;
  while (diff != 0) {
    const int bw = std::bit_width(diff);
    const NodeIndex* bucket = row + static_cast<std::uint64_t>(d - bw) * k_;
    for (int cell = 0; cell < k_; ++cell) {  // bucket level d - bw + 1
      const NodeIndex entry = bucket[cell];
      if (entry != kNoNode && failures.alive(entry) &&
          sim::xor_distance(ids[entry], target_id) < current_distance) {
        return entry;
      }
    }
    diff &= ~(sim::NodeId{1} << (bw - 1));
  }
  return std::nullopt;
}

}  // namespace dht::sparse
