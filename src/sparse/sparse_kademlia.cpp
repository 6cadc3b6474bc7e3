#include "sparse/sparse_kademlia.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.hpp"
#include "common/hugepage.hpp"
#include "sim/shard_pool.hpp"

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
  // walk() runs the nodes [begin, end) from a fresh window, handing
  // row(v, level, bucket) each node's buckets: bucket[i] is the range of
  // bucket i + 1, and buckets from `level` on are empty.
  using Range = std::pair<NodeIndex, NodeIndex>;
  const auto walk = [&](std::uint64_t begin, std::uint64_t end, auto&& row) {
    Range window[64] = {{0, static_cast<NodeIndex>(n)}};  // v's first i bits
    Range bucket[64];
    for (std::uint64_t v = begin; v < end; ++v) {
      const sim::NodeId base = ids[v];
      // Levels above the first bit where v and v-1 differ keep v-1's
      // windows and buckets; v-1's window at that level held both nodes,
      // so v-1 split it.  The walk stops at `level`: buckets from there on
      // are empty.
      int level = v == begin ? 0 : d - std::bit_width(ids[v - 1] ^ base);
      for (; level < d; ++level) {
        const auto [lo, hi] = window[level];
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
        window[level + 1] = upper ? Range{split, hi} : Range{lo, split};
        bucket[level] = upper ? Range{lo, split} : Range{split, hi};
      }
      row(static_cast<NodeIndex>(v), level, bucket);
    }
  };
  // Chunks run on every core (sim::run_counted_chunks).  A first walk
  // predicts each chunk's draws, one per non-empty cell: exact unless a
  // draw is rejected (k = 1: below 2^-38 per draw) or a further cell
  // redraws a taken member, and a mispredicted chunk is rebuilt in order.
  common::reserve_hugepages(contacts_, n * row_width);
  contacts_.resize(n * row_width);
  const auto predict = [&](std::uint64_t begin, std::uint64_t end) {
    std::uint64_t draws = 0;
    walk(begin, end, [&](NodeIndex, int level, const Range* bucket) {
      for (int i = 0; i < level; ++i) {
        draws += std::min<std::uint64_t>(bucket[i].second - bucket[i].first,
                                         k);
      }
    });
    return draws;
  };
  const auto fill = [&](std::uint64_t begin, std::uint64_t end,
                        math::Rng& chunk_rng) {
    walk(begin, end, [&](NodeIndex v, int level, const Range* bucket) {
      NodeIndex* row = contacts_.data() + v * row_width;
      std::fill(row, row + row_width, kNoNode);
      for (int i = 0; i < level; ++i) {
        const auto [first, last] = bucket[i];
        if (first == last) {
          continue;  // empty bucket: nobody lives in this subtree
        }
        NodeIndex* cells = row + static_cast<std::uint64_t>(i) * k;
        // Cell 0 is the historical single uniform draw (bit-compatible rng
        // stream at k = 1); further cells add distinct members -- bounded
        // rejection against the cells already chosen, then a deterministic
        // scan from the rejected draw (k and bucket overlaps are small).
        const std::uint64_t size = last - first;
        cells[0] =
            static_cast<NodeIndex>(first + chunk_rng.uniform_below(size));
        const int count = static_cast<int>(
            size < static_cast<std::uint64_t>(k) ? size : k);
        for (int cell = 1; cell < count; ++cell) {
          const auto taken = [&](NodeIndex candidate) {
            return std::find(cells, cells + cell, candidate) != cells + cell;
          };
          auto pick =
              static_cast<NodeIndex>(first + chunk_rng.uniform_below(size));
          for (int attempt = 0; attempt < 16 && taken(pick); ++attempt) {
            pick =
                static_cast<NodeIndex>(first + chunk_rng.uniform_below(size));
          }
          while (taken(pick)) {  // walk to the next free member (cells < size)
            pick = pick + 1 == last ? static_cast<NodeIndex>(first)
                                    : static_cast<NodeIndex>(pick + 1);
          }
          cells[cell] = pick;
        }
      }
    });
  };
  sim::run_counted_chunks(n, predict, rng, fill);
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
