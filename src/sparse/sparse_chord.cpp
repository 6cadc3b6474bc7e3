#include "sparse/sparse_chord.hpp"

#include <algorithm>
#include <ranges>

#include "common/check.hpp"
#include "common/hugepage.hpp"
#include "sim/shard_pool.hpp"

namespace dht::sparse {

SparseChordOverlay::SparseChordOverlay(const SparseIdSpace& space)
    : space_(&space) {
  const int d = space.bits();
  const std::uint64_t n = space.node_count();
  const std::uint64_t size = space.key_space_size();
  const sim::NodeId* ids = space.ids().data();
  // Finger i of node v is the successor of the key id_v + 2^(d-i).  Unwrap
  // the ring to positions 0..2n-1, position j holding ids[j] below n and
  // ids[j-n] + size above.  Taken unreduced, column i's key grows with v,
  // so its successor -- the first position whose unwrapped id reaches the
  // key, read mod n -- is a cursor that only moves forward: one cursor per
  // column, advanced node by node, sweeps the ring once instead of
  // searching per key.  The successor lies strictly past v and at most at
  // v + n (the key is below id_v + size); position v + n is v itself.
  // Each 2^14-node chunk seeds its cursors with one search at its first
  // node, so chunks sweep on every core.
  const auto unwrapped = [&](std::uint64_t j) {
    return j < n ? ids[j] : ids[j - n] + size;
  };
  // sweep() hands row(v, fingers, len) each node's distinct fingers.
  // Columns in order i = 1..d have decreasing offsets, so the cursors --
  // and the fingers' clockwise progress -- never increase along a row: the
  // row is already in decreasing-progress order, self-links (the largest
  // progress, size) come first, and a repeated target repeats its
  // predecessor.
  const auto sweep = [&](std::uint64_t begin, std::uint64_t end, auto&& row) {
    std::uint64_t cursor[64];
    for (int i = 1; i <= d; ++i) {
      const sim::NodeId key = ids[begin] + (std::uint64_t{1} << (d - i));
      cursor[i - 1] = *std::ranges::partition_point(
          std::views::iota(std::uint64_t{0}, 2 * n),
          [&](std::uint64_t j) { return unwrapped(j) < key; });
    }
    NodeIndex fingers[64];
    for (std::uint64_t v = begin; v < end; ++v) {
      std::uint64_t len = 0;
      for (int i = 1; i <= d; ++i) {
        const sim::NodeId key = ids[v] + (std::uint64_t{1} << (d - i));
        // A cursor moves one position per node on average, geometrically
        // distributed: two branch-free steps cover 7 in 8 nodes.
        std::uint64_t& j = cursor[i - 1];
        j += unwrapped(j) < key ? 1 : 0;
        j += unwrapped(j) < key ? 1 : 0;
        while (unwrapped(j) < key) {
          ++j;
        }
        const auto f = static_cast<NodeIndex>(j < n ? j : j - n);
        if (f != v && (len == 0 || f != fingers[len - 1])) {
          fingers[len++] = f;
        }
      }
      row(static_cast<NodeIndex>(v), fingers, len);
    }
  };
  // First sweep: each row's length.
  route_lens_.resize(n);
  sim::run_node_chunks(
      n, [&](std::uint64_t, std::uint64_t begin, std::uint64_t end) {
        sweep(begin, end, [&](NodeIndex v, const NodeIndex*,
                              std::uint64_t len) {
          route_lens_[v] = static_cast<std::uint8_t>(len);
        });
      });
  // Second sweep: the rows at a fixed stride, padded with (0, kNoNode).
  // Real entries always have progress > 0 (self-links are dropped), so
  // pads never look admissible and mark the end of a row.  Stride rounded
  // to a whole number of 64-byte lines keeps rows line-aligned.  Packed
  // shape: (progress << 32) | target per entry; pad is (0 << 32) | kNoNode,
  // below every admissibility key.
  route_stride_ = (std::max(*std::ranges::max_element(route_lens_),
                            std::uint8_t{1}) + 7) & ~7;
  const std::uint64_t stride = static_cast<std::uint64_t>(route_stride_);
  const bool packed = d <= 32;
  const auto allocate = [&](auto& column) {
    common::reserve_hugepages(column, n * stride);
    column.resize(n * stride);
  };
  if (packed) {
    allocate(route_packed_);
  } else {
    allocate(route_progress_);
    allocate(route_targets_);
  }
  const std::uint64_t mask = size - 1;
  sim::run_node_chunks(
      n, [&](std::uint64_t, std::uint64_t begin, std::uint64_t end) {
        sweep(begin, end, [&](NodeIndex v, const NodeIndex* fingers,
                              std::uint64_t len) {
          for (std::uint64_t e = 0; e < stride; ++e) {
            const std::uint64_t progress =
                e < len ? (ids[fingers[e]] - ids[v]) & mask : 0;
            const NodeIndex target = e < len ? fingers[e] : kNoNode;
            const std::uint64_t at = v * stride + e;
            if (packed) {
              route_packed_[at] = (progress << 32) | target;
            } else {
              route_progress_[at] = progress;
              route_targets_[at] = target;
            }
          }
        });
      });
}

NodeIndex SparseChordOverlay::finger(NodeIndex node, int index) const {
  DHT_CHECK(node < space_->node_count(), "node index out of range");
  const int d = space_->bits();
  DHT_CHECK(index >= 1 && index <= d, "finger index out of range");
  return space_->successor_of_key(
      (space_->id_of(node) + (std::uint64_t{1} << (d - index))) &
      (space_->key_space_size() - 1));
}

std::optional<NodeIndex> SparseChordOverlay::next_hop(
    NodeIndex current, NodeIndex target,
    const SparseFailure& failures) const {
  DHT_CHECK(current != target, "next_hop requires current != target");
  DHT_CHECK(current < space_->node_count() && target < space_->node_count(),
            "node index out of range");
  const int d = space_->bits();
  const sim::NodeId* ids = space_->ids().data();
  const sim::NodeId current_id = ids[current];
  const std::uint64_t distance =
      sim::ring_distance(current_id, ids[target], d);
  // Greedy clockwise without overshoot.  Sparse finger offsets are not
  // strictly ordered by index (each is a successor jump past the dyadic
  // point), so scan all fingers and keep the best admissible alive one.
  std::uint64_t best_progress = 0;
  NodeIndex best = current;
  for (int i = 1; i <= d; ++i) {
    const NodeIndex f = finger(current, i);
    if (f == current) {
      continue;  // finger wrapped onto ourselves (tiny networks)
    }
    const std::uint64_t progress =
        sim::ring_distance(current_id, ids[f], d);
    if (progress > distance || progress <= best_progress) {
      continue;
    }
    if (failures.alive(f)) {
      best_progress = progress;
      best = f;
    }
  }
  if (best_progress == 0) {
    return std::nullopt;
  }
  return best;
}

}  // namespace dht::sparse
