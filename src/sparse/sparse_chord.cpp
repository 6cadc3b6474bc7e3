#include "sparse/sparse_chord.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/hugepage.hpp"

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
  const auto unwrapped = [&](std::uint64_t j) {
    return j < n ? ids[j] : ids[j - n] + size;
  };
  std::vector<std::uint64_t> cursor(static_cast<std::size_t>(d), 0);
  common::reserve_hugepages(fingers_, n * static_cast<std::uint64_t>(d));
  route_lens_.reserve(n);
  std::uint64_t widest = 1;
  for (NodeIndex v = 0; v < n; ++v) {
    const sim::NodeId base = ids[v];
    // Columns in order i = 1..d have decreasing offsets, so the cursors --
    // and the fingers' clockwise progress -- never increase along a row:
    // the row is already in decreasing-progress order, self-links (the
    // largest progress, size) come first, and a repeated target repeats
    // its predecessor.
    std::uint64_t len = 0;
    NodeIndex previous = kNoNode;
    for (int i = 1; i <= d; ++i) {
      const sim::NodeId key = base + (std::uint64_t{1} << (d - i));
      std::uint64_t& j = cursor[static_cast<std::size_t>(i - 1)];
      while (unwrapped(j) < key) {
        ++j;
      }
      const auto f = static_cast<NodeIndex>(j < n ? j : j - n);
      fingers_.push_back(f);
      if (f != v && f != previous) {
        ++len;
        previous = f;
      }
    }
    route_lens_.push_back(static_cast<std::uint8_t>(len));
    widest = std::max(widest, len);
  }
  // Repack each row's distinct fingers (the pass above counted them) into
  // fixed-stride rows, padded with (0, kNoNode).  Real entries always have
  // progress > 0 (self-links are dropped), so pads never look admissible
  // and mark the end of a row.  Stride rounded to a whole number of
  // 64-byte lines keeps rows line-aligned.
  route_stride_ = static_cast<int>((widest + 7) & ~std::uint64_t{7});
  const std::uint64_t stride = static_cast<std::uint64_t>(route_stride_);
  const bool packed = d <= 32;
  if (packed) {
    // Packed shape: (progress << 32) | target per entry; pad is
    // (0 << 32) | kNoNode, below every admissibility key.
    common::reserve_hugepages(route_packed_, n * stride);
  } else {
    common::reserve_hugepages(route_progress_, n * stride);
    common::reserve_hugepages(route_targets_, n * stride);
  }
  const auto emit = [&](std::uint64_t progress, NodeIndex target) {
    if (packed) {
      route_packed_.push_back((progress << 32) | target);
    } else {
      route_progress_.push_back(progress);
      route_targets_.push_back(target);
    }
  };
  const std::uint64_t mask = size - 1;
  for (NodeIndex v = 0; v < n; ++v) {
    const sim::NodeId base = ids[v];
    const NodeIndex* row = fingers_.data() + v * static_cast<std::uint64_t>(d);
    NodeIndex previous = kNoNode;
    for (int i = 0; i < d; ++i) {
      const NodeIndex f = row[i];
      if (f != v && f != previous) {
        emit((ids[f] - base) & mask, f);
        previous = f;
      }
    }
    for (std::uint64_t e = route_lens_[v]; e < stride; ++e) {
      emit(0, kNoNode);
    }
  }
}

NodeIndex SparseChordOverlay::finger(NodeIndex node, int index) const {
  DHT_CHECK(node < space_->node_count(), "node index out of range");
  DHT_CHECK(index >= 1 && index <= space_->bits(),
            "finger index out of range");
  return fingers_[node * static_cast<std::uint64_t>(space_->bits()) +
                  static_cast<std::uint64_t>(index - 1)];
}

std::optional<NodeIndex> SparseChordOverlay::next_hop(
    NodeIndex current, NodeIndex target,
    const SparseFailure& failures) const {
  // Range checks live here at the API boundary; the scan below reads the
  // finger row and id array raw (finger()/id_of() would re-check per call).
  DHT_CHECK(current != target, "next_hop requires current != target");
  DHT_CHECK(current < space_->node_count() && target < space_->node_count(),
            "node index out of range");
  const int d = space_->bits();
  const sim::NodeId* ids = space_->ids().data();
  const NodeIndex* row = fingers_.data() + current * static_cast<std::uint64_t>(d);
  const sim::NodeId current_id = ids[current];
  const std::uint64_t distance =
      sim::ring_distance(current_id, ids[target], d);
  // Greedy clockwise without overshoot.  Sparse finger offsets are not
  // strictly ordered by index (each is a successor jump past the dyadic
  // point), so scan all fingers and keep the best admissible alive one.
  std::uint64_t best_progress = 0;
  NodeIndex best = current;
  for (int i = 0; i < d; ++i) {
    const NodeIndex f = row[i];
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
