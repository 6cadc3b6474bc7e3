#include "sim/chord_overlay.hpp"

#include "common/check.hpp"
#include "sim/shard_pool.hpp"

namespace dht::sim {

ChordOverlay::ChordOverlay(const IdSpace& space, math::Rng& rng,
                           ChordFingers fingers, int successor_links)
    : space_(space), variant_(fingers), successor_links_(successor_links) {
  DHT_CHECK(successor_links >= 0, "successor link count must be >= 0");
  DHT_CHECK(static_cast<std::uint64_t>(successor_links) < space.size(),
            "successor list must be smaller than the ring");
  if (variant_ == ChordFingers::kDeterministic) {
    return;  // closed-form fingers: nothing to store
  }
  // Randomized finger i: clockwise offset uniform in [2^{d-i}, 2^{d-i+1});
  // one draw each, uniform_below(1) included.
  const int d = space_.bits();
  fingers_ = ClassRows(EntryClass::kDyadic, d, space_.size());
  const auto fill = [&](NodeId begin, NodeId end, math::Rng& chunk_rng) {
    std::uint64_t offsets[ClassRows::kMaxLevels] = {};
    for (NodeId v = begin; v < end; ++v) {
      for (int i = 1; i <= d; ++i) {
        offsets[i - 1] = chunk_rng.uniform_below(std::uint64_t{1} << (d - i));
      }
      fingers_.set_row(v, offsets);
    }
  };
  run_draw_chunks(space_.size(), d, rng, fill);
}

NodeId ChordOverlay::finger(NodeId node, int index) const {
  DHT_CHECK(space_.contains(node), "node id out of range");
  DHT_CHECK(index >= 1 && index <= space_.bits(), "finger index out of range");
  if (variant_ == ChordFingers::kDeterministic) {
    const std::uint64_t offset = std::uint64_t{1} << (space_.bits() - index);
    return (node + offset) & (space_.size() - 1);
  }
  return fingers_.entry(node, index);
}

std::optional<NodeId> ChordOverlay::next_hop(NodeId current, NodeId target,
                                             const FailureScenario& failures,
                                             math::Rng& /*rng*/) const {
  DHT_CHECK(current != target, "next_hop requires current != target");
  const int d = space_.bits();
  const std::uint64_t distance = ring_distance(current, target, d);
  // Finger offsets live in disjoint dyadic intervals that shrink with the
  // index, so scanning i = 1..d visits fingers in decreasing-progress order;
  // the first alive, non-overshooting one is the greedy choice among the
  // fingers.
  std::uint64_t best_progress = 0;
  NodeId best = current;
  for (int i = 1; i <= d; ++i) {
    const NodeId f = finger(current, i);
    const std::uint64_t progress = ring_distance(current, f, d);
    if (progress > distance) {
      continue;  // would overshoot the target clockwise
    }
    if (failures.alive(f)) {
      best_progress = progress;
      best = f;
      break;
    }
  }
  // The successor list only matters when it outreaches the best alive
  // finger (e.g. everything through finger d dead but node+3 alive).
  const std::uint64_t size = space_.size();
  for (int k = successor_links_; k > static_cast<int>(best_progress); --k) {
    if (static_cast<std::uint64_t>(k) > distance) {
      continue;  // overshoots
    }
    const NodeId succ = (current + static_cast<std::uint64_t>(k)) & (size - 1);
    if (failures.alive(succ)) {
      return succ;
    }
  }
  if (best_progress == 0) {
    return std::nullopt;
  }
  return best;
}

void ChordOverlay::links_into(NodeId node, std::vector<NodeId>& out) const {
  out.clear();
  for (int i = 1; i <= space_.bits(); ++i) {
    out.push_back(finger(node, i));
  }
  for (int k = 1; k <= successor_links_; ++k) {
    out.push_back((node + static_cast<std::uint64_t>(k)) &
                  (space_.size() - 1));
  }
}

std::vector<NodeId> ChordOverlay::links(NodeId node) const {
  std::vector<NodeId> out;
  out.reserve(static_cast<size_t>(space_.bits() + successor_links_));
  links_into(node, out);
  return out;
}

}  // namespace dht::sim
