#include "sim/symphony_overlay.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "sim/shard_pool.hpp"

namespace dht::sim {

SymphonyOverlay::SymphonyOverlay(const IdSpace& space, int near_neighbors,
                                 int shortcuts, math::Rng& rng)
    : space_(space), kn_(near_neighbors), ks_(shortcuts) {
  DHT_CHECK(kn_ >= 1, "symphony requires at least one near neighbor");
  DHT_CHECK(ks_ >= 1, "symphony requires at least one shortcut");
  DHT_CHECK(static_cast<std::uint64_t>(kn_ + ks_) < space.size(),
            "kn + ks must be smaller than the network");
  const std::uint64_t size = space_.size();
  const double log_range = std::log(static_cast<double>(size - 1));
  const auto ks = static_cast<std::uint64_t>(ks_);
  shortcuts_.resize(size * ks);
  const auto fill = [&](NodeId begin, NodeId end, math::Rng& chunk_rng) {
    for (NodeId v = begin; v < end; ++v) {
      for (std::uint64_t j = 0; j < ks; ++j) {
        // Inverse-transform sample of the harmonic density p(x) ~ 1/x on
        // [1, N-1]: x = exp(U * ln(N-1)).
        const double x = std::exp(chunk_rng.uniform01() * log_range);
        const std::uint64_t offset = std::clamp<std::uint64_t>(
            static_cast<std::uint64_t>(x), 1, size - 1);
        shortcuts_[v * ks + j] =
            static_cast<std::uint32_t>((v + offset) & (size - 1));
      }
    }
  };
  run_draw_chunks(size, ks, rng, fill);
}

NodeId SymphonyOverlay::shortcut(NodeId node, int j) const {
  DHT_CHECK(space_.contains(node), "node id out of range");
  DHT_CHECK(j >= 0 && j < ks_, "shortcut index out of range");
  return shortcuts_[node * static_cast<std::uint64_t>(ks_) +
                    static_cast<std::uint64_t>(j)];
}

std::optional<NodeId> SymphonyOverlay::next_hop(
    NodeId current, NodeId target, const FailureScenario& failures,
    math::Rng& /*rng*/) const {
  DHT_CHECK(current != target, "next_hop requires current != target");
  const int d = space_.bits();
  const std::uint64_t size = space_.size();
  const std::uint64_t distance = ring_distance(current, target, d);

  std::uint64_t best_progress = 0;
  NodeId best = 0;
  const auto consider = [&](NodeId link) {
    const std::uint64_t progress = ring_distance(current, link, d);
    if (progress > distance || progress <= best_progress) {
      return;  // overshoots, or no better than the current best
    }
    if (failures.alive(link)) {
      best_progress = progress;
      best = link;
    }
  };
  for (int j = 0; j < ks_; ++j) {
    consider(shortcut(current, j));
  }
  for (int k = 1; k <= kn_; ++k) {
    consider((current + static_cast<std::uint64_t>(k)) & (size - 1));
  }
  if (best_progress == 0) {
    return std::nullopt;
  }
  return best;
}

void SymphonyOverlay::links_into(NodeId node, std::vector<NodeId>& out) const {
  out.clear();
  const std::uint64_t size = space_.size();
  for (int k = 1; k <= kn_; ++k) {
    out.push_back((node + static_cast<std::uint64_t>(k)) & (size - 1));
  }
  const std::uint32_t* row =
      shortcuts_.data() + node * static_cast<std::uint64_t>(ks_);
  for (int j = 0; j < ks_; ++j) {
    out.push_back(row[j]);
  }
}

std::vector<NodeId> SymphonyOverlay::links(NodeId node) const {
  std::vector<NodeId> out;
  out.reserve(static_cast<size_t>(kn_ + ks_));
  links_into(node, out);
  return out;
}

}  // namespace dht::sim
