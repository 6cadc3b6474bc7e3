#include "sparse/sparse_overlay.hpp"

#include "common/check.hpp"
#include "common/hugepage.hpp"

namespace dht::sparse {

SparseOverlay::~SparseOverlay() = default;

SparseFailure::SparseFailure(const SparseIdSpace& space, double q,
                             math::Rng& rng)
    : alive_(space.node_count(), 1) {
  DHT_CHECK(q >= 0.0 && q <= 1.0, "failure probability q must be in [0, 1]");
  const auto n = static_cast<NodeIndex>(space.node_count());
  common::reserve_hugepages(alive_ids_, n);
  if (q == 0.0) {
    for (NodeIndex i = 0; i < n; ++i) {
      alive_ids_.push_back(i);
    }
    return;
  }
  for (NodeIndex i = 0; i < n; ++i) {
    if (rng.bernoulli(q)) {
      alive_[i] = 0;
    } else {
      alive_ids_.push_back(i);
    }
  }
}

std::optional<int> route(const SparseOverlay& overlay,
                         const SparseFailure& failures, NodeIndex source,
                         NodeIndex target) {
  DHT_CHECK(source != target, "route requires source != target");
  const std::uint64_t max_hops = overlay.space().node_count();
  NodeIndex current = source;
  int hops = 0;
  while (current != target) {
    if (static_cast<std::uint64_t>(hops) >= max_hops) {
      DHT_CHECK(false, "sparse route exceeded N hops: protocol bug");
    }
    const auto next = overlay.next_hop(current, target, failures);
    if (!next.has_value()) {
      return std::nullopt;
    }
    current = *next;
    ++hops;
  }
  return hops;
}

}  // namespace dht::sparse
