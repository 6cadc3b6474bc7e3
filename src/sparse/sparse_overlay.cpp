#include "sparse/sparse_overlay.hpp"

#include "common/check.hpp"

namespace dht::sparse {

SparseOverlay::~SparseOverlay() = default;

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
