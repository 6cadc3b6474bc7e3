#include "sim/xor_overlay.hpp"

#include <bit>

#include "common/check.hpp"

namespace dht::sim {

XorOverlay::XorOverlay(const IdSpace& space, math::Rng& rng)
    : space_(space), table_(std::make_shared<PrefixTable>(space, rng)) {}

XorOverlay::XorOverlay(const IdSpace& space,
                       std::shared_ptr<const PrefixTable> table)
    : space_(space), table_(std::move(table)) {
  DHT_CHECK(table_ != nullptr, "XorOverlay requires a table");
  DHT_CHECK(table_->levels() == space_.bits(),
            "table level count must match the id space");
}

std::optional<NodeId> XorOverlay::next_hop(NodeId current, NodeId target,
                                           const FailureScenario& failures,
                                           math::Rng& /*rng*/) const {
  DHT_CHECK(current != target, "next_hop requires current != target");
  const int d = space_.bits();
  // Scan differing levels from the highest order down; the first alive
  // neighbor gives the greedy (largest XOR-distance reduction) hop.
  NodeId diff = xor_distance(current, target);
  while (diff != 0) {
    const int level = d - std::bit_width(diff) + 1;
    const NodeId candidate = table_->neighbor(current, level);
    if (failures.alive(candidate)) {
      return candidate;
    }
    diff &= ~(NodeId{1} << (d - level));  // try the next differing bit down
  }
  return std::nullopt;
}

void XorOverlay::links_into(NodeId node, std::vector<NodeId>& out) const {
  out.clear();
  const ClassRows& rows = table_->rows();
  for (int level = 1; level <= space_.bits(); ++level) {
    out.push_back(rows.entry(node, level));
  }
}

std::vector<NodeId> XorOverlay::links(NodeId node) const {
  std::vector<NodeId> out;
  out.reserve(static_cast<size_t>(space_.bits()));
  links_into(node, out);
  return out;
}

}  // namespace dht::sim
