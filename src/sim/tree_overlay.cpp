#include "sim/tree_overlay.hpp"

#include "common/check.hpp"

namespace dht::sim {

TreeOverlay::TreeOverlay(const IdSpace& space, math::Rng& rng)
    : space_(space), table_(std::make_shared<PrefixTable>(space, rng)) {}

TreeOverlay::TreeOverlay(const IdSpace& space,
                         std::shared_ptr<const PrefixTable> table)
    : space_(space), table_(std::move(table)) {
  DHT_CHECK(table_ != nullptr, "TreeOverlay requires a table");
  DHT_CHECK(table_->levels() == space_.bits(),
            "table level count must match the id space");
}

std::optional<NodeId> TreeOverlay::next_hop(NodeId current, NodeId target,
                                            const FailureScenario& failures,
                                            math::Rng& /*rng*/) const {
  DHT_CHECK(current != target, "next_hop requires current != target");
  const int level = msb_diff_level(current, target, space_.bits());
  const NodeId candidate = table_->neighbor(current, level);
  if (!failures.alive(candidate)) {
    return std::nullopt;  // the only admissible neighbor is dead
  }
  return candidate;
}

void TreeOverlay::links_into(NodeId node, std::vector<NodeId>& out) const {
  out.clear();
  const ClassRows& rows = table_->rows();
  for (int level = 1; level <= space_.bits(); ++level) {
    out.push_back(rows.entry(node, level));
  }
}

std::vector<NodeId> TreeOverlay::links(NodeId node) const {
  std::vector<NodeId> out;
  out.reserve(static_cast<size_t>(space_.bits()));
  links_into(node, out);
  return out;
}

}  // namespace dht::sim
