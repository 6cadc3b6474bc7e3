// Tree (Plaxton) overlay -- paper Section 3.1.
//
// Forwarding rule: the message must go to the neighbor correcting the
// highest-order differing bit; if that neighbor is dead the message is
// dropped (no fallback, no back-tracking).
#pragma once

#include <memory>

#include "sim/overlay.hpp"
#include "sim/prefix_table.hpp"

namespace dht::sim {

class TreeOverlay final : public Overlay {
 public:
  /// Builds fresh tables from `rng`.
  TreeOverlay(const IdSpace& space, math::Rng& rng);

  /// Shares existing tables (tree-vs-XOR ablation on identical topology).
  TreeOverlay(const IdSpace& space, std::shared_ptr<const PrefixTable> table);

  std::string_view name() const noexcept override { return "tree"; }
  const IdSpace& space() const noexcept override { return space_; }

  std::optional<NodeId> next_hop(NodeId current, NodeId target,
                                 const FailureScenario& failures,
                                 math::Rng& rng) const override;

  std::vector<NodeId> links(NodeId node) const override;
  void links_into(NodeId node, std::vector<NodeId>& out) const override;

  const std::shared_ptr<const PrefixTable>& table() const noexcept {
    return table_;
  }

  std::uint64_t table_bytes() const noexcept override {
    return table_->rows().bytes();
  }

 private:
  IdSpace space_;
  std::shared_ptr<const PrefixTable> table_;
};

}  // namespace dht::sim
