// XOR (Kademlia) overlay -- paper Section 3.3.
//
// Same tables as the tree overlay; the forwarding rule is greedy in XOR
// distance.  Any neighbor at a level where the current node differs from
// the target strictly decreases the XOR distance (it resolves that bit and
// randomizes only lower-order ones), and the largest decrease comes from
// the highest-order differing level, so the rule is: take the alive
// neighbor at the highest-order differing level; fall back to progressively
// lower-order differing levels; drop the message when none is alive.
#pragma once

#include <memory>

#include "sim/overlay.hpp"
#include "sim/prefix_table.hpp"

namespace dht::sim {

class XorOverlay final : public Overlay {
 public:
  XorOverlay(const IdSpace& space, math::Rng& rng);

  /// Shares existing tables (tree-vs-XOR ablation on identical topology).
  XorOverlay(const IdSpace& space, std::shared_ptr<const PrefixTable> table);

  std::string_view name() const noexcept override { return "xor"; }
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
