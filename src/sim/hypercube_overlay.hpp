// Hypercube (CAN) overlay -- paper Section 3.2.
//
// The d-dimensional binary hypercube needs no materialized tables: node v's
// neighbors are v with one bit flipped.  Forwarding rule: any alive neighbor
// that corrects a differing bit (reduces the Hamming distance by one) is
// admissible; the protocol picks uniformly at random among them ("correct
// bits in any order").  The message drops when all correcting neighbors are
// dead.
#pragma once

#include "sim/overlay.hpp"

namespace dht::sim {

class HypercubeOverlay final : public Overlay {
 public:
  explicit HypercubeOverlay(const IdSpace& space);

  std::string_view name() const noexcept override { return "hypercube"; }
  const IdSpace& space() const noexcept override { return space_; }

  std::optional<NodeId> next_hop(NodeId current, NodeId target,
                                 const FailureScenario& failures,
                                 math::Rng& rng) const override;

  std::vector<NodeId> links(NodeId node) const override;
  void links_into(NodeId node, std::vector<NodeId>& out) const override;
  std::uint64_t table_bytes() const noexcept override { return 0; }

 private:
  IdSpace space_;
};

}  // namespace dht::sim
