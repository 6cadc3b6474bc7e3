// Small-world (Symphony) overlay -- paper Section 3.5.
//
// Each node keeps kn near neighbors (its kn clockwise successors) and ks
// long-range shortcuts whose clockwise distance is drawn from the harmonic
// density p(x) ~ 1/x on [1, N-1] (Kleinberg/Symphony's 1/d distribution).
// Forwarding rule: greedy clockwise without overshooting -- among alive
// links with offset <= distance-to-target, take the farthest-reaching one.
// With its immediate successor alive a node can always make progress, so a
// route dies mainly when all kn + ks links are dead, which is exactly the
// failure mode the paper's Markov chain models (Fig. 8(b)).
// The shortcut table is built in 2^14-node chunks, identical to the
// serial draw order at any core count.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/overlay.hpp"

namespace dht::sim {

class SymphonyOverlay final : public Overlay {
 public:
  /// Preconditions: near_neighbors >= 1, shortcuts >= 1, and
  /// near_neighbors + shortcuts < N.
  SymphonyOverlay(const IdSpace& space, int near_neighbors, int shortcuts,
                  math::Rng& rng);

  std::string_view name() const noexcept override { return "symphony"; }
  const IdSpace& space() const noexcept override { return space_; }

  std::optional<NodeId> next_hop(NodeId current, NodeId target,
                                 const FailureScenario& failures,
                                 math::Rng& rng) const override;

  std::vector<NodeId> links(NodeId node) const override;
  void links_into(NodeId node, std::vector<NodeId>& out) const override;

  /// Row-major [node][j] materialized shortcut table (absolute targets).
  const std::vector<std::uint32_t>& shortcut_table() const noexcept {
    return shortcuts_;
  }

  std::uint64_t table_bytes() const noexcept override {
    return shortcuts_.size() * sizeof(std::uint32_t);
  }

  int near_neighbors() const noexcept { return kn_; }
  int shortcuts() const noexcept { return ks_; }

  /// The j-th shortcut of `node` (0-based, j < shortcuts()).
  NodeId shortcut(NodeId node, int j) const;

 private:
  IdSpace space_;
  int kn_;
  int ks_;
  // Row-major [node][j] absolute shortcut targets; near neighbors are
  // implicit (node + 1 .. node + kn).
  std::vector<std::uint32_t> shortcuts_;
};

}  // namespace dht::sim
