// The overlay abstraction: a geometry's routing tables plus its basic
// forwarding rule.
//
// An Overlay owns the (randomized, seed-deterministic) routing tables of all
// N nodes and implements a single step of the paper's *basic* routing
// protocol: given the current message holder, the target, and the liveness
// mask, produce the next hop or report that the message must be dropped
// (no back-tracking, Section 4.1).  The Router (router.hpp) iterates this
// step as the per-pair oracle; the Monte-Carlo estimator
// (parallel_monte_carlo.hpp) routes on flattened replicas of it
// (flat_route.hpp) and aggregates the routes into failed-path statistics.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "math/rng.hpp"
#include "sim/failure.hpp"
#include "sim/id_space.hpp"
#include "sim/node_id.hpp"

namespace dht::sim {

class Overlay {
 public:
  virtual ~Overlay();

  /// Short lowercase identifier matching the core geometry names.
  virtual std::string_view name() const noexcept = 0;

  virtual const IdSpace& space() const noexcept = 0;

  /// One forwarding step of the basic protocol from `current` toward
  /// `target` (current != target), honoring `failures`.  Returns nullopt
  /// when no permissible alive neighbor exists (message dropped).  `rng` is
  /// consumed only by geometries whose rule involves a random choice among
  /// equivalent neighbors (hypercube).
  virtual std::optional<NodeId> next_hop(NodeId current, NodeId target,
                                         const FailureScenario& failures,
                                         math::Rng& rng) const = 0;

  /// The node's outgoing links (used for degree/percolation analysis).
  virtual std::vector<NodeId> links(NodeId node) const = 0;

  /// Non-allocating variant: overwrites `out` with the node's outgoing
  /// links.  Percolation sweeps call this once per node per scenario;
  /// overlays override it to copy straight out of their contiguous tables,
  /// reusing the caller's buffer.  The base implementation falls back to
  /// links().
  virtual void links_into(NodeId node, std::vector<NodeId>& out) const;

  /// Bytes of routing-table storage the overlay holds (0 for overlays
  /// whose links are a closed form of the node id).
  virtual std::uint64_t table_bytes() const noexcept = 0;
};

/// Builds the named overlay (tree | hypercube | xor | ring | symphony; ring
/// is deterministic Chord, Symphony has kn = ks = 1) over `space`, drawing
/// its tables from `rng`; nullptr for an unknown name.  The one factory
/// behind the programs' geometry arguments.
std::unique_ptr<Overlay> make_overlay(std::string_view name,
                                      const IdSpace& space, math::Rng& rng);

}  // namespace dht::sim
