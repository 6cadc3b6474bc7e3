// Connected components vs reachable components (paper Section 1).
//
// Percolation theory bounds when the overlay fragments, but "all pairs
// belonging to the same connected component need not be reachable under
// failure": greedy routing forgoes paths the graph still contains.  This
// module measures both sides of that gap on a simulated overlay:
//
//  * connectivity -- components of the failed overlay graph with links
//    treated as undirected (the percolation view);
//  * reachability -- the set of targets the basic protocol actually
//    delivers to from a given source (the paper's reachable component).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/overlay.hpp"

namespace dht::perc {

/// Summary of the undirected connected components among alive nodes.
struct ComponentSummary {
  std::uint64_t alive_nodes = 0;
  std::uint64_t component_count = 0;
  std::uint64_t largest_component = 0;

  double largest_fraction() const noexcept {
    return alive_nodes == 0 ? 0.0
                            : static_cast<double>(largest_component) /
                                  static_cast<double>(alive_nodes);
  }
};

/// Components of the failed overlay: alive nodes, undirected links (an edge
/// survives iff both endpoints are alive).
ComponentSummary analyze_components(const sim::Overlay& overlay,
                                    const sim::FailureScenario& failures);

/// The paper's reachable component of `source`: the number of alive targets
/// the basic protocol successfully routes to (O(N * hops); use on small
/// spaces).  Throws if `source` is dead.
std::uint64_t reachable_component_size(const sim::Overlay& overlay,
                                       const sim::FailureScenario& failures,
                                       sim::NodeId source, math::Rng& rng);

}  // namespace dht::perc
