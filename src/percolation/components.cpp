#include "percolation/components.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "percolation/union_find.hpp"
#include "sim/router.hpp"

namespace dht::perc {

namespace {

UnionFind build_alive_components(const sim::Overlay& overlay,
                                 const sim::FailureScenario& failures) {
  const std::uint64_t size = overlay.space().size();
  UnionFind forest(size);
  std::vector<sim::NodeId> scratch;  // reused across nodes (links_into)
  for (sim::NodeId v = 0; v < size; ++v) {
    if (!failures.alive(v)) {
      continue;
    }
    overlay.links_into(v, scratch);
    for (sim::NodeId w : scratch) {
      if (failures.alive(w)) {
        forest.unite(v, w);
      }
    }
  }
  return forest;
}

}  // namespace

ComponentSummary analyze_components(const sim::Overlay& overlay,
                                    const sim::FailureScenario& failures) {
  const std::uint64_t size = overlay.space().size();
  UnionFind forest = build_alive_components(overlay, failures);

  ComponentSummary summary;
  std::vector<std::uint64_t> seen_roots;
  for (sim::NodeId v = 0; v < size; ++v) {
    if (!failures.alive(v)) {
      continue;
    }
    ++summary.alive_nodes;
    const std::uint64_t root = forest.find(v);
    summary.largest_component =
        std::max(summary.largest_component, forest.set_size(root));
    seen_roots.push_back(root);
  }
  std::sort(seen_roots.begin(), seen_roots.end());
  summary.component_count = static_cast<std::uint64_t>(
      std::unique(seen_roots.begin(), seen_roots.end()) - seen_roots.begin());
  return summary;
}

std::uint64_t reachable_component_size(const sim::Overlay& overlay,
                                       const sim::FailureScenario& failures,
                                       sim::NodeId source, math::Rng& rng) {
  DHT_CHECK(failures.alive(source),
            "reachable component is defined for an alive source");
  const sim::Router router(overlay, failures);
  std::uint64_t reachable = 0;
  const std::uint64_t size = overlay.space().size();
  for (sim::NodeId target = 0; target < size; ++target) {
    if (target == source || !failures.alive(target)) {
      continue;
    }
    if (router.route(source, target, rng).success()) {
      ++reachable;
    }
  }
  return reachable;
}

}  // namespace dht::perc
