#include "sim/router.hpp"

#include "common/check.hpp"

namespace dht::sim {

Overlay::~Overlay() = default;

void Overlay::links_into(NodeId node, std::vector<NodeId>& out) const {
  const std::vector<NodeId> all = links(node);
  out.assign(all.begin(), all.end());
}

const char* to_string(RouteStatus status) noexcept {
  switch (status) {
    case RouteStatus::kArrived:
      return "arrived";
    case RouteStatus::kDropped:
      return "dropped";
    case RouteStatus::kHopLimit:
      return "hop-limit";
  }
  return "unknown";
}

Router::Router(const Overlay& overlay, const FailureScenario& failures,
               std::uint64_t max_hops)
    : overlay_(overlay),
      failures_(failures),
      max_hops_(max_hops == 0 ? overlay.space().size() : max_hops) {
  DHT_CHECK(failures.size() == overlay.space().size(),
            "failure scenario and overlay must share the id space");
}

namespace {

// The one hop loop behind route() and route_traced(): `on_hop(node)` sees
// every node the message moves to, in order.
template <typename OnHop>
RouteResult walk(const Overlay& overlay, const FailureScenario& failures,
                 std::uint64_t max_hops, NodeId source, NodeId target,
                 math::Rng& rng, OnHop&& on_hop) {
  DHT_CHECK(overlay.space().contains(source), "source out of range");
  DHT_CHECK(overlay.space().contains(target), "target out of range");
  DHT_CHECK(source != target, "route requires source != target");

  RouteResult result;
  NodeId current = source;
  while (current != target) {
    if (static_cast<std::uint64_t>(result.hops) >= max_hops) {
      result.status = RouteStatus::kHopLimit;
      result.last_node = current;
      return result;
    }
    const auto next = overlay.next_hop(current, target, failures, rng);
    if (!next.has_value()) {
      result.status = RouteStatus::kDropped;
      result.last_node = current;
      return result;
    }
    current = *next;
    on_hop(current);
    ++result.hops;
  }
  result.status = RouteStatus::kArrived;
  result.last_node = current;
  return result;
}

}  // namespace

RouteResult Router::route(NodeId source, NodeId target,
                          math::Rng& rng) const {
  return walk(overlay_, failures_, max_hops_, source, target, rng,
              [](NodeId) {});
}

RouteTrace Router::route_traced(NodeId source, NodeId target,
                                math::Rng& rng) const {
  RouteTrace trace;
  trace.path.push_back(source);
  trace.result = walk(overlay_, failures_, max_hops_, source, target, rng,
                      [&trace](NodeId node) { trace.path.push_back(node); });
  return trace;
}

}  // namespace dht::sim
