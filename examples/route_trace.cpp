// Trace a single route hop by hop under failures -- the paper's Fig. 5(a)
// walkthrough (XOR routing around a dead optimal neighbor), live.
//
// Builds a small overlay, kills a fraction of nodes, then narrates routes:
// every hop with the node id (as a bit string), the distance to the target,
// and the routing phase.
//
// Usage: route_trace [geometry] [d] [q] [routes]
#include <bitset>
#include <iostream>
#include <limits>
#include <string>

#include "common/flags.hpp"
#include "common/strfmt.hpp"
#include "math/rng.hpp"
#include "sim/node_id.hpp"
#include "sim/overlay.hpp"
#include "sim/router.hpp"

namespace {

std::string bits(dht::sim::NodeId id, int d) {
  std::string out = std::bitset<26>(id).to_string();
  return out.substr(out.size() - static_cast<size_t>(d));
}

bool is_ring_family(const std::string& name) {
  return name == "ring" || name == "symphony";
}

}  // namespace

int main(int argc, char** argv) {
  using dht::common::parse_double_flag;
  using dht::common::parse_int_flag;
  const std::string name = argc > 1 ? argv[1] : "xor";
  int d = 8;
  double q = 0.2;
  int routes = 4;
  if ((argc > 2 && !parse_int_flag("route_trace", "[d]", argv[2], 3, 16, d)) ||
      (argc > 3 && !parse_double_flag("route_trace", "[q]", argv[3], q)) ||
      (argc > 4 && !parse_int_flag("route_trace", "[routes]", argv[4], 0,
                                   std::numeric_limits<int>::max(),
                                   routes)) ||
      q < 0.0 || q >= 1.0) {
    std::cerr << "usage: route_trace [geometry] [d in 3..16] [q in [0,1)] "
                 "[routes]\n";
    return 1;
  }

  dht::math::Rng rng(99);
  const dht::sim::IdSpace space(d);
  const auto overlay = dht::sim::make_overlay(name, space, rng);
  if (overlay == nullptr) {
    std::cerr << "unknown geometry '" << name << "'\n";
    return 1;
  }
  const dht::sim::FailureScenario failures(space, q, rng);
  std::cout << dht::strfmt(
      "%s overlay, N = 2^%d, q = %.0f%%: %llu of %llu nodes alive\n\n",
      name.c_str(), d, q * 100,
      static_cast<unsigned long long>(failures.alive_count()),
      static_cast<unsigned long long>(space.size()));

  const dht::sim::Router router(*overlay, failures);
  for (int i = 0; i < routes; ++i) {
    const dht::sim::NodeId source = failures.sample_alive(rng);
    dht::sim::NodeId target = failures.sample_alive(rng);
    while (target == source) {
      target = failures.sample_alive(rng);
    }
    const dht::sim::RouteTrace trace =
        router.route_traced(source, target, rng);
    std::cout << dht::strfmt("route %s -> %s: %s in %d hops\n",
                             bits(source, d).c_str(), bits(target, d).c_str(),
                             to_string(trace.result.status),
                             trace.result.hops);
    for (size_t k = 0; k < trace.path.size(); ++k) {
      const dht::sim::NodeId node = trace.path[k];
      std::uint64_t distance;
      int phase;
      if (is_ring_family(name)) {
        distance = dht::sim::ring_distance(node, target, d);
        phase = distance == 0 ? 0 : dht::sim::phase_of_distance(distance);
      } else {
        distance = dht::sim::xor_distance(node, target);
        phase = distance == 0 ? 0 : dht::sim::phase_of_distance(distance);
      }
      std::cout << dht::strfmt("  hop %2zu: %s  distance %6llu  phase %2d\n",
                               k, bits(node, d).c_str(),
                               static_cast<unsigned long long>(distance),
                               phase);
    }
    if (trace.result.status == dht::sim::RouteStatus::kDropped) {
      std::cout << "  (dropped: no admissible alive neighbor -- no "
                   "back-tracking in the basic protocol)\n";
    }
    std::cout << '\n';
  }
  return 0;
}
