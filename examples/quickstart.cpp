// Quickstart: the one-screen tour of the dhtscale public API.
//
//   1. make a routing geometry,
//   2. evaluate its routability under random failure (the paper's Eq. 3),
//   3. ask whether the geometry is scalable (Definition 2),
//   4. cross-check the analytical prediction with a simulated overlay.
//
// Build and run:  ./build/examples/quickstart
#include <cstdio>

#include "core/registry.hpp"
#include "core/routability.hpp"
#include "core/scalability.hpp"
#include "math/rng.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/xor_overlay.hpp"

int main() {
  // 1. Kademlia's XOR geometry in a 2^16-node identifier space, 10% of
  //    nodes failed -- the setting of the paper's Fig. 6.
  const auto geometry = dht::core::make_geometry(dht::core::GeometryKind::kXor);
  const int d = 16;
  const double q = 0.10;

  // 2. Analytical routability via the Reachable Component Method.
  const dht::core::RoutabilityPoint point =
      dht::core::evaluate_routability(*geometry, d, q);
  std::printf("XOR (Kademlia), N = 2^%d, q = %.0f%%\n", d, q * 100);
  std::printf("  routability (Eq. 3):      %.2f%%\n",
              point.routability * 100);
  std::printf("  failed paths:             %.2f%%\n",
              point.failed_fraction * 100);

  // 3. Scalability: does routability survive N -> infinity?
  const dht::core::ScalabilityReport report =
      dht::core::analyze_scalability(*geometry, q);
  std::printf("  verdict:                  %s (numeric check: %s)\n",
              to_string(report.analytic),
              dht::math::to_string(report.numeric.verdict));
  std::printf("  limit routability:        %.2f%%\n",
              report.limit_routability * 100);

  // 4. Measure the real thing: build the overlay, fail nodes, route.
  dht::math::Rng rng(2006);
  const dht::sim::IdSpace space(d);
  const dht::sim::XorOverlay overlay(space, rng);
  const dht::sim::FailureScenario failures(space, q, rng);
  const auto estimate = dht::sim::estimate_routability_parallel(
      overlay, failures, {.pairs = 20000}, rng);
  const auto ci = estimate.confidence95();
  std::printf("  simulated routability:    %.2f%% (95%% CI [%.2f, %.2f])\n",
              estimate.routability() * 100, ci.lo * 100, ci.hi * 100);
  std::printf("  mean hops on success:     %.2f\n", estimate.hops.mean());
  return 0;
}
