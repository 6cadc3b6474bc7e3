// Sweep the node failure probability for one geometry, printing the
// analytical prediction next to a fresh simulation -- a personal Fig. 6 for
// any geometry and network size.  Output is CSV so it pipes straight into a
// plotting tool.
//
// Usage: failure_sweep [geometry] [d] [pairs]
//   geometry -- tree | hypercube | xor | ring | symphony (default xor)
//   d        -- identifier length, N = 2^d, 4..20 (default 14)
//   pairs    -- sampled pairs per point (default 20000)
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

#include "common/flags.hpp"
#include "common/strfmt.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/routability.hpp"
#include "math/rng.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/overlay.hpp"

int main(int argc, char** argv) {
  using dht::common::parse_int_flag;
  using dht::common::parse_u64_flag;
  const std::string name = argc > 1 ? argv[1] : "xor";
  int d = 14;
  std::uint64_t pairs = 20000;
  if ((argc > 2 &&
       !parse_int_flag("failure_sweep", "[d]", argv[2], 4, 20, d)) ||
      (argc > 3 && !parse_u64_flag("failure_sweep", "[pairs]", argv[3], 1,
                                   std::numeric_limits<std::uint64_t>::max(),
                                   pairs))) {
    std::cerr << "usage: failure_sweep [geometry] [d in 4..20] [pairs]\n";
    return 1;
  }

  const dht::sim::IdSpace space(d);
  dht::math::Rng rng(424242);
  const auto overlay = dht::sim::make_overlay(name, space, rng);
  if (overlay == nullptr) {
    std::cerr << "unknown geometry '" << name
              << "' (tree|hypercube|xor|ring|symphony)\n";
    return 1;
  }
  const auto geometry = dht::core::make_geometry(name);

  dht::core::Table table("failure sweep: " + name +
                         " at N = 2^" + std::to_string(d));
  table.set_header({"q", "analytical_failed", "simulated_failed",
                    "ci95_lo", "ci95_hi", "mean_hops"});
  for (int percent = 0; percent <= 90; percent += 5) {
    const double q = percent / 100.0;
    const double analytical =
        1.0 -
        dht::core::evaluate_routability(*geometry, d, q).conditional_success;
    double simulated = 0.0;
    dht::math::Interval ci{0.0, 0.0};
    double hops = 0.0;
    dht::math::Rng fail_rng(1000 + static_cast<std::uint64_t>(percent));
    const dht::sim::FailureScenario failures(space, q, fail_rng);
    const auto estimate = dht::sim::estimate_routability_parallel(
        *overlay, failures, {.pairs = pairs}, rng);
    simulated = estimate.failed_fraction();
    const auto routed_ci = estimate.confidence95();
    ci = {1.0 - routed_ci.hi, 1.0 - routed_ci.lo};
    hops = estimate.hops.mean();
    table.add_row({dht::strfmt("%.2f", q), dht::strfmt("%.5f", analytical),
                   dht::strfmt("%.5f", simulated), dht::strfmt("%.5f", ci.lo),
                   dht::strfmt("%.5f", ci.hi), dht::strfmt("%.2f", hops)});
  }
  table.print_csv(std::cout);
  return 0;
}
