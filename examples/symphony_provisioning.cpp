// Provisioning helper for Symphony deployments.
//
// The paper stresses that although basic Symphony routing is asymptotically
// unscalable, "a system designer can specify enough near neighbors to
// guarantee an acceptable routability ... for a maximum network size and a
// reasonable failure probability" (Section 1).  This tool inverts Eq. 7:
// given a target routability, a maximum network size and a failure
// probability, it reports the smallest (kn, ks) provisioning that meets the
// target, analytically and with a simulated confirmation.
//
// Usage: symphony_provisioning [target] [d] [q]
//   target -- required routability in (0, 1) (default 0.95)
//   d      -- identifier length of the largest expected network (default 16)
//   q      -- design-point failure probability (default 0.2)
#include <iostream>
#include <limits>

#include "common/flags.hpp"
#include "common/strfmt.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/routability.hpp"
#include "math/rng.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/symphony_overlay.hpp"

namespace {

double analytical_routability(int kn, int ks, int d, double q) {
  const auto geometry = dht::core::make_geometry(
      dht::core::GeometryKind::kSymphony,
      dht::core::SymphonyParams{.near_neighbors = kn, .shortcuts = ks});
  return dht::core::evaluate_routability(*geometry, d, q).routability;
}

}  // namespace

int main(int argc, char** argv) {
  using dht::common::parse_double_flag;
  using dht::common::parse_int_flag;
  double target = 0.95;
  int d = 16;
  double q = 0.2;
  if ((argc > 1 && !parse_double_flag("symphony_provisioning", "[target]",
                                      argv[1], target)) ||
      (argc > 2 && !parse_int_flag("symphony_provisioning", "[d]", argv[2], 4,
                                   std::numeric_limits<int>::max(), d)) ||
      (argc > 3 &&
       !parse_double_flag("symphony_provisioning", "[q]", argv[3], q)) ||
      target <= 0.0 || target >= 1.0 || q < 0.0 || q >= 1.0) {
    std::cerr << "usage: symphony_provisioning [target in (0,1)] [d >= 4] "
                 "[q in [0, 1)]\n";
    return 1;
  }

  dht::core::Table table(dht::strfmt(
      "Symphony provisioning for routability >= %.0f%% at N = 2^%d, "
      "q = %.0f%%",
      target * 100, d, q * 100));
  table.set_header(
      {"kn", "ks", "analytical r%", "meets target", "simulated r%"});

  const auto simulated_routability = [&](int kn, int ks) {
    dht::math::Rng rng(7777);
    const dht::sim::IdSpace space(d);
    const dht::sim::SymphonyOverlay overlay(space, kn, ks, rng);
    const dht::sim::FailureScenario failures(space, q, rng);
    return dht::sim::estimate_routability_parallel(overlay, failures,
                                                   {.pairs = 20000}, rng)
        .routability();
  };

  // Walk the provisioning budget upward.  For each total budget, the
  // balanced split maximizes 1 - q^{kn+ks} robustness against the ks/d
  // phase-advance term; report the first budget whose analytical and (when
  // the network fits in memory) simulated routability meet the target.
  bool analytical_met = false;
  bool simulated_met = d > 20;  // no simulation possible beyond 2^20
  for (int total_links = 2; total_links <= 32; ++total_links) {
    const int kn = total_links / 2;
    const int ks = total_links - kn;
    const double analytical = analytical_routability(kn, ks, d, q);
    if (analytical < target && !analytical_met) {
      continue;
    }
    const double simulated = d <= 20 ? simulated_routability(kn, ks) : -1.0;
    table.add_row({dht::strfmt("%d", kn), dht::strfmt("%d", ks),
                   dht::strfmt("%.2f", analytical * 100),
                   analytical >= target ? "yes" : "no",
                   simulated >= 0.0 ? dht::strfmt("%.2f", simulated * 100)
                                    : "n/a (d > 20)"});
    analytical_met = true;
    if (simulated >= target) {
      simulated_met = true;
    }
    if (analytical_met && simulated_met) {
      break;
    }
  }
  if (!analytical_met) {
    std::cout << "no (kn, ks) with kn + ks <= 32 meets the target; raise "
                 "the budget or lower the target\n";
    return 2;
  }
  table.add_note(
      "first row: smallest budget whose Eq. 7 prediction meets the target; "
      "following rows: budget increased until the simulation agrees.  "
      "Eq. 7 is optimistic for minimally provisioned unidirectional "
      "routing (it ignores overshoot-blocking), so the gap between the "
      "two stopping points is the model's optimism at this design point");
  table.print(std::cout);
  return 0;
}
