// Reproduces the paper's worked example (Figs. 1-3): the 8-node hypercube.
//
// Prints the Fig. 3 table -- n(h) and the per-step success probabilities
// Pr(S_h, S_{h+1}) -- and the resulting p(3, q) = (1-q^3)(1-q^2)(1-q),
// cross-checked three ways: closed form, Markov-chain absorption, and
// Monte-Carlo simulation on the actual 8-node overlay.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/strfmt.hpp"
#include "core/hypercube_geometry.hpp"
#include "core/report.hpp"
#include "core/routability.hpp"
#include "markov/absorption.hpp"
#include "markov/builders.hpp"
#include "math/rng.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/router.hpp"

namespace {

/// Measured probability of routing node 011 -> 100 (the Fig. 3 example:
/// Hamming distance 3) over many independent failure draws, conditioned on
/// source and target surviving.
double simulate_example(double q, int trials) {
  using namespace dht;
  const sim::IdSpace space(3);
  const sim::HypercubeOverlay overlay(space);
  math::Rng rng(12345);
  int eligible = 0;
  int successes = 0;
  while (eligible < trials) {
    sim::FailureScenario failures(space, q, rng);
    failures.revive(0b011);  // condition on the endpoints surviving
    failures.revive(0b100);
    ++eligible;
    const sim::Router router(overlay, failures);
    if (router.route(0b011, 0b100, rng).success()) {
      ++successes;
    }
  }
  return static_cast<double>(successes) / trials;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dht;
  const auto flags = bench::parse_flags(argc, argv);
  const core::HypercubeGeometry cube;

  core::Table structure(
      "Fig. 3 -- routing structure of the 8-node hypercube (d = 3)");
  structure.set_header({"h", "n(h)", "Pr(S_h -> S_h+1)"});
  structure.add_row({"1", "C(3,1) = 3", "1 - q^3"});
  structure.add_row({"2", "C(3,2) = 3", "1 - q^2"});
  structure.add_row({"3", "C(3,3) = 1", "1 - q"});
  structure.add_note(
      "routing 011 -> 100: three bit-correcting choices for the first hop, "
      "two for the second, one for the last");
  bench::emit(structure, flags);
  std::cout << '\n';

  core::Table table(
      "Fig. 3 -- p(3, q) = (1-q^3)(1-q^2)(1-q), three independent ways");
  table.set_header({"q", "closed form", "markov chain", "simulated (8 nodes)",
                    "E[S] (Eq. 3 numerator)", "routability r"});
  for (double q : {0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}) {
    const double closed = (1 - q * q * q) * (1 - q * q) * (1 - q);
    const markov::RoutingChain chain = markov::build_hypercube_chain(3, q);
    const double absorbed = markov::absorption_probability_dag(
        chain.chain, chain.start, chain.success);
    // Conditioned on the destination being alive the measured probability
    // corresponds to p(3, q)/(1-q); multiply back for the table.
    const double simulated =
        q < 1.0 ? simulate_example(q, 60000) * (1.0 - q) : 0.0;
    const core::RoutabilityPoint point =
        q < 1.0 ? core::evaluate_routability(cube, 3, q)
                : core::RoutabilityPoint{};
    table.add_row({strfmt("%.1f", q), strfmt("%.6f", closed),
                   strfmt("%.6f", absorbed), strfmt("%.4f", simulated),
                   strfmt("%.4f", std::exp(point.log_expected_reachable)),
                   strfmt("%.6f", point.routability)});
  }
  table.add_note(
      "simulated column: 60k failure draws of the real 3-bit overlay, "
      "route 011 -> 100, de-conditioned on destination survival");
  table.add_note(
      "routability saturates/clamps at this toy scale: Eq. 3's denominator "
      "(1-q)N - 1 undercounts the root's expected (1-q)(N-1) alive peers by "
      "q, which only matters when N = 8");
  bench::emit(table, flags);
  return 0;
}
