// Reproduces Fig. 6(b): percentage of failed paths vs node failure
// probability at N = 2^16 for the ring (Chord) geometry.  The analytical
// curve is an upper bound on failed paths (the Markov chain ignores the
// progress suboptimal hops preserve); the simulation uses classic
// deterministic fingers, the system Gummadi et al. measured.
#include <iostream>

#include "bench_util.hpp"
#include "common/strfmt.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/routability.hpp"
#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/parallel_monte_carlo.hpp"

namespace {
constexpr int kBits = 16;
constexpr std::uint64_t kPairs = 20000;
}  // namespace

int main(int argc, char** argv) {
  using namespace dht;
  const auto flags = bench::parse_flags(argc, argv);
  const sim::IdSpace space(kBits);
  math::Rng build_rng(1);
  const sim::ChordOverlay overlay(space, build_rng);
  const auto ring = core::make_geometry(core::GeometryKind::kRing);

  core::Table table(strfmt(
      "Fig. 6(b) -- percent failed paths vs node failure probability, "
      "ring geometry, N = 2^%d",
      kBits));
  table.set_header({"q%", "ring ana (upper bound)", "ring sim", "gap"});
  std::uint64_t seed = 5000;
  for (double q : bench::paper_q_grid()) {
    const double ana =
        1.0 - core::evaluate_routability(*ring, kBits, q).conditional_success;
    double sim_failed = 0.0;
    if (q > 0.0) {
      math::Rng fail_rng(seed);
      const sim::FailureScenario failures(space, q, fail_rng);
      const math::Rng route_rng(seed + 1);
      sim_failed = 1.0 - sim::estimate_routability_parallel(
                             overlay, failures, {.pairs = kPairs}, route_rng)
                             .routability();
    }
    table.add_row({bench::pct(q), bench::pct(ana), bench::pct(sim_failed),
                   bench::pct(ana - sim_failed)});
    seed += 10;
  }
  table.add_note(
      "the analytical column upper-bounds the simulated failures at every "
      "q; the curves are close in the region of practical interest "
      "(q <= 20%) and diverge beyond it, exactly as the paper discusses");
  dht::bench::emit(table, flags);
  return 0;
}
