// Ablation: how tight is the ring lower bound, and for which Chord?
//
// The paper's ring Markov chain (Fig. 8(a)) assumes m usable fingers in
// phase m.  That matches classic Chord (fingers at offsets exactly 2^i);
// for the randomized variant (finger i uniform in [2^{d-i}, 2^{d-i+1})) the
// top in-phase finger can overshoot the target, so real routing sometimes
// has only m-1 options and the measured failed-path fraction can exceed
// the chain's "upper bound".  This table quantifies both effects.
#include <iostream>

#include "bench_util.hpp"
#include "common/strfmt.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/routability.hpp"
#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/monte_carlo.hpp"

namespace {
constexpr int kBits = 14;
constexpr std::uint64_t kPairs = 20000;

double simulated_failed(dht::sim::ChordFingers variant, double q,
                        std::uint64_t seed) {
  using namespace dht;
  if (q == 0.0) {
    return 0.0;
  }
  const sim::IdSpace space(kBits);
  math::Rng build_rng(seed);
  const sim::ChordOverlay overlay(space, build_rng, variant);
  math::Rng fail_rng(seed + 1);
  const sim::FailureScenario failures(space, q, fail_rng);
  math::Rng route_rng(seed + 2);
  return 1.0 - sim::estimate_routability(overlay, failures, {.pairs = kPairs},
                                         route_rng)
                   .routability();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dht;
  const auto flags = bench::parse_flags(argc, argv);
  const auto ring = core::make_geometry(core::GeometryKind::kRing);

  core::Table table(strfmt(
      "Ring bound ablation -- percent failed paths at N = 2^%d: analytical "
      "bound vs deterministic vs randomized fingers",
      kBits));
  table.set_header({"q%", "ana bound", "classic (2^i fingers)",
                    "randomized fingers", "bound holds (classic)",
                    "bound holds (randomized)"});
  std::uint64_t seed = 400;
  for (double q : bench::paper_q_grid()) {
    const double bound =
        1.0 - core::evaluate_routability(*ring, kBits, q).conditional_success;
    const double classic =
        simulated_failed(sim::ChordFingers::kDeterministic, q, seed);
    const double randomized =
        simulated_failed(sim::ChordFingers::kRandomized, q, seed + 7);
    table.add_row({bench::pct(q), bench::pct(bound), bench::pct(classic),
                   bench::pct(randomized),
                   classic <= bound + 0.005 ? "yes" : "NO",
                   randomized <= bound + 0.005 ? "yes" : "NO"});
    seed += 20;
  }
  table.add_note(
      "classic fingers: failures stay at or below the analytical upper "
      "bound at every q (the paper's Fig. 6(b) claim); randomized fingers "
      "can exceed it at small q -- the chain's m-choices assumption is "
      "specific to the deterministic finger layout");
  bench::emit(table, flags);
  return 0;
}
