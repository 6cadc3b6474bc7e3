// Extension: sequential neighbors for Chord (paper Sections 1-2).
//
// The paper repeatedly notes that a deployment can compensate for an
// unfavorable operating point by adding sequential neighbors.  This harness
// makes that quantitative for the ring geometry: a successor list of s
// nodes lowers every phase's failure exit from q^m to q^{m+s}
// (Q_s(m) = q^{m+s} sum_k [q(1-q^{m-1+s})]^k), and the simulated overlay
// confirms the predicted gains.
#include <iostream>

#include "bench_util.hpp"
#include "common/strfmt.hpp"
#include "core/report.hpp"
#include "core/ring_geometry.hpp"
#include "core/routability.hpp"
#include "math/rng.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/parallel_monte_carlo.hpp"

namespace {
constexpr int kBits = 14;
constexpr std::uint64_t kPairs = 20000;

double simulated_failed(int successors, double q, std::uint64_t seed) {
  using namespace dht;
  if (q == 0.0) {
    return 0.0;
  }
  const sim::IdSpace space(kBits);
  math::Rng rng(seed);
  const sim::ChordOverlay overlay(space, rng,
                                  sim::ChordFingers::kDeterministic,
                                  successors);
  math::Rng fail_rng(seed + 1);
  const sim::FailureScenario failures(space, q, fail_rng);
  const math::Rng route_rng(seed + 2);
  return 1.0 - sim::estimate_routability_parallel(overlay, failures,
                                                  {.pairs = kPairs}, route_rng)
                   .routability();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dht;
  const auto flags = bench::parse_flags(argc, argv);

  core::Table table(strfmt(
      "Sequential-neighbor extension -- ring failed paths %% at N = 2^%d "
      "with a successor list of s nodes (analytical Q_s vs simulation)",
      kBits));
  table.set_header({"q%", "s=0 ana", "s=0 sim", "s=4 ana", "s=4 sim",
                    "s=8 ana", "s=8 sim"});
  std::uint64_t seed = 1;
  for (double q : bench::paper_q_grid()) {
    std::vector<std::string> row{bench::pct(q)};
    for (int s : {0, 4, 8}) {
      const core::RingGeometry geometry(s);
      row.push_back(bench::pct(
          1.0 - core::evaluate_routability(geometry, kBits, q)
                    .conditional_success));
      row.push_back(bench::pct(
          simulated_failed(s, q, seed + static_cast<std::uint64_t>(s))));
    }
    table.add_row(std::move(row));
    seed += 100;
  }
  table.add_note(
      "fully-populated subtlety: successor offsets that are powers of two "
      "(+1, +2, +4, ...) already ARE fingers, so only s_eff = s - "
      "bit_width(s) links add resilience -- s = 2 changes nothing, s = 4 "
      "adds one node (+3), s = 8 adds four (+3, +5, +6, +7).  The model's "
      "exponent q^{m+s_eff} encodes exactly that");
  table.add_note(
      "for s > 0 the model is an approximation (end-game successors can "
      "overshoot), not a bound; agreement stays within a few percent");
  dht::bench::emit(table, flags);
  return 0;
}
