// Ablation: the paper's provisioning remark (Sections 1-2) -- "a system
// designer can always add enough sequential neighbors to achieve an
// acceptable routability ... for a maximum network size".
//
// Sweeps Symphony's kn (near neighbors) and ks (shortcuts) at N = 2^14,
// printing analytical (Eq. 7) and simulated routability side by side, plus
// the minimum provisioning that reaches a 90% routability target.
#include <iostream>

#include "bench_util.hpp"
#include "common/strfmt.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/routability.hpp"
#include "math/rng.hpp"
#include "sim/parallel_monte_carlo.hpp"
#include "sim/symphony_overlay.hpp"

namespace {

constexpr int kBits = 14;
constexpr std::uint64_t kPairs = 10000;

double simulated(int kn, int ks, double q, std::uint64_t seed) {
  using namespace dht;
  const sim::IdSpace space(kBits);
  math::Rng build_rng(seed);
  const sim::SymphonyOverlay overlay(space, kn, ks, build_rng);
  math::Rng fail_rng(seed + 1);
  const sim::FailureScenario failures(space, q, fail_rng);
  const math::Rng route_rng(seed + 2);
  return sim::estimate_routability_parallel(overlay, failures,
                                            {.pairs = kPairs}, route_rng)
      .routability();
}

double analytical(int kn, int ks, double q) {
  using namespace dht;
  const auto geometry = core::make_geometry(
      core::GeometryKind::kSymphony,
      core::SymphonyParams{.near_neighbors = kn, .shortcuts = ks});
  return core::evaluate_routability(*geometry, kBits, q).conditional_success;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dht;
  const auto flags = bench::parse_flags(argc, argv);

  core::Table sweep(strfmt(
      "Symphony provisioning ablation -- routability %% at N = 2^%d, "
      "q = 0.2, sweeping (kn, ks)",
      kBits));
  sweep.set_header({"kn", "ks", "links", "analytical (Eq. 7)", "simulated"});
  std::uint64_t seed = 100;
  for (int kn : {1, 2, 4, 8}) {
    for (int ks : {1, 2, 4, 8}) {
      sweep.add_row({strfmt("%d", kn), strfmt("%d", ks),
                     strfmt("%d", kn + ks),
                     bench::pct(analytical(kn, ks, 0.2)),
                     bench::pct(simulated(kn, ks, 0.2, seed))});
      seed += 10;
    }
  }
  sweep.add_note(
      "both columns rise steeply with provisioning; Eq. 7 is optimistic "
      "for the unidirectional protocol at minimal provisioning (it ignores "
      "overshoot-blocking) and tightens as links are added");
  bench::emit(sweep, flags);
  std::cout << '\n';

  core::Table target(
      "Minimum symmetric provisioning (kn = ks = k) reaching 90% simulated "
      "routability");
  target.set_header({"q", "k needed", "simulated %"});
  for (double q : {0.1, 0.2, 0.3, 0.4}) {
    int k_needed = -1;
    double achieved = 0.0;
    for (int k = 1; k <= 16; ++k) {
      achieved = simulated(k, k, q, 9000 + static_cast<std::uint64_t>(k));
      if (achieved >= 0.9) {
        k_needed = k;
        break;
      }
    }
    target.add_row({strfmt("%.1f", q),
                    k_needed > 0 ? strfmt("%d", k_needed) : "> 16",
                    bench::pct(achieved)});
  }
  target.add_note(
      "the paper's point: unscalability is asymptotic -- for any finite "
      "deployment a designer can buy the target routability with links");
  bench::emit(target, flags);
  return 0;
}
