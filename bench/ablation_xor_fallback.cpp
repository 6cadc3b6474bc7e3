// Ablation: the value of XOR's fallback rule (paper Section 3.3).
//
// Tree and XOR share the identical neighbor structure; the only difference
// is that XOR may correct a lower-order differing bit when the optimal
// neighbor is dead.  Running both forwarding rules over the *same* tables
// and the *same* failure draws isolates the fallback's contribution --
// which is exactly the gap between the tree and XOR curves of Fig. 6(a).
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "common/strfmt.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/routability.hpp"
#include "math/rng.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"

namespace {
constexpr int kBits = 14;
constexpr std::uint64_t kPairs = 20000;
}  // namespace

int main(int argc, char** argv) {
  using namespace dht;
  const auto flags = bench::parse_flags(argc, argv);
  const sim::IdSpace space(kBits);
  math::Rng build_rng(77);
  const auto table_ptr = std::make_shared<const sim::PrefixTable>(space,
                                                                  build_rng);
  const sim::TreeOverlay tree(space, table_ptr);
  const sim::XorOverlay xr(space, table_ptr);
  const auto tree_geo = core::make_geometry(core::GeometryKind::kTree);
  const auto xor_geo = core::make_geometry(core::GeometryKind::kXor);

  core::Table table(strfmt(
      "XOR fallback ablation -- identical tables and failures, N = 2^%d: "
      "routability %% with and without fallback",
      kBits));
  table.set_header({"q%", "tree sim (no fallback)", "xor sim (fallback)",
                    "fallback gain", "tree ana", "xor ana"});
  std::uint64_t seed = 300;
  for (double q : bench::paper_q_grid()) {
    double r_tree = 1.0;
    double r_xor = 1.0;
    if (q > 0.0) {
      math::Rng fail_rng(seed);
      const sim::FailureScenario failures(space, q, fail_rng);
      math::Rng rng_a(seed + 1);
      math::Rng rng_b(seed + 1);  // identical pair sampling
      r_tree = sim::estimate_routability(tree, failures, {.pairs = kPairs},
                                         rng_a)
                   .routability();
      r_xor = sim::estimate_routability(xr, failures, {.pairs = kPairs},
                                        rng_b)
                  .routability();
    }
    table.add_row(
        {bench::pct(q), bench::pct(r_tree), bench::pct(r_xor),
         bench::pct(r_xor - r_tree),
         bench::pct(core::evaluate_routability(*tree_geo, kBits, q)
                        .conditional_success),
         bench::pct(core::evaluate_routability(*xor_geo, kBits, q)
                        .conditional_success)});
    seed += 10;
  }
  table.add_note(
      "the fallback gain peaks in the mid-q knee -- the region where "
      "Kademlia's XOR metric buys the most resilience over plain prefix "
      "routing for free (same state, same neighbors)");
  bench::emit(table, flags);
  return 0;
}
