// Reproduces Fig. 7(b): routability (%) vs system size at q = 0.1 for all
// five geometries (Symphony kn = ks = 1).  The paper's x-axis spans
// ~10^5..10^10; this table covers N = 2^4 .. 2^100 to show both the paper's
// window and the approach to the asymptote.
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/strfmt.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/routability.hpp"
#include "core/scalability.hpp"
#include "math/rng.hpp"
#include "sim/overlay.hpp"
#include "sim/parallel_monte_carlo.hpp"

namespace {

const char* overlay_name(dht::core::GeometryKind kind) {
  switch (kind) {
    case dht::core::GeometryKind::kTree:
      return "tree";
    case dht::core::GeometryKind::kHypercube:
      return "hypercube";
    case dht::core::GeometryKind::kXor:
      return "xor";
    case dht::core::GeometryKind::kRing:
      return "ring";
    case dht::core::GeometryKind::kSymphony:
      return "symphony";
  }
  return "tree";
}

/// One simulated routability point from the parallel deterministic engine.
double simulated_routability(dht::core::GeometryKind kind, int d, double q,
                             unsigned threads) {
  using namespace dht;
  const sim::IdSpace space(d);
  math::Rng build_rng(20060328 + static_cast<std::uint64_t>(d));
  const std::unique_ptr<sim::Overlay> overlay =
      sim::make_overlay(overlay_name(kind), space, build_rng);
  math::Rng fail_rng(7 + static_cast<std::uint64_t>(d));
  const sim::FailureScenario failures(space, q, fail_rng);
  const math::Rng route_rng(11);
  return sim::estimate_routability_parallel(
             *overlay, failures, {.pairs = 20000, .threads = threads},
             route_rng)
      .routability();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dht;
  const auto flags = bench::parse_flags(argc, argv, /*takes_threads=*/true);
  const double q = 0.1;
  const auto geometries = core::make_all_geometries(core::SymphonyParams{1, 1});

  core::Table table(
      "Fig. 7(b) -- routability (%) vs system size, q = 0.1 "
      "(Symphony kn = ks = 1)");
  table.set_header(
      {"d", "N", "cube", "chord", "xor", "tree", "symphony"});
  const std::vector<int> ds{4,  8,  12, 16, 17, 20, 23,
                            27, 30, 33, 40, 60, 80, 100};
  for (int d : ds) {
    std::vector<std::string> row{strfmt("%d", d), strfmt("%.2e", std::exp2(d))};
    const auto routability_at = [&](core::GeometryKind kind) {
      for (const auto& g : geometries) {
        if (g->kind() == kind) {
          return core::evaluate_routability(*g, d, q).routability;
        }
      }
      return 0.0;
    };
    row.push_back(bench::pct(routability_at(core::GeometryKind::kHypercube)));
    row.push_back(bench::pct(routability_at(core::GeometryKind::kRing)));
    row.push_back(bench::pct(routability_at(core::GeometryKind::kXor)));
    row.push_back(bench::pct(routability_at(core::GeometryKind::kTree)));
    row.push_back(bench::pct(routability_at(core::GeometryKind::kSymphony)));
    table.add_row(std::move(row));
  }
  // The asymptotes (Definition 2's limit).
  std::vector<std::string> limit_row{"inf", "inf"};
  for (core::GeometryKind kind :
       {core::GeometryKind::kHypercube, core::GeometryKind::kRing,
        core::GeometryKind::kXor, core::GeometryKind::kTree,
        core::GeometryKind::kSymphony}) {
    const auto geometry = core::make_geometry(kind);
    limit_row.push_back(bench::pct(core::limit_routability(*geometry, q)));
  }
  table.add_row(std::move(limit_row));
  table.add_note(
      "paper's reading: tree and symphony degrade monotonically toward 0 "
      "(unscalable) while hypercube, chord and xor stay flat and positive "
      "out to billions of nodes (scalable)");
  table.add_note("d = 17..33 covers the paper's 10^5..10^10 x-axis window");
  dht::bench::emit(table, flags);

  // Cross-check the analytical curves against the parallel deterministic
  // Monte-Carlo engine at the sizes where full overlays fit in memory.
  core::Table sim_table(
      "Fig. 7(b) cross-check -- simulated routability (%) from the parallel "
      "engine, q = 0.1");
  sim_table.set_header({"d", "N", "cube", "chord", "xor", "tree", "symphony"});
  for (int d : {4, 8, 12, 16}) {
    std::vector<std::string> row{strfmt("%d", d), strfmt("%.2e", std::exp2(d))};
    for (core::GeometryKind kind :
         {core::GeometryKind::kHypercube, core::GeometryKind::kRing,
          core::GeometryKind::kXor, core::GeometryKind::kTree,
          core::GeometryKind::kSymphony}) {
      row.push_back(
          bench::pct(simulated_routability(kind, d, q, flags.threads)));
    }
    sim_table.add_row(std::move(row));
  }
  sim_table.add_note(
      "20000 sampled alive pairs per point; success fraction among alive "
      "pairs (the paper's conditional routability)");
  sim_table.add_note(
      "--threads N picks the worker count (results are thread-count "
      "independent)");
  dht::bench::emit(sim_table, flags);
  return 0;
}
