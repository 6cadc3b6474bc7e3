// Reproduces Fig. 7(a): percent failed paths vs failure probability in the
// asymptotic limit, evaluated at N = 2^100 for all five geometries
// (Symphony with kn = ks = 1, as in the paper).
//
// The log-domain evaluator makes d = 100 routine; the table also prints the
// true N -> infinity limit (1 - p_inf/(1-q)) to show how close 2^100
// already is to the asymptote -- the tree and Symphony columns are the
// step functions the paper highlights, the other three match their
// N = 2^16 values.
#include <iostream>

#include "bench_util.hpp"
#include "common/strfmt.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/routability.hpp"
#include "core/scalability.hpp"

namespace {
constexpr int kBits = 100;  // N = 2^100, the paper's asymptotic evaluation
}  // namespace

int main(int argc, char** argv) {
  using namespace dht;
  const auto flags = bench::parse_flags(argc, argv);
  const auto geometries = core::make_all_geometries(core::SymphonyParams{1, 1});

  core::Table table(
      "Fig. 7(a) -- percent failed paths vs failure probability, N = 2^100 "
      "(Symphony kn = ks = 1)");
  table.set_header({"q%", "cube", "chord", "xor", "tree", "symphony",
                    "cube(inf)", "chord(inf)", "xor(inf)"});
  for (double q : bench::paper_q_grid()) {
    std::vector<std::string> row{bench::pct(q)};
    const auto failed_at = [&](core::GeometryKind kind) {
      for (const auto& g : geometries) {
        if (g->kind() == kind) {
          return 1.0 - core::evaluate_routability(*g, kBits, q).routability;
        }
      }
      return 1.0;
    };
    row.push_back(bench::pct(failed_at(core::GeometryKind::kHypercube)));
    row.push_back(bench::pct(failed_at(core::GeometryKind::kRing)));
    row.push_back(bench::pct(failed_at(core::GeometryKind::kXor)));
    row.push_back(bench::pct(failed_at(core::GeometryKind::kTree)));
    row.push_back(bench::pct(failed_at(core::GeometryKind::kSymphony)));
    // N -> infinity limits for the scalable three (0 < q < 1 only).
    for (core::GeometryKind kind :
         {core::GeometryKind::kHypercube, core::GeometryKind::kRing,
          core::GeometryKind::kXor}) {
      const auto geometry = core::make_geometry(kind);
      const double limit =
          q == 0.0 ? 0.0 : 1.0 - core::limit_routability(*geometry, q);
      row.push_back(bench::pct(limit));
    }
    table.add_row(std::move(row));
  }
  table.add_note(
      "tree and symphony are step functions (unscalable: any q > 0 kills "
      "asymptotic routability); cube/chord/xor columns match both their "
      "N = 2^16 values and their N -> infinity limits");
  table.add_note(
      "chord column is the analytical lower-bound model (failed-path upper "
      "bound), as in the paper");
  dht::bench::emit(table, flags);
  return 0;
}
