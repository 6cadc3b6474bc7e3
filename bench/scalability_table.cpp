// Reproduces the paper's Section 5 result as a table: the scalable /
// unscalable classification of the five geometries, with the Knopp-
// criterion evidence (analytic argument + numeric series diagnosis) and
// the limiting routability at a few failure probabilities.
#include <iostream>

#include "bench_util.hpp"
#include "common/strfmt.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/scalability.hpp"

int main(int argc, char** argv) {
  using namespace dht;
  const auto flags = bench::parse_flags(argc, argv);

  core::Table table(
      "Section 5 -- scalability of DHT routing geometries under random "
      "failure (Knopp criterion on sum Q(m))");
  table.set_header({"geometry", "system", "verdict", "numeric sum Q(m)",
                    "agree", "r_inf(q=0.1)%", "r_inf(0.3)%", "r_inf(0.5)%"});
  for (const auto& geometry : core::make_all_geometries()) {
    const core::ScalabilityReport report =
        core::analyze_scalability(*geometry, 0.3);
    table.add_row(
        {std::string(geometry->name()), std::string(geometry->dht_system()),
         to_string(report.analytic), math::to_string(report.numeric.verdict),
         report.numeric_agrees ? "yes" : "NO",
         bench::pct(core::limit_routability(*geometry, 0.1)),
         bench::pct(core::limit_routability(*geometry, 0.3)),
         bench::pct(core::limit_routability(*geometry, 0.5))});
  }
  table.add_note(
      "verdict: analytic classification per the paper; numeric: dyadic "
      "block diagnosis of sum Q(m) at q = 0.3 (independent corroboration)");
  bench::emit(table, flags);
  std::cout << '\n';

  core::Table args("Why: the scalability arguments");
  args.set_header({"geometry", "argument"});
  for (const auto& geometry : core::make_all_geometries()) {
    args.add_row({std::string(geometry->name()),
                  std::string(geometry->scalability_argument())});
  }
  bench::emit(args, flags);
  return 0;
}
