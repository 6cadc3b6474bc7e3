// Compare all five DHT routing geometries at a chosen operating point --
// the "which DHT should I deploy?" question of the paper's introduction.
//
// Usage: compare_geometries [d] [q]
//   d -- identifier length, N = 2^d (default 16; anything up to thousands
//        works, the evaluation is log-domain)
//   q -- node failure probability in [0, 1) (default 0.1)
#include <iostream>
#include <limits>

#include "common/flags.hpp"
#include "common/strfmt.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/routability.hpp"
#include "core/scalability.hpp"

int main(int argc, char** argv) {
  using dht::common::parse_double_flag;
  using dht::common::parse_int_flag;
  int d = 16;
  double q = 0.1;
  if ((argc > 1 && !parse_int_flag("compare_geometries", "[d]", argv[1], 1,
                                   std::numeric_limits<int>::max(), d)) ||
      (argc > 2 &&
       !parse_double_flag("compare_geometries", "[q]", argv[2], q)) ||
      q < 0.0 || q >= 1.0) {
    std::cerr << "usage: compare_geometries [d >= 1] [q in [0, 1)]\n";
    return 1;
  }

  dht::core::Table table(dht::strfmt(
      "DHT routing geometries at N = 2^%d, q = %.1f%%", d, q * 100));
  table.set_header({"geometry", "system", "routability%", "failed%",
                    "r at N->inf %", "verdict", "model"});
  for (const auto& geometry : dht::core::make_all_geometries()) {
    const auto point = dht::core::evaluate_routability(*geometry, d, q);
    const double limit =
        q > 0.0 ? dht::core::limit_routability(*geometry, q) : 1.0;
    table.add_row({std::string(geometry->name()),
                   std::string(geometry->dht_system()),
                   dht::strfmt("%.2f", point.routability * 100),
                   dht::strfmt("%.2f", point.failed_fraction * 100),
                   dht::strfmt("%.2f", limit * 100),
                   to_string(geometry->scalability_class()),
                   to_string(geometry->exactness())});
  }
  table.add_note(
      "model column: 'exact' = p(h,q) exact for the basic protocol; "
      "'lower bound' = Chord's suboptimal-hop progress is not modeled; "
      "'approximate' = Symphony's capped-hop chain");
  table.print(std::cout);
  return 0;
}
