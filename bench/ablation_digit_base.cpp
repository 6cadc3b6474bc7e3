// Ablation: the identifier digit base (paper Section 3: "we will use
// binary strings as identifiers although any other base besides 2 can be
// used").
//
// At a fixed population N = b^d, a larger base shortens routes (d = log_b N
// sequential corrections) at the price of d(b-1) routing-table entries.
// For the fallback-free tree geometry every correction is a single point of
// failure, so the base directly trades state for resilience -- the design
// argument behind Tapestry/Pastry's base 16.  This table quantifies the
// trade at N = 2^12 and N = 2^16.
#include <iostream>

#include "bench_util.hpp"
#include "common/strfmt.hpp"
#include "core/report.hpp"
#include "core/routability.hpp"
#include "core/tree_geometry.hpp"

namespace {

struct Config {
  int base;
  int digits;  // so that base^digits == N
};

void emit_for(std::uint64_t n_label, const std::vector<Config>& configs,
              const dht::bench::Flags& flags) {
  using namespace dht;
  core::Table table(strfmt(
      "Digit-base ablation -- tree geometry failed paths %% at N = %llu "
      "(base^digits constant, table size = digits*(base-1))",
      static_cast<unsigned long long>(n_label)));
  std::vector<std::string> header{"q%"};
  for (const Config& c : configs) {
    header.push_back(strfmt("b=%d,d=%d", c.base, c.digits));
  }
  header.push_back("table entries b=2");
  header.push_back(strfmt("table entries b=%d", configs.back().base));
  table.set_header(std::move(header));
  for (double q : bench::paper_q_grid()) {
    std::vector<std::string> row{bench::pct(q)};
    for (const Config& c : configs) {
      const core::TreeGeometry tree(c.base);
      row.push_back(bench::pct(
          1.0 - core::evaluate_routability(tree, c.digits, q).routability));
    }
    row.push_back(strfmt("%d", configs.front().digits));
    row.push_back(strfmt(
        "%d", configs.back().digits * (configs.back().base - 1)));
    table.add_row(std::move(row));
  }
  table.add_note(
      "larger bases shorten the chain of single-point-of-failure "
      "corrections: at small q, base 16 fails ~2.5x fewer paths than "
      "base 2 at the same N, paid for with ~4x the routing-table state -- "
      "but no base makes the tree scalable (Q(m) = q is base-independent)");
  dht::bench::emit(table, flags);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = dht::bench::parse_flags(argc, argv);
  emit_for(4096, {{2, 12}, {4, 6}, {8, 4}, {16, 3}}, flags);
  emit_for(65536, {{2, 16}, {4, 8}, {16, 4}}, flags);
  return 0;
}
