// Ablation: the paper's closed-form approximations vs the exact series.
//
// Eq. 6 (XOR) is approximated in the paper via 1 - x ~= e^{-x}; Eq. 7
// (Symphony) truncates the suboptimal-hop count at ceil(d/(1-q)).  This
// harness quantifies (a) the quality of the Eq. 6 approximation across q,
// and (b) the sensitivity of Eq. 7 to the hop-cap choice -- the two places
// where the paper trades exactness for tractability.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/strfmt.hpp"
#include "core/report.hpp"
#include "core/symphony_geometry.hpp"
#include "core/xor_geometry.hpp"
#include "math/stable.hpp"

int main(int argc, char** argv) {
  using namespace dht;
  const auto flags = bench::parse_flags(argc, argv);
  const core::XorGeometry xr;

  core::Table eq6("Eq. 6 ablation -- exact XOR Q(m) vs the paper's "
                  "e^{-x} approximation");
  eq6.set_header({"q", "m", "exact", "approx", "rel err %"});
  for (double q : {0.02, 0.05, 0.1, 0.2, 0.4}) {
    for (int m : {2, 4, 8, 16}) {
      const double exact = xr.phase_failure(m, q, 32);
      const double approx = core::XorGeometry::phase_failure_approximation(m, q);
      const double rel =
          exact > 0.0 ? 100.0 * std::abs(approx - exact) / exact : 0.0;
      eq6.add_row({strfmt("%.2f", q), strfmt("%d", m),
                   strfmt("%.3e", exact), strfmt("%.3e", approx),
                   strfmt("%.1f", rel)});
    }
  }
  eq6.add_note(
      "the approximation is excellent for small q (the regime the paper "
      "uses it in) and deteriorates -- eventually clamping -- as q grows");
  bench::emit(eq6, flags);
  std::cout << '\n';

  core::Table eq7("Eq. 7 ablation -- Symphony Q vs the suboptimal-hop cap "
                  "(d = 16, kn = ks = 1)");
  eq7.set_header({"q", "cap d/(1-q) (paper)", "cap d", "cap 4d",
                  "cap infinite"});
  for (double q : {0.1, 0.2, 0.3, 0.5, 0.7}) {
    const int d = 16;
    const double y = math::pow_q(q, 2.0);
    const double x = 1.0 / d;
    const double z = 1.0 - x - y;
    const auto q_with_cap = [&](double cap_terms) {
      return y * math::geometric_sum(z, cap_terms);
    };
    const double paper_cap = std::ceil(d / (1.0 - q)) + 1.0;
    eq7.add_row({strfmt("%.1f", q), strfmt("%.4f", q_with_cap(paper_cap)),
                 strfmt("%.4f", q_with_cap(d + 1.0)),
                 strfmt("%.4f", q_with_cap(4.0 * d + 1.0)),
                 strfmt("%.4f", y / (1.0 - z))});
  }
  eq7.add_note(
      "the cap matters: the infinite-cap limit y/(x+y) is the failure "
      "probability of the advance-vs-death race; the paper's d/(1-q) cap "
      "sits between it and the bare d cap");
  bench::emit(eq7, flags);
  return 0;
}
