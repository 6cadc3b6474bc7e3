#include "core/routability.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "math/summation.hpp"

namespace dht::core {

RoutabilityPoint evaluate_routability(const Geometry& geometry, int d,
                                      double q) {
  DHT_CHECK(d >= 1, "identifier length d must be >= 1");
  DHT_CHECK(q >= 0.0 && q < 1.0, "routability requires q in [0, 1)");

  using math::LogReal;

  // E[S] = sum_h n(h) p(h, q): accumulate n(h) * p(h) in log space.  The
  // per-phase failure probabilities Q(m) do not depend on h, so the product
  // prefix is extended incrementally -- O(d) phase_failure calls total.
  math::LogSum expected_reachable;
  math::NeumaierSum log_p;  // log p(h, q), extended one factor per h
  bool route_dead = false;  // some Q(m) hit 1: p(h) = 0 from here on
  for (int h = 1; h <= d && !route_dead; ++h) {
    const double failure = geometry.phase_failure(h, q, d);
    if (failure >= 1.0) {
      route_dead = true;
      break;
    }
    log_p.add(std::log1p(-failure));
    const LogReal n_h = geometry.distance_count(h, d);
    expected_reachable.add(n_h * LogReal::from_log(log_p.total()));
  }

  RoutabilityPoint point;
  point.d = d;
  point.q = q;
  point.log_expected_reachable = expected_reachable.total().log();

  // Denominator of Eq. 3: (1-q) N - 1 (expected surviving peers of a
  // surviving root; N = space_size(d), 2^d in the paper's binary setting).
  // If it is not positive the system has no pairs.
  const LogReal space = geometry.space_size(d);
  const LogReal survivors = LogReal::from_value(1.0 - q) * space;
  if (survivors <= LogReal::one()) {
    point.routability = 0.0;
    point.failed_fraction = 1.0;
    point.conditional_success = 0.0;
    return point;
  }
  const LogReal denominator = survivors - LogReal::one();
  point.routability = std::clamp(
      (expected_reachable.total() / denominator).value(), 0.0, 1.0);
  point.failed_fraction = 1.0 - point.routability;

  // Simulator view: destination sampled among survivors, so its survival
  // factor (already inside p) conditions out: E[S] / ((1-q)(N - 1)).
  const LogReal peers = space - LogReal::one();
  const LogReal alive_peers = LogReal::from_value(1.0 - q) * peers;
  point.conditional_success = std::clamp(
      (expected_reachable.total() / alive_peers).value(), 0.0, 1.0);
  return point;
}

}  // namespace dht::core
