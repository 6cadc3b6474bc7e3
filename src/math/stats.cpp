#include "math/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dht::math {

double Proportion::point() const noexcept {
  if (trials == 0) {
    return 0.0;
  }
  return static_cast<double>(successes) / static_cast<double>(trials);
}

Interval Proportion::wilson(double z) const {
  DHT_CHECK(trials > 0, "Wilson interval requires at least one trial");
  DHT_CHECK(z > 0.0, "Wilson interval requires z > 0");
  const double n = static_cast<double>(trials);
  const double p = point();
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double spread =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  Interval out;
  out.lo = std::max(0.0, center - spread);
  out.hi = std::min(1.0, center + spread);
  return out;
}

}  // namespace dht::math
