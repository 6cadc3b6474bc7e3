#include "math/binomial.hpp"

#include <cmath>

#include "common/check.hpp"

namespace dht::math {

double log_binomial(int n, int k) {
  DHT_CHECK(n >= 0, "binomial requires n >= 0");
  if (k < 0 || k > n) {
    return -std::numeric_limits<double>::infinity();
  }
  if (k == 0 || k == n) {
    return 0.0;
  }
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
         std::lgamma(n - k + 1.0);
}

LogReal binomial(int n, int k) {
  return LogReal::from_log(log_binomial(n, k));
}

}  // namespace dht::math
