#include "math/summation.hpp"

#include <cmath>

namespace dht::math {

void NeumaierSum::add(double value) noexcept {
  const double t = sum_ + value;
  if (std::abs(sum_) >= std::abs(value)) {
    compensation_ += (sum_ - t) + value;
  } else {
    compensation_ += (value - t) + sum_;
  }
  sum_ = t;
}

}  // namespace dht::math
