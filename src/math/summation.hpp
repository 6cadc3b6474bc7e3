// Compensated summation.
//
// Routability sums accumulate up to d binomially weighted terms spanning many
// orders of magnitude; Monte-Carlo statistics accumulate millions of samples.
// NeumaierSum (improved Kahan-Babuska) keeps the error independent of length.
#pragma once

namespace dht::math {

/// Running compensated sum (Neumaier's variant of Kahan summation).
/// Unlike plain Kahan it remains correct when an addend is larger in
/// magnitude than the running total.
class NeumaierSum {
 public:
  void add(double value) noexcept;
  /// The compensated total.
  double total() const noexcept { return sum_ + compensation_; }
  void reset() noexcept {
    sum_ = 0.0;
    compensation_ = 0.0;
  }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

}  // namespace dht::math
