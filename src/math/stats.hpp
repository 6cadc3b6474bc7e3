// Small statistics toolkit for Monte-Carlo estimates.
//
// The simulator reports routability as a success proportion over sampled
// pairs; tests compare those proportions against analytical predictions, so
// they need honest confidence intervals (Wilson score -- well-behaved at
// proportions near 0 and 1, where the figures in the paper live).
#pragma once

#include <cstdint>

namespace dht::math {

/// A [lo, hi] interval on a proportion.
struct Interval {
  double lo = 0.0;
  double hi = 1.0;

  bool contains(double x) const noexcept { return x >= lo && x <= hi; }
  double width() const noexcept { return hi - lo; }
};

/// Success counts for a Bernoulli experiment.
struct Proportion {
  std::uint64_t successes = 0;
  std::uint64_t trials = 0;

  void record(bool success) noexcept {
    successes += success ? 1 : 0;
    ++trials;
  }

  /// Pools another experiment's counts into this one.  Exact (integer
  /// counters), so merging shards in any order equals one combined pass.
  void merge(const Proportion& other) noexcept {
    successes += other.successes;
    trials += other.trials;
  }

  /// Point estimate successes/trials (0 when no trials).
  double point() const noexcept;

  /// Wilson score interval at z standard normal quantiles (z = 1.96 for a
  /// 95% interval).  Precondition: trials > 0, z > 0.
  Interval wilson(double z) const;
};

}  // namespace dht::math
