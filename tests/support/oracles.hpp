// Test oracles shared by several suites.  Each one computes a quantity the
// library also computes, by an independent method that no program needs:
//
//  * markov::absorption_probability_dense -- Gaussian elimination on the
//    transient sub-matrix (I - T) x = b; works for cyclic chains and
//    cross-checks the DAG solver (markov/absorption.hpp).
//  * markov::walk_to_absorption / estimate_absorption -- a Monte-Carlo
//    chain walker, a third estimate of p(h, q).
//  * sim::failure_free_hops -- hop counts of the virtual Router on the
//    all-alive overlay, against the latency the paper quotes per geometry,
//    accumulated in a math::RunningStat (Welford mean and variance).
//  * sim::serial_prefix_rows / serial_chord_rows / serial_symphony_shortcuts
//    / serial_alive_bits -- the static builders' draws made one node after
//    another on one rng, the order the chunked builders
//    (sim::run_draw_chunks) must reproduce byte for byte.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "markov/chain.hpp"
#include "math/rng.hpp"
#include "math/stats.hpp"
#include "sim/class_rows.hpp"
#include "sim/failure.hpp"
#include "sim/overlay.hpp"
#include "sim/router.hpp"

namespace dht::math {

/// Welford running mean/variance accumulator.
class RunningStat {
 public:
  void add(double x) noexcept {
    if (count_ == 0) {
      min_ = x;
      max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }
  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const noexcept {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace dht::math

namespace dht::markov {

/// Dense linear-algebra solver; O(n^3).  Throws if `target` is not absorbing
/// or if the transient system is singular (walk can avoid absorption).
inline double absorption_probability_dense(const Chain& chain, StateId start,
                                           StateId target) {
  DHT_CHECK(chain.is_absorbing(target),
            "absorption target must be an absorbing state");
  if (start == target) {
    return 1.0;
  }
  if (chain.is_absorbing(start)) {
    return 0.0;
  }

  // Index the transient (non-absorbing) states.
  const int n = chain.state_count();
  std::vector<int> transient_index(static_cast<size_t>(n), -1);
  std::vector<StateId> transient_states;
  for (StateId s = 0; s < n; ++s) {
    if (!chain.is_absorbing(s)) {
      transient_index[static_cast<size_t>(s)] =
          static_cast<int>(transient_states.size());
      transient_states.push_back(s);
    }
  }
  const auto t = transient_states.size();

  // Solve (I - T) x = b where T is the transient-to-transient transition
  // matrix and b(i) = P(one-step absorption at target from transient i).
  std::vector<std::vector<double>> a(t, std::vector<double>(t, 0.0));
  std::vector<double> b(t, 0.0);
  for (size_t i = 0; i < t; ++i) {
    a[i][i] = 1.0;
    for (const Transition& tr : chain.transitions_from(transient_states[i])) {
      const int j = transient_index[static_cast<size_t>(tr.to)];
      if (j >= 0) {
        a[i][static_cast<size_t>(j)] -= tr.probability;
      } else if (tr.to == target) {
        b[i] += tr.probability;
      }
    }
  }

  // Gaussian elimination with partial pivoting.
  for (size_t col = 0; col < t; ++col) {
    size_t pivot = col;
    for (size_t row = col + 1; row < t; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) {
        pivot = row;
      }
    }
    DHT_CHECK(std::abs(a[pivot][col]) > 1e-14,
              "singular transient system: some state never reaches "
              "absorption");
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    const double diag = a[col][col];
    for (size_t row = col + 1; row < t; ++row) {
      const double factor = a[row][col] / diag;
      if (factor == 0.0) {
        continue;
      }
      for (size_t k = col; k < t; ++k) {
        a[row][k] -= factor * a[col][k];
      }
      b[row] -= factor * b[col];
    }
  }
  std::vector<double> x(t, 0.0);
  for (size_t row = t; row-- > 0;) {
    double rhs = b[row];
    for (size_t k = row + 1; k < t; ++k) {
      rhs -= a[row][k] * x[k];
    }
    x[row] = rhs / a[row][row];
  }
  const int start_idx = transient_index[static_cast<size_t>(start)];
  return std::clamp(x[static_cast<size_t>(start_idx)], 0.0, 1.0);
}

/// Walks the chain from `start` until absorption; returns the absorbing
/// state.  Throws if a state's outgoing probabilities do not cover the
/// sampled uniform (validate() the chain first) or after 2^31 steps.
inline StateId walk_to_absorption(const Chain& chain, StateId start,
                                  math::Rng& rng) {
  StateId current = start;
  for (std::int64_t step = 0; step < (std::int64_t{1} << 31); ++step) {
    if (chain.is_absorbing(current)) {
      return current;
    }
    const double u = rng.uniform01();
    double cumulative = 0.0;
    const auto& out = chain.transitions_from(current);
    StateId next = out.back().to;  // guard against rounding at u ~= 1
    for (const Transition& t : out) {
      cumulative += t.probability;
      if (u < cumulative) {
        next = t.to;
        break;
      }
    }
    current = next;
  }
  DHT_CHECK(false, "walk did not absorb within 2^31 steps");
  return current;  // unreachable
}

/// Runs `trials` walks and returns the fraction absorbed at `target`.
inline math::Proportion estimate_absorption(const Chain& chain, StateId start,
                                            StateId target,
                                            std::uint64_t trials,
                                            math::Rng& rng) {
  DHT_CHECK(chain.is_absorbing(target),
            "estimate_absorption target must be absorbing");
  math::Proportion result;
  for (std::uint64_t i = 0; i < trials; ++i) {
    result.record(walk_to_absorption(chain, start, rng) == target);
  }
  return result;
}

}  // namespace dht::markov

namespace dht::sim {

/// Routes `samples` random (distinct) pairs on the all-alive scenario and
/// returns the hop-count statistics.  Every route must arrive; a drop or a
/// hop-limit hit throws (it would mean the overlay's basic protocol is
/// broken, since with q = 0 all five geometries route deterministically).
inline math::RunningStat failure_free_hops(const Overlay& overlay,
                                           std::uint64_t samples,
                                           math::Rng& rng) {
  DHT_CHECK(samples > 0, "failure_free_hops needs at least one sample");
  const FailureScenario alive = FailureScenario::all_alive(overlay.space());
  const Router router(overlay, alive);
  math::RunningStat hops;
  const std::uint64_t size = overlay.space().size();
  for (std::uint64_t i = 0; i < samples; ++i) {
    const NodeId source = rng.uniform_below(size);
    NodeId target = rng.uniform_below(size);
    while (target == source) {
      target = rng.uniform_below(size);
    }
    const RouteResult result = router.route(source, target, rng);
    DHT_CHECK(result.success(),
              "failure-free route did not arrive: overlay protocol bug");
    hops.add(static_cast<double>(result.hops));
  }
  return hops;
}

/// The tree/XOR prefix rows: levels 1..d-1 of node 0, then node 1, ...
inline ClassRows serial_prefix_rows(int d, math::Rng& rng) {
  ClassRows rows(EntryClass::kPrefix, d, std::uint64_t{1} << d);
  std::uint64_t members[ClassRows::kMaxLevels] = {};
  for (NodeId v = 0; v < std::uint64_t{1} << d; ++v) {
    for (int level = 1; level < d; ++level) {
      members[level - 1] = rng.uniform_below(std::uint64_t{1} << (d - level));
    }
    rows.set_row(v, members);
  }
  return rows;
}

/// Randomized Chord's finger offsets: fingers 1..d of each node in turn.
inline ClassRows serial_chord_rows(int d, math::Rng& rng) {
  ClassRows rows(EntryClass::kDyadic, d, std::uint64_t{1} << d);
  std::uint64_t offsets[ClassRows::kMaxLevels] = {};
  for (NodeId v = 0; v < std::uint64_t{1} << d; ++v) {
    for (int i = 1; i <= d; ++i) {
      offsets[i - 1] = rng.uniform_below(std::uint64_t{1} << (d - i));
    }
    rows.set_row(v, offsets);
  }
  return rows;
}

/// Symphony's absolute shortcut targets, row-major [node][j].
inline std::vector<std::uint32_t> serial_symphony_shortcuts(int d, int ks,
                                                            math::Rng& rng) {
  const std::uint64_t size = std::uint64_t{1} << d;
  const double log_range = std::log(static_cast<double>(size - 1));
  std::vector<std::uint32_t> out;
  for (NodeId v = 0; v < size; ++v) {
    for (int j = 0; j < ks; ++j) {
      const auto offset = std::clamp<std::uint64_t>(
          static_cast<std::uint64_t>(std::exp(rng.uniform01() * log_range)), 1,
          size - 1);
      out.push_back(static_cast<std::uint32_t>((v + offset) & (size - 1)));
    }
  }
  return out;
}

/// A packed liveness mask, node v down iff the v-th bernoulli(q) says so.
inline std::vector<std::uint64_t> serial_alive_bits(std::uint64_t nodes,
                                                    double q, math::Rng& rng) {
  std::vector<std::uint64_t> words((nodes + 63) / 64, 0);
  for (NodeId v = 0; v < nodes; ++v) {
    set_alive_bit(words.data(), v, !rng.bernoulli(q));
  }
  return words;
}

}  // namespace dht::sim
