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
//  * sparse::serial_sparse_ids / chord_reference / kademlia_reference --
//    the sparse id space drawn in whole rounds on one rng, the sparse Chord
//    route rows from one successor search per finger key, and the
//    Kademlia contacts from one range search per bucket, node after node
//    on one rng: what the chunked sparse builders must reproduce.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "markov/chain.hpp"
#include "math/rng.hpp"
#include "math/stats.hpp"
#include "sim/class_rows.hpp"
#include "sim/failure.hpp"
#include "sim/overlay.hpp"
#include "sim/router.hpp"
#include "sparse/sparse_chord.hpp"
#include "sparse/sparse_kademlia.hpp"
#include "sparse/sparse_space.hpp"

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

namespace dht::sparse {

/// SparseIdSpace's identifiers drawn serially: each round tops the array
/// up to `nodes` uniform draws, then sorts and deduplicates all of it.
inline std::vector<sim::NodeId> serial_sparse_ids(int bits,
                                                  std::uint64_t nodes,
                                                  math::Rng& rng) {
  std::vector<sim::NodeId> ids;
  while (ids.size() < nodes) {
    while (ids.size() < nodes) {
      ids.push_back(rng.uniform_below(std::uint64_t{1} << bits));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  return ids;
}

/// Nodes whose identifiers lie in [lo, hi] (inclusive, lo <= hi), as the
/// index range [first, last).
inline std::pair<NodeIndex, NodeIndex> index_range(const SparseIdSpace& space,
                                                   sim::NodeId lo,
                                                   sim::NodeId hi) {
  const auto& ids = space.ids();
  const auto first = std::lower_bound(ids.begin(), ids.end(), lo);
  const auto last = std::upper_bound(first, ids.end(), hi);
  return {static_cast<NodeIndex>(first - ids.begin()),
          static_cast<NodeIndex>(last - ids.begin())};
}

/// SparseChordOverlay's route rows, laid out as the overlay stores them.
struct ChordReference {
  std::uint64_t stride = 0;
  std::vector<std::uint8_t> lens;
  std::vector<std::uint64_t> packed;    // bits <= 32
  std::vector<std::uint64_t> progress;  // bits > 32
  std::vector<NodeIndex> targets;       // bits > 32
  std::uint64_t wrapped = 0;  // finger keys past the largest id
};

inline ChordReference chord_reference(const SparseIdSpace& space) {
  const int d = space.bits();
  const std::uint64_t mask = space.key_space_size() - 1;
  const sim::NodeId largest = space.ids().back();
  ChordReference ref;
  // Distinct non-self fingers per node, decreasing progress.
  std::vector<std::vector<std::pair<std::uint64_t, NodeIndex>>> rows;
  std::uint64_t widest = 1;
  for (NodeIndex v = 0; v < space.node_count(); ++v) {
    const sim::NodeId base = space.id_of(v);
    auto& row = rows.emplace_back();
    for (int i = 1; i <= d; ++i) {
      const sim::NodeId key = (base + (std::uint64_t{1} << (d - i))) & mask;
      ref.wrapped += key > largest ? 1 : 0;
      const NodeIndex f = space.successor_of_key(key);
      if (f != v) {
        row.emplace_back((space.id_of(f) - base) & mask, f);
      }
    }
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    row.erase(std::unique(row.begin(), row.end()), row.end());
    widest = std::max<std::uint64_t>(widest, row.size());
  }
  ref.stride = (widest + 7) & ~std::uint64_t{7};
  for (const auto& row : rows) {
    ref.lens.push_back(static_cast<std::uint8_t>(row.size()));
    for (std::uint64_t e = 0; e < ref.stride; ++e) {
      const std::uint64_t progress = e < row.size() ? row[e].first : 0;
      const NodeIndex target = e < row.size() ? row[e].second : kNoNode;
      if (d <= 32) {
        ref.packed.push_back((progress << 32) | target);
      } else {
        ref.progress.push_back(progress);
        ref.targets.push_back(target);
      }
    }
  }
  return ref;
}

struct KademliaReference {
  std::vector<NodeIndex> contacts;
  std::uint64_t empty_buckets = 0;
};

/// SparseKademliaOverlay's contacts, node after node on `rng`.
inline KademliaReference kademlia_reference(const SparseIdSpace& space,
                                            math::Rng& rng, int k) {
  const int d = space.bits();
  const std::uint64_t n = space.node_count();
  const auto row_width = static_cast<std::uint64_t>(d) * k;
  KademliaReference ref;
  ref.contacts.assign(n * row_width, kNoNode);
  auto& contacts = ref.contacts;
  for (NodeIndex v = 0; v < n; ++v) {
    const sim::NodeId base = space.id_of(v);
    for (int i = 1; i <= d; ++i) {
      const int suffix_bits = d - i;
      const sim::NodeId lo = (sim::flip_level(base, i, d) >> suffix_bits)
                             << suffix_bits;
      const sim::NodeId hi = lo + ((std::uint64_t{1} << suffix_bits) - 1);
      const auto [first, last] = index_range(space, lo, hi);
      if (first == last) {
        ++ref.empty_buckets;
        continue;
      }
      const std::uint64_t bucket_base =
          v * row_width + static_cast<std::uint64_t>(i - 1) * k;
      const std::uint64_t size = last - first;
      contacts[bucket_base] =
          static_cast<NodeIndex>(first + rng.uniform_below(size));
      const int cells = static_cast<int>(
          size < static_cast<std::uint64_t>(k) ? size : k);
      for (int cell = 1; cell < cells; ++cell) {
        const auto taken = [&](NodeIndex candidate) {
          for (int prev = 0; prev < cell; ++prev) {
            if (contacts[bucket_base + prev] == candidate) {
              return true;
            }
          }
          return false;
        };
        auto pick = static_cast<NodeIndex>(first + rng.uniform_below(size));
        for (int attempt = 0; attempt < 16 && taken(pick); ++attempt) {
          pick = static_cast<NodeIndex>(first + rng.uniform_below(size));
        }
        while (taken(pick)) {
          pick = pick + 1 == last ? first : static_cast<NodeIndex>(pick + 1);
        }
        contacts[bucket_base + cell] = pick;
      }
    }
  }
  return ref;
}

}  // namespace dht::sparse
