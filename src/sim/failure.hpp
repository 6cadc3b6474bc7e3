// The static-resilience failure model (paper Section 1).
//
// Every node fails independently with probability q; routing tables are not
// repaired ("static": a node's table stays as built, minus the dead
// entries).  A FailureScenario is an immutable liveness mask over an
// IdSpace, built deterministically from a seed.
//
// The mask is packed one bit per node in 64-bit words (alive_bit below;
// the padding bits past size() are zero).  The routing kernels probe it at
// a random index every hop; at 2^20 nodes it is 128 KiB, where a byte per
// node took 1 MiB.  It is built in 2^14-node chunks, identical to the
// serial draw order at any core count.
//
// Alongside the mask the scenario maintains a dense index of alive node
// ids, so sample_alive is a single unbiased draw (O(1)) instead of
// rejection sampling -- the Monte-Carlo engine samples two endpoints per
// route, and at high failure probabilities rejection would dominate the
// routing work itself.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "math/rng.hpp"
#include "sim/id_space.hpp"

namespace dht::sim {

/// A packed liveness mask holds node `id` in bit id & 63 of word id >> 6,
/// 1 = alive.  FailureScenario, the dense churn world and the flat routing
/// kernels read and write their masks through these two.
inline bool alive_bit(const std::uint64_t* words, NodeId id) {
  return ((words[id >> 6] >> (id & 63)) & 1) != 0;
}
inline void set_alive_bit(std::uint64_t* words, NodeId id, bool up) {
  const std::uint64_t bit = std::uint64_t{1} << (id & 63);
  words[id >> 6] = up ? (words[id >> 6] | bit) : (words[id >> 6] & ~bit);
}

/// Immutable i.i.d. Bernoulli(1-q) liveness mask over an identifier space.
class FailureScenario {
 public:
  /// Fails each of nodes 0 .. nodes-1 independently with probability q:
  /// node v is down iff the v-th rng.bernoulli(q) is true, so 0 < q < 1
  /// takes one draw per node and q = 0 or 1 leaves rng untouched.
  /// Precondition: q in [0, 1].
  FailureScenario(std::uint64_t nodes, double q, math::Rng& rng);
  FailureScenario(const IdSpace& space, double q, math::Rng& rng)
      : FailureScenario(space.size(), q, rng) {}

  /// A scenario where every node is alive (q = 0) -- the baseline topology.
  static FailureScenario all_alive(const IdSpace& space);

  bool alive(NodeId id) const { return alive_bit(alive_bits_.data(), id); }
  std::uint64_t alive_count() const noexcept { return alive_count_; }
  double alive_fraction() const noexcept {
    return static_cast<double>(alive_count_) / static_cast<double>(size_);
  }
  std::uint64_t size() const noexcept { return size_; }

  /// Uniformly samples an alive node with a single rng draw (O(1) via the
  /// alive-index array).  Works with any generator exposing uniform_below
  /// (math::Rng, math::CounterRng).  Precondition: alive_count() > 0.
  template <typename Generator>
  NodeId sample_alive(Generator& rng) const {
    DHT_CHECK(alive_count_ > 0, "no alive node to sample");
    return alive_ids_[rng.uniform_below(alive_count_)];
  }

  /// The packed liveness mask, (size() + 63) / 64 words; hot-path routing
  /// kernels probe it directly (flat::alive_bit).
  const std::uint64_t* alive_bits() const noexcept {
    return alive_bits_.data();
  }

  /// The dense array of alive node ids backing sample_alive.  Freshly
  /// constructed scenarios list ids in increasing order; kill/revive
  /// maintain the array with swap-remove/append, so the order afterwards is
  /// deterministic but not sorted.
  const std::vector<std::uint32_t>& alive_ids() const noexcept {
    return alive_ids_;
  }

  /// Test hooks: force a node's state (updates the alive count and index).
  /// kill finds the id by a linear search of the alive index, then
  /// swap-removes it; revive appends.
  void kill(NodeId id);
  void revive(NodeId id);

 private:
  std::uint64_t size_;
  std::vector<std::uint64_t> alive_bits_;
  std::uint64_t alive_count_ = 0;
  std::vector<std::uint32_t> alive_ids_;  // dense alive ids (sample target)
};

}  // namespace dht::sim
