// Non-fully-populated identifier spaces -- the paper's Section 6 future
// work ("analytical results for real world DHTs with non-fully-populated
// identifier spaces can be similarly derived").
//
// N distinct node identifiers are drawn uniformly from a d-bit key space
// with N <= 2^d (real DHTs: N ~ 10^6 nodes in a 2^128 space).  Nodes are
// indexed 0..N-1 in ring order of their identifiers; routing operates on
// identifiers, liveness and pair sampling on indices.  Key spaces up to
// 2^63 and populations up to 2^26 nodes are supported: all per-identifier
// queries are binary searches over the sorted id array, so only the
// population is materialized, never the key space.
#pragma once

#include <cstdint>
#include <vector>

#include "math/rng.hpp"
#include "sim/node_id.hpp"

namespace dht::sparse {

/// Index of a node in ring order (0 .. node_count()-1).
using NodeIndex = std::uint32_t;

/// Sentinel for "no node" in flattened routing-table rows (e.g. empty
/// Kademlia buckets); never a valid NodeIndex since populations are < 2^32.
inline constexpr NodeIndex kNoNode = ~NodeIndex{0};

class SparseIdSpace {
 public:
  /// Samples `node_count` distinct identifiers uniformly from [0, 2^bits).
  /// The draws run in 2^14-id chunks on every core; the ids and `rng`'s
  /// end state are those of drawing one id after another.
  /// Preconditions: 1 <= bits <= 63, 2 <= node_count <= 2^bits, and
  /// node_count <= 2^26 (the simulator materializes per-node state).
  SparseIdSpace(int bits, std::uint64_t node_count, math::Rng& rng);

  int bits() const noexcept { return bits_; }
  std::uint64_t key_space_size() const noexcept {
    return std::uint64_t{1} << bits_;
  }
  std::uint64_t node_count() const noexcept { return ids_.size(); }
  double density() const noexcept {
    return static_cast<double>(node_count()) /
           static_cast<double>(key_space_size());
  }

  /// The identifier of the index-th node in ring order.
  sim::NodeId id_of(NodeIndex index) const;

  /// The sorted identifier array (index -> identifier); the flattened
  /// routing kernels read this directly instead of per-hop id_of calls.
  const std::vector<sim::NodeId>& ids() const noexcept { return ids_; }

  /// The node owning `key`: the first node at or clockwise-after the key
  /// (Chord successor convention).
  NodeIndex successor_of_key(sim::NodeId key) const;

  /// The node `steps` positions clockwise of `index` in ring order.
  NodeIndex ring_step(NodeIndex index, std::uint64_t steps) const;

 private:
  int bits_;
  std::vector<sim::NodeId> ids_;  // sorted ascending
};

}  // namespace dht::sparse
