// Shared routing-table construction for the tree and XOR geometries.
//
// Both geometries use the same neighbor rule (paper Section 3.3: "matching
// the first i-1 bits of one's identifier, flipping the ith bit, and choose
// random bits for the rest"); they differ only in the forwarding rule.
// PrefixTable holds the level-i neighbor of every node, as its d-i random
// bits in packed class rows (sim/class_rows.hpp), so the tree-vs-XOR
// ablation can run both protocols on the *same* tables.  It is built in
// 2^14-node chunks, identical to the serial draw order at any core count.
#pragma once

#include <cstdint>

#include "math/rng.hpp"
#include "sim/class_rows.hpp"
#include "sim/id_space.hpp"
#include "sim/node_id.hpp"

namespace dht::sim {

class PrefixTable {
 public:
  /// Builds the full table: for every node v and level i in [1, d], a
  /// uniformly random node agreeing with v on the first i-1 bits and
  /// differing at bit i.  Deterministic given the rng state.
  PrefixTable(const IdSpace& space, math::Rng& rng);

  /// Adopts packed prefix-class rows (the repair model, repair.hpp).
  explicit PrefixTable(ClassRows rows);

  /// The level-i neighbor of `node`.  Preconditions: node in space,
  /// 1 <= level <= d.
  NodeId neighbor(NodeId node, int level) const;

  int levels() const noexcept { return rows_.levels(); }

  /// The packed rows: the routing kernels' and the repair model's view.
  const ClassRows& rows() const noexcept { return rows_; }

 private:
  ClassRows rows_;
};

}  // namespace dht::sim
