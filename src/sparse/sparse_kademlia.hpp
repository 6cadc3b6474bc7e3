// Kademlia over a non-fully-populated identifier space.
//
// Bucket i of node v covers identifiers at XOR distance [2^{d-i}, 2^{d-i+1})
// from id(v) -- equivalently, ids sharing the first i-1 bits of id(v) and
// differing at bit i.  In a sparse space a bucket may be empty; otherwise
// the protocol keeps up to k distinct uniformly drawn contacts per bucket
// (the k-bucket model of Roos et al., "Comprehending Kademlia Routing";
// k = 1 is the historical single-contact row).  Forwarding is greedy in
// realized XOR distance: walk the differing levels highest order first,
// probe a bucket's cells head first, and take the first alive contact
// strictly closer to the target.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hugepage.hpp"
#include "sparse/sparse_overlay.hpp"

namespace dht::sparse {

class SparseKademliaOverlay final : public SparseOverlay {
 public:
  /// Single-contact buckets (k = 1), the historical layout and rng stream.
  SparseKademliaOverlay(const SparseIdSpace& space, math::Rng& rng);

  /// k contacts per bucket.  Cell 0 consumes exactly the single-contact
  /// draw; cells beyond hold further distinct members (kNoNode where the
  /// bucket population runs out).
  SparseKademliaOverlay(const SparseIdSpace& space, math::Rng& rng, int k);

  std::string_view name() const noexcept override { return "sparse-xor"; }
  const SparseIdSpace& space() const noexcept override { return *space_; }

  int bucket_k() const noexcept { return k_; }

  /// The contact in cell `cell` of bucket i of `node`, or nullopt when the
  /// cell is empty.
  std::optional<NodeIndex> contact(NodeIndex node, int bucket,
                                   int cell = 0) const;

  /// Row-major [node][(i-1)*k + cell] contact indices, kNoNode marking
  /// empty cells; the flattened kernel (sparse/flat_sparse.hpp) reads this
  /// directly.
  const common::NoInitVector<NodeIndex>& contact_table() const noexcept {
    return contacts_;
  }

  std::optional<NodeIndex> next_hop(
      NodeIndex current, NodeIndex target,
      const SparseFailure& failures) const override;

 private:
  const SparseIdSpace* space_;
  int k_ = 1;
  // Row-major [node][(i-1)*k + cell] contact indices (kNoNode for empty
  // cells); the builder writes every cell.
  common::NoInitVector<NodeIndex> contacts_;
};

}  // namespace dht::sparse
