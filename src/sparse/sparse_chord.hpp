// Chord over a non-fully-populated identifier space.
//
// Node v keeps d fingers: finger i points to successor(id(v) + 2^{d-i}),
// the standard Chord rule.  With N << 2^d nodes only ~log2 N of the fingers
// are distinct -- which is exactly why the dense RCM model evaluated at
// d' = log2 N predicts the sparse system's routability (see
// density_analysis.hpp and the ext_sparse_population benchmark).
//
// The overlay stores no finger table: finger() and the virtual next_hop
// oracle resolve each finger by its successor search, and the flattened
// kernel (sparse/flat_sparse.hpp) reads only the route rows below, which
// the constructor builds in two sweeps of 2^14-node chunks on every core.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hugepage.hpp"
#include "sparse/sparse_overlay.hpp"

namespace dht::sparse {

class SparseChordOverlay final : public SparseOverlay {
 public:
  explicit SparseChordOverlay(const SparseIdSpace& space);

  std::string_view name() const noexcept override { return "sparse-ring"; }
  const SparseIdSpace& space() const noexcept override { return *space_; }

  /// The i-th finger (1-based): successor(id + 2^{bits-i}), one search.
  NodeIndex finger(NodeIndex node, int index) const;

  /// Kernel route layout: node v's *distinct* fingers (duplicates collapse
  /// onto the same few successors in sparse spaces; self-links dropped) in
  /// row v of fixed-stride row-major arrays, sorted by decreasing
  /// clockwise progress from v with the progress values precomputed.  Rows
  /// are padded to route_stride() entries with (progress 0, kNoNode) --
  /// real entries always have progress > 0, so the pad is inert: it never
  /// counts as admissible and terminates scans.  The fixed stride is what
  /// lets the kernel compute a row's address from the node index alone (no
  /// offsets load on the critical path) and prefetch the next hop's row a
  /// whole batch turn ahead.
  ///
  /// Two storage shapes, selected by the key-space width:
  ///  - bits <= 32 (route_packed() non-empty): each entry is one u64,
  ///    (progress << 32) | target.  Admissibility is a single unsigned
  ///    compare against (distance << 32) | 0xFFFFFFFF, and the count and
  ///    take phases of a hop touch the SAME cache lines -- half the lines
  ///    (and half the table bytes) of the two-array shape.
  ///  - bits > 32 (route_packed() empty): parallel u64 progress and u32
  ///    target arrays, as progress values no longer fit 32 bits.
  int route_stride() const noexcept { return route_stride_; }
  const common::NoInitVector<std::uint64_t>& route_packed() const noexcept {
    return route_packed_;
  }
  const common::NoInitVector<std::uint64_t>& route_progress() const noexcept {
    return route_progress_;
  }
  const common::NoInitVector<NodeIndex>& route_targets() const noexcept {
    return route_targets_;
  }
  /// Real (unpadded) entries in each row; N bytes, so the kernels' length
  /// lookups stay cache-resident.
  const std::vector<std::uint8_t>& route_lens() const noexcept {
    return route_lens_;
  }

  std::optional<NodeIndex> next_hop(
      NodeIndex current, NodeIndex target,
      const SparseFailure& failures) const override;

 private:
  const SparseIdSpace* space_;
  // Fixed-stride padded rows of (progress, target), progress descending:
  // packed single-u64 entries when bits <= 32, parallel arrays otherwise.
  // The second sweep writes every entry, pads included.
  int route_stride_ = 0;
  common::NoInitVector<std::uint64_t> route_packed_;
  common::NoInitVector<std::uint64_t> route_progress_;
  common::NoInitVector<NodeIndex> route_targets_;
  std::vector<std::uint8_t> route_lens_;
};

}  // namespace dht::sparse
