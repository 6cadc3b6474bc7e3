// Ring (Chord) overlay -- paper Section 3.4.
//
// Each node keeps d fingers.  Two construction variants are provided:
//
//  * kDeterministic (default): finger i at clockwise offset exactly
//    2^{d-i} -- classic Chord, the system simulated by Gummadi et al. [2]
//    whose curves the paper's Fig. 6(b) compares against.  With these
//    fingers every finger whose dyadic range lies at or below the current
//    distance is usable, which is precisely the choice structure of the
//    paper's ring Markov chain (m usable fingers in phase m); the
//    analytical p(h, q) is then a true lower bound on routability.
//
//  * kRandomized: finger i uniform in [2^{d-i}, 2^{d-i+1}) -- the
//    randomized Chord variant the paper's Section 3.4 describes for
//    neighbor selection.  Here the largest in-phase finger can overshoot
//    the target, leaving only m-1 usable fingers on some hops, so the
//    measured failed-path fraction can exceed the chain's "upper bound"
//    (see the ablation_ring_bound_gap benchmark).
//
// Forwarding rule (both variants): greedy clockwise -- among alive fingers
// that do not overshoot the target, take the one covering the most
// distance; drop when none exists.
//
// The deterministic variant stores nothing: its fingers are the closed
// form, computed per call by finger(), links_into() and the flat kernel.
// The randomized variant draws its fingers once, at construction, and
// keeps finger i as its d-i bit offset into the dyadic interval, in packed
// class rows (sim/class_rows.hpp) that the routing hot path and links_into
// read straight out of, built in 2^14-node chunks, identical to the
// serial draw order at any core count.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/class_rows.hpp"
#include "sim/overlay.hpp"

namespace dht::sim {

enum class ChordFingers {
  kDeterministic,
  kRandomized,
};

class ChordOverlay final : public Overlay {
 public:
  /// Builds the finger tables.  `rng` is consumed only by the randomized
  /// variant.  `successor_links` adds a successor list of the s clockwise
  /// neighbors (node+1 .. node+s) as additional forwarding candidates --
  /// the sequential-neighbor knob of the paper's Sections 1-2 (note that
  /// successor 1 coincides with the deterministic finger d).
  ChordOverlay(const IdSpace& space, math::Rng& rng,
               ChordFingers fingers = ChordFingers::kDeterministic,
               int successor_links = 0);

  std::string_view name() const noexcept override { return "ring"; }
  const IdSpace& space() const noexcept override { return space_; }
  ChordFingers finger_variant() const noexcept { return variant_; }
  int successor_links() const noexcept { return successor_links_; }

  std::optional<NodeId> next_hop(NodeId current, NodeId target,
                                 const FailureScenario& failures,
                                 math::Rng& rng) const override;

  std::vector<NodeId> links(NodeId node) const override;
  void links_into(NodeId node, std::vector<NodeId>& out) const override;

  /// The i-th finger of `node` (1-based; finger i covers clockwise distance
  /// in [2^{d-i}, 2^{d-i+1}), exactly 2^{d-i} for the deterministic
  /// variant).
  NodeId finger(NodeId node, int index) const;

  /// Packed dyadic-class rows of the randomized variant; always empty for
  /// the deterministic variant.
  const ClassRows& finger_table() const noexcept { return fingers_; }

  std::uint64_t table_bytes() const noexcept override {
    return fingers_.bytes();
  }

 private:
  IdSpace space_;
  ChordFingers variant_;
  int successor_links_;
  // Randomized fingers as dyadic-interval offsets; see finger_table().
  ClassRows fingers_;
};

}  // namespace dht::sim
