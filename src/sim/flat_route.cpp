#include "sim/flat_route.hpp"

#include "common/check.hpp"
#include "sim/chord_overlay.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/overlay.hpp"
#include "sim/symphony_overlay.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"

namespace dht::sim::flat {

FlatCtx make_ctx(const Overlay& overlay, const FailureScenario& failures,
                 std::uint64_t max_hops) {
  FlatCtx c;
  c.d = overlay.space().bits();
  c.mask = overlay.space().size() - 1;
  c.alive_bits = failures.alive_bits();
  c.max_hops = max_hops == 0 ? overlay.space().size() : max_hops;
  if (const auto* tree = dynamic_cast<const TreeOverlay*>(&overlay)) {
    c.kind = KernelKind::kTree;
    c.rows = tree->table()->rows().data();
    c.row_bytes = tree->table()->rows().row_bytes();
  } else if (const auto* xr = dynamic_cast<const XorOverlay*>(&overlay)) {
    c.kind = KernelKind::kXor;
    c.rows = xr->table()->rows().data();
    c.row_bytes = xr->table()->rows().row_bytes();
  } else if (dynamic_cast<const HypercubeOverlay*>(&overlay) != nullptr) {
    c.kind = KernelKind::kHypercube;
  } else if (const auto* chord = dynamic_cast<const ChordOverlay*>(&overlay)) {
    c.successor_links = chord->successor_links();
    if (chord->finger_variant() == ChordFingers::kDeterministic) {
      c.kind = KernelKind::kChordDeterministic;
    } else {
      c.kind = KernelKind::kChordRandomized;
      c.rows = chord->finger_table().data();
      c.row_bytes = chord->finger_table().row_bytes();
    }
  } else {
    const auto* sym = dynamic_cast<const SymphonyOverlay*>(&overlay);
    DHT_CHECK(sym != nullptr, "no flat kernel for this overlay type");
    c.kind = KernelKind::kSymphony;
    c.kn = sym->near_neighbors();
    c.ks = sym->shortcuts();
    c.rows = reinterpret_cast<const unsigned char*>(
        sym->shortcut_table().data());
    c.row_bytes = static_cast<std::uint64_t>(c.ks) * sizeof(std::uint32_t);
  }
  return c;
}

}  // namespace dht::sim::flat
