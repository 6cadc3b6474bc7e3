#include "sim/overlay.hpp"

#include "sim/chord_overlay.hpp"
#include "sim/hypercube_overlay.hpp"
#include "sim/symphony_overlay.hpp"
#include "sim/tree_overlay.hpp"
#include "sim/xor_overlay.hpp"

namespace dht::sim {

std::unique_ptr<Overlay> make_overlay(std::string_view name,
                                      const IdSpace& space, math::Rng& rng) {
  if (name == "tree") {
    return std::make_unique<TreeOverlay>(space, rng);
  }
  if (name == "hypercube") {
    return std::make_unique<HypercubeOverlay>(space);
  }
  if (name == "xor") {
    return std::make_unique<XorOverlay>(space, rng);
  }
  if (name == "ring") {
    return std::make_unique<ChordOverlay>(space, rng);
  }
  if (name == "symphony") {
    return std::make_unique<SymphonyOverlay>(space, 1, 1, rng);
  }
  return nullptr;
}

}  // namespace dht::sim
