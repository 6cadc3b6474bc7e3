#include "sim/failure.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dht::sim {

FailureScenario::FailureScenario(const IdSpace& space, double q,
                                 math::Rng& rng)
    : size_(space.size()), alive_bits_((space.size() + 63) / 64, 0) {
  DHT_CHECK(q >= 0.0 && q <= 1.0, "failure probability q must be in [0, 1]");
  for (std::uint64_t id = 0; id < size_; ++id) {
    // q = 0 draws nothing: every node is up.
    const bool up = q == 0.0 || !rng.bernoulli(q);
    set_alive_bit(alive_bits_.data(), id, up);
    alive_count_ += up ? 1 : 0;
  }
  alive_ids_.reserve(alive_count_);
  for (std::uint64_t id = 0; id < size_; ++id) {
    if (alive(id)) {
      alive_ids_.push_back(static_cast<std::uint32_t>(id));
    }
  }
}

FailureScenario FailureScenario::all_alive(const IdSpace& space) {
  math::Rng unused(0);  // q = 0 draws nothing
  return FailureScenario(space, 0.0, unused);
}

void FailureScenario::kill(NodeId id) {
  DHT_CHECK(id < size_, "node id out of range");
  if (alive(id)) {
    set_alive_bit(alive_bits_.data(), id, false);
    --alive_count_;
    // Swap-remove from the alive index.
    *std::find(alive_ids_.begin(), alive_ids_.end(), id) = alive_ids_.back();
    alive_ids_.pop_back();
  }
}

void FailureScenario::revive(NodeId id) {
  DHT_CHECK(id < size_, "node id out of range");
  if (!alive(id)) {
    set_alive_bit(alive_bits_.data(), id, true);
    ++alive_count_;
    alive_ids_.push_back(static_cast<std::uint32_t>(id));
  }
}

}  // namespace dht::sim
