#include "sim/failure.hpp"

#include "common/check.hpp"

namespace dht::sim {

FailureScenario::FailureScenario(std::uint64_t size)
    : size_(size), alive_(size, 1), alive_count_(size) {
  rebuild_alive_index();
}

FailureScenario::FailureScenario(const IdSpace& space, double q,
                                 math::Rng& rng)
    : size_(space.size()), alive_(space.size(), 1),
      alive_count_(space.size()) {
  DHT_CHECK(q >= 0.0 && q <= 1.0, "failure probability q must be in [0, 1]");
  if (q != 0.0) {
    alive_count_ = 0;
    for (std::uint64_t id = 0; id < size_; ++id) {
      const bool up = !rng.bernoulli(q);
      alive_[id] = up ? 1 : 0;
      alive_count_ += up ? 1 : 0;
    }
  }
  rebuild_alive_index();
}

FailureScenario FailureScenario::all_alive(const IdSpace& space) {
  return FailureScenario(space.size());
}

void FailureScenario::rebuild_alive_index() {
  alive_ids_.clear();
  alive_ids_.reserve(alive_count_);
  alive_pos_.assign(size_, kDeadPos);
  for (std::uint64_t id = 0; id < size_; ++id) {
    if (alive_[id] != 0) {
      alive_pos_[id] = static_cast<std::uint32_t>(alive_ids_.size());
      alive_ids_.push_back(static_cast<std::uint32_t>(id));
    }
  }
}

void FailureScenario::kill(NodeId id) {
  DHT_CHECK(id < size_, "node id out of range");
  if (alive_[id] != 0) {
    alive_[id] = 0;
    --alive_count_;
    // Swap-remove from the alive index, keeping the position map exact.
    const std::uint32_t pos = alive_pos_[id];
    const std::uint32_t last = alive_ids_.back();
    alive_ids_[pos] = last;
    alive_pos_[last] = pos;
    alive_ids_.pop_back();
    alive_pos_[id] = kDeadPos;
  }
}

void FailureScenario::revive(NodeId id) {
  DHT_CHECK(id < size_, "node id out of range");
  if (alive_[id] == 0) {
    alive_[id] = 1;
    ++alive_count_;
    alive_pos_[id] = static_cast<std::uint32_t>(alive_ids_.size());
    alive_ids_.push_back(static_cast<std::uint32_t>(id));
  }
}

}  // namespace dht::sim
