#include "sim/failure.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "sim/shard_pool.hpp"

namespace dht::sim {

FailureScenario::FailureScenario(std::uint64_t nodes, double q,
                                 math::Rng& rng)
    : size_(nodes), alive_bits_((nodes + 63) / 64, 0) {
  DHT_CHECK(q >= 0.0 && q <= 1.0, "failure probability q must be in [0, 1]");
  // Chunks hold whole words, so each word is assembled in a register and
  // stored once, by the one worker that owns it.
  const auto fill = [&](NodeId begin, NodeId end, math::Rng& chunk_rng) {
    for (NodeId base = begin; base < end; base += 64) {
      std::uint64_t word = 0;
      for (NodeId id = base; id < std::min(end, base + 64); ++id) {
        word |= std::uint64_t{!chunk_rng.bernoulli(q)} << (id - base);
      }
      alive_bits_[base >> 6] = word;
    }
  };
  run_draw_chunks(nodes, q > 0.0 && q < 1.0 ? 1 : 0, rng, fill);
  for (const std::uint64_t word : alive_bits_) {
    alive_count_ += static_cast<std::uint64_t>(std::popcount(word));
  }
  alive_ids_.reserve(alive_count_);
  for (std::uint64_t w = 0; w < alive_bits_.size(); ++w) {
    for (std::uint64_t bits = alive_bits_[w]; bits != 0; bits &= bits - 1) {
      alive_ids_.push_back(
          static_cast<std::uint32_t>((w << 6) | std::countr_zero(bits)));
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
