#include "sim/class_rows.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/hugepage.hpp"
#include "sim/shard_pool.hpp"

namespace dht::sim {

ClassRows::ClassRows(EntryClass cls, int d, std::uint64_t nodes)
    : cls_(cls),
      d_(d),
      row_bytes_((static_cast<std::uint64_t>(d) * (d - 1) / 2 + 7) / 8) {
  DHT_CHECK(d >= 1 && d <= kMaxLevels, "class rows need 1 <= d <= 26");
  const std::uint64_t total = nodes * row_bytes_ + kTailBytes;
  common::reserve_hugepages(bytes_, total);
  bytes_.resize(total);
  constexpr std::uint64_t kBlock = std::uint64_t{1} << 20;
  const auto zero = [&](std::uint64_t b) {
    std::memset(bytes_.data() + b * kBlock, 0,
                std::min(kBlock, total - b * kBlock));
  };
  run_sharded((total + kBlock - 1) / kBlock,
              PoolOptions{.threads = resolve_threads(0), .chunk = 1}, zero);
}

void ClassRows::set_member(NodeId node, int level, std::uint64_t member) {
  const int width = d_ - level;
  DHT_CHECK(member >> width == 0, "member index outside its class");
  const auto bit = static_cast<std::uint64_t>(width * (width - 1) / 2);
  unsigned char* at = bytes_.data() + node * row_bytes_ + (bit >> 3);
  const std::uint64_t field = ((std::uint64_t{1} << width) - 1) << (bit & 7);
  std::uint64_t word;
  std::memcpy(&word, at, sizeof word);
  word = (word & ~field) | (member << (bit & 7));
  std::memcpy(at, &word, sizeof word);
}

void ClassRows::set_row(NodeId node, const std::uint64_t* members) {
  unsigned char* out = bytes_.data() + node * row_bytes_;
  std::uint64_t outside = members[d_ - 1];  // level d's class has 1 member
  std::uint64_t pending = 0;  // the low `held` bits are not yet written
  int held = 0;
  for (int width = 1; width < d_; ++width) {
    const std::uint64_t member = members[d_ - width - 1];
    outside |= member >> width;
    pending |= member << held;
    held += width;
    if (held >= 32) {
      std::memcpy(out, &pending, 4);
      out += 4;
      pending >>= 32;
      held -= 32;
    }
  }
  std::memcpy(out, &pending, static_cast<std::size_t>(held + 7) / 8);
  DHT_CHECK(outside == 0, "member index outside its class");
}

}  // namespace dht::sim
