#include "math/rng.hpp"

#include <algorithm>
#include <bit>

namespace dht::math {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept : lineage_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

namespace {

// xoshiro256's characteristic polynomial P(x) over GF(2) without its x^256
// term, bit i of word i / 64 the coefficient of x^i: the minimal polynomial
// of bit 0 of s_[0] (Berlekamp-Massey), of degree 256, so M's too.
// Rng.DiscardMatchesStepping pins it.
constexpr std::uint64_t kCharPoly[4] = {
    0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL, 0x04b4edcf26259f85ULL,
    0x0003c03c3f3ecb19ULL};

// The low 32 bits of `half` moved to the even bit positions of a u64.
std::uint64_t spread32(std::uint64_t half) noexcept {
  half = (half | (half << 16)) & 0x0000ffff0000ffffULL;
  half = (half | (half << 8)) & 0x00ff00ff00ff00ffULL;
  half = (half | (half << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  half = (half | (half << 2)) & 0x3333333333333333ULL;
  return (half | (half << 1)) & 0x5555555555555555ULL;
}

}  // namespace

void Rng::discard(std::uint64_t n) noexcept {
  // r(x) = x^n mod P(x), left to right over the bits of n.  Squaring over
  // GF(2) spreads the coefficients to the even powers, and a 1 bit of n
  // multiplies by x (a shift into the odd ones, so no carry between
  // words).  Each set bit j >= 256 is then cleared by XORing
  // P(x) x^(j-256), whose other terms all land below bit j.
  std::uint64_t r[4] = {1, 0, 0, 0};
  for (int bit = 63 - std::countl_zero(n); bit >= 0; --bit) {
    const auto times_x = static_cast<int>((n >> bit) & 1);
    std::uint64_t t[8];
    for (int w = 0; w < 4; ++w) {
      t[2 * w] = spread32(r[w] & 0xffffffffULL) << times_x;
      t[2 * w + 1] = spread32(r[w] >> 32) << times_x;
    }
    for (int w = 7; w >= 4; --w) {
      while (t[w] != 0) {
        const int top = 63 - std::countl_zero(t[w]);
        t[w] ^= std::uint64_t{1} << top;
        const int shift = (w - 4) * 64 + top;
        for (int i = 0; i < 4; ++i) {
          t[(shift >> 6) + i] ^= kCharPoly[i] << (shift & 63);
          if ((shift & 63) != 0) {
            t[(shift >> 6) + i + 1] ^= kCharPoly[i] >> (64 - (shift & 63));
          }
        }
      }
    }
    std::copy(t, t + 4, r);
  }
  // M^n s is the XOR of M^i s over the set bits i of r.
  std::uint64_t acc[4] = {};
  for (int i = 0; i < 256; ++i) {
    if ((r[i >> 6] >> (i & 63)) & 1) {
      for (int w = 0; w < 4; ++w) {
        acc[w] ^= s_[w];
      }
    }
    (void)next_u64();
  }
  std::copy(acc, acc + 4, s_);
}

double Rng::uniform01() noexcept {
  // Top 53 bits scaled by 2^-53: uniform on [0, 1), every double reachable.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform_below(std::uint64_t bound) noexcept {
  // Threshold rejection: accept unless the draw falls into the biased
  // remainder zone [0, 2^64 mod bound).  The zone is shorter than `bound`,
  // so a draw r >= bound is always accepted and the threshold's divide is
  // paid only when r < bound.  A power-of-two bound has an empty zone and
  // reduces by mask.  Values and stream consumption are exactly those of
  // computing the threshold up front.
  if ((bound & (bound - 1)) == 0) {
    return next_u64() & (bound - 1);
  }
  std::uint64_t r = next_u64();
  if (r < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (r < threshold) {
      r = next_u64();
    }
  }
  return r % bound;
}

std::uint64_t Rng::uniform_range(std::uint64_t lo, std::uint64_t hi) noexcept {
  const std::uint64_t width = hi - lo + 1;
  if (width == 0) {  // full 64-bit range
    return next_u64();
  }
  return lo + uniform_below(width);
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return uniform01() < p;
}

std::uint64_t CounterRng::uniform_below(std::uint64_t bound) noexcept {
#if defined(__SIZEOF_INT128__)
  // Lemire (2019), "Fast Random Integer Generation in an Interval": map the
  // draw through a 64x64->128 multiply; the high word is the unbiased
  // result unless the low word falls in the 2^64 mod bound remainder zone,
  // which is detected with at most one division (and only when
  // low < bound, i.e. with probability < bound / 2^64).
  unsigned __int128 m =
      static_cast<unsigned __int128>(next_u64()) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      m = static_cast<unsigned __int128>(next_u64()) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
#else
  // No 128-bit multiply: fall back to threshold rejection (same
  // distribution, different accepted-draw mapping; value streams are only
  // pinned on 128-bit-capable platforms).
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) {
      return r % bound;
    }
  }
#endif
}

Rng Rng::fork(std::uint64_t stream_id) const noexcept {
  // Derive a child seed by mixing the lineage with the stream id through two
  // SplitMix64 rounds; distinct (lineage, stream_id) pairs give distinct,
  // well-separated child states.
  std::uint64_t mix = lineage_ ^ (0x9e3779b97f4a7c15ULL + stream_id);
  (void)splitmix64(mix);
  const std::uint64_t child_seed = splitmix64(mix);
  return Rng(child_seed);
}

CounterRng Rng::counter_stream(std::uint64_t stream_id) const noexcept {
  // Same two-round SplitMix64 lineage mixing as fork(), domain-separated by
  // an arbitrary odd constant so counter_stream(i) never aliases fork(i).
  std::uint64_t mix =
      lineage_ ^ 0xc2b2ae3d27d4eb4fULL ^ (0x9e3779b97f4a7c15ULL + stream_id);
  (void)splitmix64(mix);
  return CounterRng(splitmix64(mix));
}

}  // namespace dht::math
