// Deterministic pseudo-random number generation.
//
// Every random quantity in the simulator (routing-table suffixes, failure
// masks, pair sampling, Markov-chain walks) must be reproducible from a
// seed so that benchmark tables and statistical tests are stable.  Rng wraps
// xoshiro256** (Blackman & Vigna, public domain) seeded via SplitMix64, and
// provides the unbiased integer/real/Bernoulli draws the library needs.
#pragma once

#include <cstdint>

namespace dht::math {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Counter-based stateless stream (SplitMix-style): draw i is a pure
/// function of (key, i), so any draw can be computed without generating its
/// predecessors.  This is what lets the interleaved route lanes of the
/// parallel engines own independent, jump-free streams -- lane draws are a
/// pure function of (seed, shard, lane, draw index) with no shared
/// sequential state.  Obtain keyed streams via Rng::counter_stream so the
/// key derivation shares the fork() lineage mixing.
///
/// The object also keeps a cursor so it can serve as a drop-in sequential
/// generator: next_u64() == at(counter++).
class CounterRng {
 public:
  using result_type = std::uint64_t;

  CounterRng() = default;
  explicit CounterRng(std::uint64_t key) noexcept : key_(key) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// The i-th draw of the stream; pure, independent of the cursor.
  std::uint64_t at(std::uint64_t counter) const noexcept {
    // SplitMix64 output function on the keyed counter sequence: the state
    // walked by sequential SplitMix64 is exactly key + i * gamma, so this
    // reproduces that generator's statistical quality without its
    // sequential dependence.
    std::uint64_t z = key_ + (counter + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  result_type operator()() noexcept { return next_u64(); }
  std::uint64_t next_u64() noexcept { return at(counter_++); }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform01() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound); unbiased via Lemire's nearly
  /// divisionless bounded draw -- one 64x64->128 multiply on the fast path,
  /// the remainder computed only in the rare biased-low-bits case.
  /// Precondition: bound > 0.
  std::uint64_t uniform_below(std::uint64_t bound) noexcept;

  /// True with probability p (p clamped to [0, 1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return uniform01() < p;
  }

  std::uint64_t key() const noexcept { return key_; }
  std::uint64_t counter() const noexcept { return counter_; }

 private:
  std::uint64_t key_ = 0;
  std::uint64_t counter_ = 0;
};

/// xoshiro256** generator with convenience distributions.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words from SplitMix64(seed); any seed (including
  /// zero) yields a valid, well-mixed state.
  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Next raw 64-bit output.
  result_type operator()() noexcept { return next_u64(); }
  std::uint64_t next_u64() noexcept;

  /// Advances the state exactly as n next_u64() calls would, in O(log n)
  /// (~10 us at any n), keeping the fork() lineage.  The step is a linear
  /// map M over GF(2) whose characteristic polynomial P has degree 256, so
  /// M^n = r(M) with r(x) = x^n mod P(x) (Cayley-Hamilton): the jump is
  /// exact, bit for bit.  r is applied as the published jump() does, by
  /// XOR-accumulating the states of 256 steps where r has a 1 bit.
  void discard(std::uint64_t n) noexcept;

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform01() noexcept;

  /// Uniform integer in [0, bound); unbiased via rejection sampling (a
  /// power-of-two bound reduces by mask).
  /// Precondition: bound > 0.
  std::uint64_t uniform_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.  Precondition: lo <= hi.
  std::uint64_t uniform_range(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// True with probability p (p clamped to [0, 1]).
  bool bernoulli(double p) noexcept;

  /// An independent generator derived from this one's seed lineage and the
  /// given stream id; forking with distinct ids yields decorrelated streams
  /// regardless of how much either stream is consumed.
  Rng fork(std::uint64_t stream_id) const noexcept;

  /// An independent counter-based stream derived from this one's seed
  /// lineage and the given stream id (the same lineage mixing as fork(),
  /// domain-separated so counter_stream(i) and fork(i) are unrelated).
  /// Like fork(), never advances this generator.
  CounterRng counter_stream(std::uint64_t stream_id) const noexcept;

  /// Same state and fork() lineage: the next draws and forks all agree.
  bool operator==(const Rng&) const = default;

 private:
  Rng() = default;

  std::uint64_t s_[4] = {};
  std::uint64_t lineage_ = 0;  // remembers the seed for fork()
};

}  // namespace dht::math
