#include "sim/shard_pool.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dht::sim {
namespace {

TEST(ShardPool, EveryShardRunsExactlyOnce) {
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    for (std::uint64_t chunk : {0ull, 1ull, 7ull, 1000ull}) {
      const std::uint64_t shards = 257;  // prime: never divides chunk runs
      std::vector<std::atomic<int>> hits(shards);
      run_sharded(shards, PoolOptions{.threads = threads, .chunk = chunk},
                  [&](std::uint64_t s) {
                    ASSERT_LT(s, shards);
                    hits[s].fetch_add(1, std::memory_order_relaxed);
                  });
      for (std::uint64_t s = 0; s < shards; ++s) {
        EXPECT_EQ(hits[s].load(), 1)
            << "shard " << s << " threads=" << threads << " chunk=" << chunk;
      }
    }
  }
}

TEST(ShardPool, MoreThreadsThanShards) {
  std::vector<std::atomic<int>> hits(3);
  run_sharded(3, PoolOptions{.threads = 16}, [&](std::uint64_t s) {
    hits[s].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ShardPool, ZeroShardsIsANoOp) {
  int calls = 0;
  run_sharded(0, PoolOptions{.threads = 4}, [&](std::uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ShardPool, ThrowingShardPropagatesWithoutDeadlock) {
  // The original bug: workers claimed a new run BEFORE checking the failure
  // flag, so a failed sweep kept starting fresh shards.  This must (a) not
  // deadlock, (b) rethrow the first exception, (c) stop claiming promptly.
  for (unsigned threads : {1u, 2u, 8u}) {
    const std::uint64_t shards = 10000;
    std::atomic<std::uint64_t> started{0};
    std::atomic<std::uint64_t> after_failure{0};
    std::atomic<bool> thrown{false};
    const auto work = [&](std::uint64_t s) {
      if (thrown.load(std::memory_order_acquire)) {
        after_failure.fetch_add(1, std::memory_order_relaxed);
        // `thrown` is set before the throw, but the pool records the
        // failure only once the exception has unwound out of work().
        // Shards that start inside that window would otherwise finish in
        // nanoseconds and let a fast worker claim hundreds of them; a
        // shard that takes real time makes the bounds below measure how
        // promptly workers stop claiming, not how long the unwind takes.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      started.fetch_add(1, std::memory_order_relaxed);
      if (s == 5) {
        thrown.store(true, std::memory_order_release);
        throw std::runtime_error("shard 5 exploded");
      }
    };
    EXPECT_THROW(
        run_sharded(shards, PoolOptions{.threads = threads, .chunk = 1}, work),
        std::runtime_error)
        << "threads=" << threads;
    // In-flight shards may finish (one per surviving worker at most a
    // chunk's worth); nothing close to the full sweep may run.
    EXPECT_LT(started.load(), shards / 2) << "threads=" << threads;
    EXPECT_LE(after_failure.load(), std::uint64_t{threads} * 64)
        << "threads=" << threads;
  }
}

TEST(ShardPool, FirstExceptionWins) {
  // Every shard throws; exactly one exception must surface and the pool
  // must still join all workers.
  EXPECT_THROW(
      run_sharded(64, PoolOptions{.threads = 8, .chunk = 1},
                  [](std::uint64_t s) {
                    throw std::runtime_error("shard " + std::to_string(s));
                  }),
      std::runtime_error);
}

TEST(ShardPool, ShardOrderMergeIsThreadCountInvariant) {
  // The engines' contract in miniature: per-shard results merged in shard
  // order are bit-identical at any thread count.
  const std::uint64_t shards = 512;
  const auto run = [&](unsigned threads) {
    std::vector<std::uint64_t> value(shards);
    run_sharded(shards, PoolOptions{.threads = threads},
                [&](std::uint64_t s) { value[s] = s * 0x9e3779b97f4a7c15ULL; });
    return std::accumulate(value.begin(), value.end(), std::uint64_t{0});
  };
  const std::uint64_t one = run(1);
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(8), one);
}

TEST(ShardPool, ResolveThreads) {
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_GE(resolve_threads(0), 1u);
}

}  // namespace
}  // namespace dht::sim
