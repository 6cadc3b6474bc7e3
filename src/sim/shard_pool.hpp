// The deterministic shard pool shared by the parallel engines.
//
// Work is split over a fixed number of shards that does NOT depend on the
// thread count; worker threads claim *runs* of shard indices from an atomic
// counter (one CAS per run instead of per shard, so the counter never
// becomes the contention point at high thread counts).  Because every
// shard's computation is a pure function of (caller seed, shard index) and
// per-shard results are merged in shard order afterwards, results are
// bit-identical at any thread count and any chunk size.  Used by the static
// Monte-Carlo engine (parallel_monte_carlo.cpp), the sparse engine
// (sparse/flat_sparse.cpp), and the churn trajectory engines
// (churn/trajectory.cpp, churn/sparse_trajectory.cpp).  The static
// builders run in 2^14-node chunks on every core, identical to the serial
// draw order at any core count: run_draw_chunks at a fixed draw count per
// node (dense tables, Symphony shortcuts, failure masks, the sparse id
// space), run_counted_chunks at a data-dependent one (sparse Kademlia
// contacts), run_node_chunks without draws (sparse Chord rows).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "math/rng.hpp"

namespace dht::sim {

/// Scheduling knobs for run_sharded; none of them ever affect results.
struct PoolOptions {
  /// Worker threads (already resolved; see resolve_threads).
  unsigned threads = 1;
  /// Shards claimed per atomic increment.  0 = auto: shards / (8 * workers)
  /// clamped to [1, 64] -- runs long enough to kill contention, short
  /// enough to load-balance the tail.  Engines whose shards are heavy
  /// (churn replica worlds) pass 1 explicitly.
  std::uint64_t chunk = 0;
};

/// Runs `work(shard_index)` for every shard in [0, shards); rethrows the
/// first worker exception.  A failed shard stops the pool *before* other
/// workers claim new shards or start queued ones; shards already in flight
/// finish (work() is never interrupted mid-shard).
template <typename Work>
void run_sharded(std::uint64_t shards, const PoolOptions& options,
                 Work&& work) {
  if (options.threads <= 1 || shards <= 1) {
    for (std::uint64_t s = 0; s < shards; ++s) {
      work(s);
    }
    return;
  }
  const unsigned workers =
      static_cast<unsigned>(std::min<std::uint64_t>(options.threads, shards));
  std::uint64_t chunk = options.chunk;
  if (chunk == 0) {
    chunk = std::clamp<std::uint64_t>(shards / (8 * workers), 1, 64);
  }
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        // Check the failure flag BEFORE claiming: once a shard has failed,
        // no worker may start new work, only drain.  (Claiming first would
        // let every worker begin one more run after the failure.)
        if (failed.load(std::memory_order_acquire)) {
          return;
        }
        const std::uint64_t begin =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= shards) {
          return;
        }
        const std::uint64_t end = std::min(begin + chunk, shards);
        for (std::uint64_t s = begin; s < end; ++s) {
          if (failed.load(std::memory_order_acquire)) {
            return;
          }
          try {
            work(s);
          } catch (...) {
            {
              const std::lock_guard<std::mutex> lock(error_mutex);
              if (!error) {
                error = std::current_exception();
              }
            }
            failed.store(true, std::memory_order_release);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

/// Resolves a requested worker count (0 = hardware concurrency, at least 1).
inline unsigned resolve_threads(unsigned requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Nodes per chunk of run_draw_chunks: a multiple of 64, so no packed
/// one-bit-per-node word straddles two chunks.
inline constexpr std::uint64_t kDrawChunkNodes = std::uint64_t{1} << 14;

/// Runs work(c, begin, end) for every kDrawChunkNodes-node chunk c =
/// [begin, end) of [0, nodes), on every core.  `threads` 0 means every
/// core; the builders leave it so, and only tests pin it.
template <typename Work>
void run_node_chunks(std::uint64_t nodes, Work&& work, unsigned threads = 0) {
  run_sharded((nodes + kDrawChunkNodes - 1) / kDrawChunkNodes,
              PoolOptions{.threads = resolve_threads(threads), .chunk = 1},
              [&](std::uint64_t c) {
                const std::uint64_t begin = c * kDrawChunkNodes;
                work(c, begin, std::min(nodes, begin + kDrawChunkNodes));
              });
}

/// Runs a builder whose node v consumes exactly `draws_per_node` raw draws
/// of `rng` (next_u64 calls), on every core.  fill(begin, end, chunk_rng)
/// builds nodes [begin, end) from chunk_rng = `rng` jumped by
/// begin * draws_per_node (Rng::discard), where the serial loop's rng
/// stands at node begin.  Chunks are kDrawChunkNodes nodes at any worker
/// count, so the output is the serial draw order's, and `rng` ends where
/// the serial loop leaves it.  Each chunk must end where the next one
/// starts: a builder whose draw count drifts throws PreconditionError
/// instead of silently re-drawing.  Chunks run concurrently, so fill may
/// only write memory allocated before the call.
template <typename Fill>
void run_draw_chunks(std::uint64_t nodes, std::uint64_t draws_per_node,
                     math::Rng& rng, Fill&& fill, unsigned threads = 0) {
  const auto jumped = [&](std::uint64_t node) {
    math::Rng at = rng;
    at.discard(node * draws_per_node);
    return at;
  };
  run_node_chunks(
      nodes,
      [&](std::uint64_t, std::uint64_t begin, std::uint64_t end) {
        math::Rng chunk_rng = jumped(begin);
        fill(begin, end, chunk_rng);
        DHT_CHECK(chunk_rng == jumped(end),
                  "a chunk's draws do not match draws_per_node");
      },
      threads);
  rng = jumped(nodes);
}

/// Runs a builder whose draw count is data-dependent, on every core, with
/// the serial draw order's output.  count(begin, end) predicts the raw
/// draws of chunk [begin, end), for all chunks in parallel; then each chunk
/// runs fill(begin, end, chunk_rng) from `rng` jumped by the predictions of
/// the chunks before it.  In chunk order, a chunk whose jumped start is not
/// exactly (Rng::operator==) where the true stream stands is rebuilt from
/// the true stream, so a misprediction costs serial rebuilds, never a wrong
/// table.  fill must write every cell of its chunk; `rng` ends where the
/// serial loop leaves it.
template <typename Count, typename Fill>
void run_counted_chunks(std::uint64_t nodes, Count&& count, math::Rng& rng,
                        Fill&& fill, unsigned threads = 0) {
  const std::uint64_t chunks = (nodes + kDrawChunkNodes - 1) / kDrawChunkNodes;
  std::vector<std::uint64_t> offset(chunks + 1, 0);
  run_node_chunks(
      nodes,
      [&](std::uint64_t c, std::uint64_t first, std::uint64_t last) {
        offset[c + 1] = count(first, last);
      },
      threads);
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  std::vector<math::Rng> start(chunks, rng);
  std::vector<math::Rng> end(chunks, rng);
  run_node_chunks(
      nodes,
      [&](std::uint64_t c, std::uint64_t first, std::uint64_t last) {
        // A local rng: neighbouring chunks' states share cache lines.
        math::Rng chunk_rng = rng;
        chunk_rng.discard(offset[c]);
        start[c] = chunk_rng;
        fill(first, last, chunk_rng);
        end[c] = chunk_rng;
      },
      threads);
  for (std::uint64_t c = 0; c < chunks; ++c) {
    if (start[c] == rng) {
      rng = end[c];
    } else {
      const std::uint64_t first = c * kDrawChunkNodes;
      fill(first, std::min(nodes, first + kDrawChunkNodes), rng);
    }
  }
}

}  // namespace dht::sim
