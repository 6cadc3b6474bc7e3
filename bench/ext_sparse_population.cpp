// Extension: non-fully-populated identifier spaces (paper Section 6 future
// work).
//
// The paper's analysis assumes every one of the 2^d identifiers hosts a
// node.  Real DHTs scatter N ~ 10^6 nodes across a 2^128 key space.  This
// harness scatters N = 2^10 nodes across progressively larger key spaces
// (up to 2^32 -- the sparse engine accepts up to 2^63) and measures static
// resilience: the failed-path fraction is essentially independent of the
// key-space size and matches the *dense* RCM model evaluated at the
// occupancy scale d' = log2 N -- the density reduction that extends the
// paper's results to real-world populations.  Estimates run on the
// flattened sharded sparse engine (sparse/flat_sparse.hpp), which is also
// what makes the companion million-node sweep (perf_simulator
// "section":"sparse", dhtscale_cli sparse) tractable.
#include <iostream>

#include "bench_util.hpp"
#include "common/strfmt.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "sparse/density_analysis.hpp"
#include "sparse/flat_sparse.hpp"
#include "sparse/sparse_chord.hpp"
#include "sparse/sparse_kademlia.hpp"

namespace {

constexpr std::uint64_t kNodes = 1024;  // N = 2^10
constexpr std::uint64_t kPairs = 20000;

double sparse_failed(const dht::sparse::SparseOverlay& overlay, double q,
                     std::uint64_t seed) {
  using namespace dht;
  if (q == 0.0) {
    return 0.0;
  }
  math::Rng rng(seed);
  const sparse::SparseFailure failures(overlay.space(), q, rng);
  return dht::sparse::estimate_routability_parallel(overlay, failures,
                                                    {.pairs = kPairs}, rng)
      .failed_fraction();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dht;
  const auto flags = bench::parse_flags(argc, argv);
  const auto ring = core::make_geometry(core::GeometryKind::kRing);
  const auto xr = core::make_geometry(core::GeometryKind::kXor);

  core::Table table(strfmt(
      "Sparse-population extension -- percent failed paths, N = %llu nodes "
      "scattered in key spaces of 2^10..2^32 keys",
      static_cast<unsigned long long>(kNodes)));
  table.set_header({"q%", "ring d'=10 (dense model)", "chord 2^10 (dense)",
                    "chord 2^14", "chord 2^24", "chord 2^32",
                    "xor d'=10 (dense model)", "kad 2^14", "kad 2^24",
                    "kad 2^32"});

  // Build one overlay per key-space size (ids and tables reused across q).
  struct Instance {
    int bits;
    std::unique_ptr<sparse::SparseIdSpace> space;
    std::unique_ptr<sparse::SparseChordOverlay> chord;
    std::unique_ptr<sparse::SparseKademliaOverlay> kademlia;
  };
  std::vector<Instance> instances;
  for (int bits : {10, 14, 24, 32}) {
    math::Rng rng(7000 + static_cast<std::uint64_t>(bits));
    Instance inst;
    inst.bits = bits;
    inst.space = std::make_unique<sparse::SparseIdSpace>(bits, kNodes, rng);
    inst.chord = std::make_unique<sparse::SparseChordOverlay>(*inst.space);
    inst.kademlia =
        std::make_unique<sparse::SparseKademliaOverlay>(*inst.space, rng);
    instances.push_back(std::move(inst));
  }

  std::uint64_t seed = 1;
  for (double q : bench::paper_q_grid()) {
    std::vector<std::string> row{bench::pct(q)};
    row.push_back(bench::pct(
        1.0 - sparse::predict_sparse_routability(*ring, kNodes, q)
                  .conditional_success));
    row.push_back(bench::pct(sparse_failed(*instances[0].chord, q, seed)));
    row.push_back(bench::pct(sparse_failed(*instances[1].chord, q, seed + 1)));
    row.push_back(bench::pct(sparse_failed(*instances[2].chord, q, seed + 2)));
    row.push_back(bench::pct(sparse_failed(*instances[3].chord, q, seed + 3)));
    row.push_back(bench::pct(
        1.0 - sparse::predict_sparse_routability(*xr, kNodes, q)
                  .conditional_success));
    row.push_back(
        bench::pct(sparse_failed(*instances[1].kademlia, q, seed + 4)));
    row.push_back(
        bench::pct(sparse_failed(*instances[2].kademlia, q, seed + 5)));
    row.push_back(
        bench::pct(sparse_failed(*instances[3].kademlia, q, seed + 6)));
    table.add_row(std::move(row));
    seed += 10;
  }
  table.add_note(
      "chord columns: measured failed paths barely move as the key space "
      "grows 2^14 -> 2^32 at fixed N and track the dense model at "
      "d' = log2 N; unlike the dense case the model is NOT a bound here -- "
      "sparse fingers collapse onto the same few successors, and those "
      "correlated failures cost a few extra percent at small q");
  table.add_note(
      "kad columns: same density-independence for Kademlia buckets; the "
      "dense-model column inherits Eq. 6's documented knee optimism");
  bench::emit(table, flags);
  return 0;
}
