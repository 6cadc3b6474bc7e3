// Disjoint-set forest with union by size and path halving.
//
// Substrate for the connected-component analysis that contrasts percolation
// connectivity with protocol reachability (paper Section 1: the reachable
// component is a subset of the connected component; component size alone
// does not give routability).
#pragma once

#include <cstdint>
#include <vector>

namespace dht::perc {

class UnionFind {
 public:
  /// n singleton sets, elements 0 .. n-1.
  explicit UnionFind(std::uint64_t n);

  /// Representative of x's set (with path halving).
  std::uint64_t find(std::uint64_t x);

  /// Merges the sets of a and b; returns true if they were distinct.
  bool unite(std::uint64_t a, std::uint64_t b);

  /// Size of x's set.
  std::uint64_t set_size(std::uint64_t x);

  std::uint64_t set_count() const noexcept { return set_count_; }

 private:
  void check(std::uint64_t x) const;

  std::vector<std::uint64_t> parent_;
  std::vector<std::uint64_t> size_;
  std::uint64_t set_count_;
};

}  // namespace dht::perc
