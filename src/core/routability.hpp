// The generic RCM routability evaluator (paper Section 4.1, Eqs. 1, 3, 5).
//
// Given a Geometry's n(h) and Q(m), computes
//
//   E[S]      = sum_{h=1}^{d} n(h) p(h, q)          (expected reachable size)
//   r(N, q)   = E[S] / ((1-q) 2^d - 1)              (routability, Eq. 3)
//
// entirely in log space, so d = 100 (Fig. 7(a)) or d = 4096 evaluate without
// overflow.  Also exposes the conditional success fraction
// E[S] / ((1-q)(2^d - 1)), which is what a static-resilience simulator that
// samples alive source/destination pairs actually measures; it differs from
// r by O(q / N).
#pragma once

#include "core/geometry.hpp"

namespace dht::core {

/// One evaluated (d, q) point.
struct RoutabilityPoint {
  int d = 0;          ///< identifier length; N = 2^d
  double q = 0.0;     ///< node failure probability
  double routability = 0.0;        ///< r(N, q), Eq. 3, clamped to [0, 1]
  double failed_fraction = 0.0;    ///< 1 - routability ("percent failed paths")
  double conditional_success = 0.0;  ///< E[S] / ((1-q)(N-1)); simulator view
  double log_expected_reachable = 0.0;  ///< log E[S]
};

/// Evaluates Eq. 3 for one (d, q).  Preconditions: d >= 1, q in [0, 1).
/// When fewer than one node is expected to survive ((1-q) 2^d <= 1) the
/// routability is defined as 0 -- there are no pairs to route between.
RoutabilityPoint evaluate_routability(const Geometry& geometry, int d,
                                      double q);

}  // namespace dht::core
