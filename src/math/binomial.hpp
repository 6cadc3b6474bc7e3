// Binomial coefficients.
//
// The tree, hypercube and XOR geometries all have distance distribution
// n(h) = C(d, h) (paper Sections 4.2, 4.3.1, 4.3.2).  Figure 7 evaluates at
// d = 100, so coefficients are provided in log space via lgamma (the tests
// check them against exact 64-bit values where those fit).
#pragma once

#include "math/logreal.hpp"

namespace dht::math {

/// C(n, k) as a LogReal.  Returns zero for k < 0 or k > n.
/// Precondition: n >= 0.
LogReal binomial(int n, int k);

/// log C(n, k).  Returns -infinity for k < 0 or k > n.
/// Precondition: n >= 0.
double log_binomial(int n, int k);

}  // namespace dht::math
