// Absorption-probability solvers.
//
// Given an absorbing chain, computes the probability that a walk started at
// `start` is eventually absorbed at `target`, by linear-time dynamic
// programming over a topological order -- applicable to the paper's routing
// chains (acyclic).  The tests cross-check it against independent oracles
// (a dense linear solve and a chain walker, tests/support/oracles.hpp).
#pragma once

#include "markov/chain.hpp"

namespace dht::markov {

/// DP solver for acyclic chains.  Throws dht::PreconditionError if the chain
/// has a cycle or `target` is not absorbing.
double absorption_probability_dag(const Chain& chain, StateId start,
                                  StateId target);

/// Absorption probability together with the conditional expected number of
/// steps E[steps | absorbed at target].  For a routing chain this is the
/// expected hop count of a *successful* route -- the latency axis of the
/// geometry under failure.
struct ConditionalAbsorption {
  double probability = 0.0;
  /// Defined as 0 when probability == 0.
  double expected_steps = 0.0;
};

/// DAG solver for probability and conditional steps in one pass.
/// Preconditions as absorption_probability_dag.
ConditionalAbsorption conditional_absorption_dag(const Chain& chain,
                                                 StateId start,
                                                 StateId target);

}  // namespace dht::markov
