// Cross-validation: the closed-form p(h, q) = prod (1 - Q(m)) expressions of
// the core geometries (paper Section 4.3) against absorption probabilities
// computed numerically on the explicitly built routing Markov chains
// (Figs. 4(a), 4(b), 5(b), 8(a), 8(b)).  Agreement here means the paper's
// algebra and our two implementations corroborate each other.
#include "markov/builders.hpp"

#include <memory>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "markov/absorption.hpp"
#include "support/oracles.hpp"

namespace dht {
namespace {

using core::Geometry;
using core::GeometryKind;
using markov::absorption_probability_dag;
using markov::RoutingChain;

constexpr double kQGrid[] = {0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9};

double chain_success(const RoutingChain& built) {
  return absorption_probability_dag(built.chain, built.start, built.success);
}

TEST(ChainBuilders, TreeMatchesClosedForm) {
  const auto geometry = core::make_geometry(GeometryKind::kTree);
  for (double q : kQGrid) {
    for (int h = 1; h <= 12; ++h) {
      const RoutingChain built = markov::build_tree_chain(h, q);
      EXPECT_NEAR(chain_success(built),
                  geometry->success_probability(h, q, /*d=*/12), 1e-12)
          << "q=" << q << " h=" << h;
    }
  }
}

TEST(ChainBuilders, HypercubeMatchesClosedForm) {
  const auto geometry = core::make_geometry(GeometryKind::kHypercube);
  for (double q : kQGrid) {
    for (int h = 1; h <= 12; ++h) {
      const RoutingChain built = markov::build_hypercube_chain(h, q);
      EXPECT_NEAR(chain_success(built),
                  geometry->success_probability(h, q, /*d=*/12), 1e-12)
          << "q=" << q << " h=" << h;
    }
  }
}

TEST(ChainBuilders, HypercubePaperFig3Example) {
  // Fig. 3: p(3, q) = (1 - q^3)(1 - q^2)(1 - q) on the 8-node hypercube.
  for (double q : kQGrid) {
    const RoutingChain built = markov::build_hypercube_chain(3, q);
    const double expected = (1.0 - q * q * q) * (1.0 - q * q) * (1.0 - q);
    EXPECT_NEAR(chain_success(built), expected, 1e-14) << "q=" << q;
  }
}

TEST(ChainBuilders, XorMatchesClosedFormEq6) {
  const auto geometry = core::make_geometry(GeometryKind::kXor);
  for (double q : kQGrid) {
    for (int h = 1; h <= 12; ++h) {
      const RoutingChain built = markov::build_xor_chain(h, q);
      EXPECT_NEAR(chain_success(built),
                  geometry->success_probability(h, q, /*d=*/12), 1e-11)
          << "q=" << q << " h=" << h;
    }
  }
}

TEST(ChainBuilders, RingMatchesClosedFormQ) {
  const auto geometry = core::make_geometry(GeometryKind::kRing);
  for (double q : kQGrid) {
    for (int h = 1; h <= 12; ++h) {  // 2^h states; keep moderate
      const RoutingChain built = markov::build_ring_chain(h, q);
      EXPECT_NEAR(chain_success(built),
                  geometry->success_probability(h, q, /*d=*/12), 1e-11)
          << "q=" << q << " h=" << h;
    }
  }
}

TEST(ChainBuilders, SymphonyMatchesClosedFormEq7) {
  for (const auto& params :
       {core::SymphonyParams{1, 1}, core::SymphonyParams{2, 2},
        core::SymphonyParams{4, 1}}) {
    const auto geometry =
        core::make_geometry(GeometryKind::kSymphony, params);
    const int d = 16;
    for (double q : {0.1, 0.3, 0.5}) {
      for (int h = 1; h <= 8; ++h) {
        const RoutingChain built = markov::build_symphony_chain(
            h, d, q, params.near_neighbors, params.shortcuts);
        EXPECT_NEAR(chain_success(built),
                    geometry->success_probability(h, q, d), 1e-11)
            << "q=" << q << " h=" << h << " kn=" << params.near_neighbors
            << " ks=" << params.shortcuts;
      }
    }
  }
}

TEST(ChainBuilders, DagAndDenseSolversAgreeOnRoutingChains) {
  for (double q : {0.2, 0.6}) {
    const RoutingChain xor_chain = markov::build_xor_chain(6, q);
    EXPECT_NEAR(
        absorption_probability_dag(xor_chain.chain, xor_chain.start,
                                   xor_chain.success),
        absorption_probability_dense(xor_chain.chain, xor_chain.start,
                                     xor_chain.success),
        1e-12);
    const RoutingChain ring_chain = markov::build_ring_chain(6, q);
    EXPECT_NEAR(
        absorption_probability_dag(ring_chain.chain, ring_chain.start,
                                   ring_chain.success),
        absorption_probability_dense(ring_chain.chain, ring_chain.start,
                                     ring_chain.success),
        1e-12);
  }
}

TEST(ChainBuilders, SuccessPlusFailureIsOne) {
  // The chains have exactly two absorbing states; mass must split between
  // them.
  for (double q : {0.1, 0.5, 0.9}) {
    for (int h : {1, 4, 8}) {
      const RoutingChain built = markov::build_xor_chain(h, q);
      const double win = chain_success(built);
      const double lose = absorption_probability_dag(built.chain, built.start,
                                                     built.failure);
      EXPECT_NEAR(win + lose, 1.0, 1e-12) << "q=" << q << " h=" << h;
    }
  }
}

TEST(ChainBuilders, DegenerateFailureProbabilities) {
  // q = 0: certain success.  q = 1: certain failure (for any h >= 1).
  for (int h : {1, 3, 7}) {
    EXPECT_DOUBLE_EQ(chain_success(markov::build_tree_chain(h, 0.0)), 1.0);
    EXPECT_DOUBLE_EQ(chain_success(markov::build_hypercube_chain(h, 0.0)),
                     1.0);
    EXPECT_DOUBLE_EQ(chain_success(markov::build_xor_chain(h, 0.0)), 1.0);
    EXPECT_DOUBLE_EQ(chain_success(markov::build_ring_chain(h, 0.0)), 1.0);
    EXPECT_DOUBLE_EQ(chain_success(markov::build_tree_chain(h, 1.0)), 0.0);
    EXPECT_DOUBLE_EQ(chain_success(markov::build_hypercube_chain(h, 1.0)),
                     0.0);
    EXPECT_DOUBLE_EQ(chain_success(markov::build_xor_chain(h, 1.0)), 0.0);
    EXPECT_DOUBLE_EQ(chain_success(markov::build_ring_chain(h, 1.0)), 0.0);
  }
}

TEST(ChainBuilders, OrderingTreeLeXorLeRing) {
  // Paper Sections 3.3/5.4: fallback helps (xor >= tree), and ring's
  // non-shrinking choice pool helps further (ring >= xor).
  for (double q : kQGrid) {
    for (int h = 1; h <= 10; ++h) {
      const double tree = chain_success(markov::build_tree_chain(h, q));
      const double xr = chain_success(markov::build_xor_chain(h, q));
      const double ring = chain_success(markov::build_ring_chain(h, q));
      EXPECT_LE(tree, xr + 1e-12) << "q=" << q << " h=" << h;
      EXPECT_LE(xr, ring + 1e-12) << "q=" << q << " h=" << h;
    }
  }
}

TEST(ChainBuilders, RejectsBadArguments) {
  EXPECT_THROW(markov::build_tree_chain(0, 0.5), PreconditionError);
  EXPECT_THROW(markov::build_tree_chain(3, -0.1), PreconditionError);
  EXPECT_THROW(markov::build_tree_chain(3, 1.1), PreconditionError);
  EXPECT_THROW(markov::build_ring_chain(21, 0.5), PreconditionError);
  EXPECT_THROW(markov::build_symphony_chain(5, 4, 0.5, 0, 1),
               PreconditionError);
  EXPECT_THROW(markov::build_symphony_chain(5, 4, 1.0, 1, 1),
               PreconditionError);
  EXPECT_THROW(markov::build_symphony_chain(8, 4, 0.5, 1, 1),
               PreconditionError);  // h > d
}

}  // namespace
}  // namespace dht
