#include "markov/absorption.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "math/rng.hpp"
#include "support/oracles.hpp"

namespace dht::markov {
namespace {

// Two-state coin: start -> success (p), start -> failure (1-p).
Chain coin_chain(double p, StateId& start, StateId& success, StateId& failure) {
  Chain chain;
  start = chain.add_state("start");
  success = chain.add_state("success");
  failure = chain.add_state("failure");
  chain.add_transition(start, success, p);
  chain.add_transition(start, failure, 1.0 - p);
  chain.validate();
  return chain;
}

TEST(AbsorptionDag, CoinFlip) {
  StateId start, success, failure;
  const Chain chain = coin_chain(0.3, start, success, failure);
  EXPECT_NEAR(absorption_probability_dag(chain, start, success), 0.3, 1e-15);
  EXPECT_NEAR(absorption_probability_dag(chain, start, failure), 0.7, 1e-15);
}

TEST(AbsorptionDag, StartingAtTargetIsCertain) {
  StateId start, success, failure;
  const Chain chain = coin_chain(0.3, start, success, failure);
  EXPECT_EQ(absorption_probability_dag(chain, success, success), 1.0);
  EXPECT_EQ(absorption_probability_dag(chain, failure, success), 0.0);
}

TEST(AbsorptionDag, TwoStepPipeline) {
  // start --0.8--> mid --0.5--> success; failures elsewhere.
  Chain chain;
  const StateId start = chain.add_state("start");
  const StateId mid = chain.add_state("mid");
  const StateId success = chain.add_state("success");
  const StateId failure = chain.add_state("failure");
  chain.add_transition(start, mid, 0.8);
  chain.add_transition(start, failure, 0.2);
  chain.add_transition(mid, success, 0.5);
  chain.add_transition(mid, failure, 0.5);
  chain.validate();
  EXPECT_NEAR(absorption_probability_dag(chain, start, success), 0.4, 1e-15);
}

TEST(AbsorptionDag, RequiresAbsorbingTarget) {
  Chain chain;
  const StateId a = chain.add_state("a");
  const StateId b = chain.add_state("b");
  chain.add_transition(a, b, 1.0);
  EXPECT_THROW(absorption_probability_dag(chain, b, a), PreconditionError);
}

TEST(AbsorptionDag, RequiresAcyclicChain) {
  Chain chain;
  const StateId a = chain.add_state("a");
  const StateId b = chain.add_state("b");
  const StateId f = chain.add_state("f");
  chain.add_transition(a, b, 0.5);
  chain.add_transition(a, f, 0.5);
  chain.add_transition(b, a, 1.0);
  EXPECT_THROW(absorption_probability_dag(chain, a, f), PreconditionError);
}

TEST(AbsorptionDense, CoinFlip) {
  StateId start, success, failure;
  const Chain chain = coin_chain(0.25, start, success, failure);
  EXPECT_NEAR(absorption_probability_dense(chain, start, success), 0.25,
              1e-14);
}

TEST(AbsorptionDense, GamblersRuin) {
  // States 0..4; 0 and 4 absorbing; from i move +1 w.p. p, -1 w.p. 1-p.
  // P(reach 4 before 0 | start i) = (1 - r^i) / (1 - r^4) with r = (1-p)/p.
  const double p = 0.6;
  const double r = (1.0 - p) / p;
  Chain chain;
  std::vector<StateId> s;
  for (int i = 0; i <= 4; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    s.push_back(chain.add_state(name));
  }
  for (int i = 1; i <= 3; ++i) {
    chain.add_transition(s[i], s[i + 1], p);
    chain.add_transition(s[i], s[i - 1], 1.0 - p);
  }
  chain.validate();
  for (int i = 1; i <= 3; ++i) {
    const double expected =
        (1.0 - std::pow(r, i)) / (1.0 - std::pow(r, 4));
    EXPECT_NEAR(absorption_probability_dense(chain, s[i], s[4]), expected,
                1e-12)
        << "i=" << i;
  }
}

TEST(AbsorptionDense, AgreesWithDagOnLayeredChain) {
  // A random-ish layered DAG exercising both solvers.
  Chain chain;
  const StateId a = chain.add_state("a");
  const StateId b = chain.add_state("b");
  const StateId c = chain.add_state("c");
  const StateId win = chain.add_state("win");
  const StateId lose = chain.add_state("lose");
  chain.add_transition(a, b, 0.4);
  chain.add_transition(a, c, 0.35);
  chain.add_transition(a, lose, 0.25);
  chain.add_transition(b, c, 0.5);
  chain.add_transition(b, win, 0.2);
  chain.add_transition(b, lose, 0.3);
  chain.add_transition(c, win, 0.9);
  chain.add_transition(c, lose, 0.1);
  chain.validate();
  const double dag = absorption_probability_dag(chain, a, win);
  const double dense = absorption_probability_dense(chain, a, win);
  EXPECT_NEAR(dag, dense, 1e-13);
  // Hand computation: P = 0.4*(0.2 + 0.5*0.9) + 0.35*0.9 = 0.575.
  EXPECT_NEAR(dag, 0.575, 1e-13);
}

TEST(Walker, MatchesExactAbsorptionProbability) {
  StateId start, success, failure;
  const Chain chain = coin_chain(0.37, start, success, failure);
  math::Rng rng(2024);
  const auto estimate = estimate_absorption(chain, start, success, 200000, rng);
  // SE = sqrt(0.37*0.63/200000) ~ 0.0011; allow 5 sigma.
  EXPECT_NEAR(estimate.point(), 0.37, 0.0055);
}

TEST(Walker, GamblersRuinEstimate) {
  const double p = 0.6;
  Chain chain;
  std::vector<StateId> s;
  for (int i = 0; i <= 4; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    s.push_back(chain.add_state(name));
  }
  for (int i = 1; i <= 3; ++i) {
    chain.add_transition(s[i], s[i + 1], p);
    chain.add_transition(s[i], s[i - 1], 1.0 - p);
  }
  chain.validate();
  math::Rng rng(7);
  const double exact = absorption_probability_dense(chain, s[2], s[4]);
  const auto estimate = estimate_absorption(chain, s[2], s[4], 100000, rng);
  EXPECT_NEAR(estimate.point(), exact, 0.01);
}

TEST(Walker, RequiresAbsorbingTarget) {
  Chain chain;
  const StateId a = chain.add_state("a");
  const StateId b = chain.add_state("b");
  chain.add_transition(a, b, 1.0);
  math::Rng rng(1);
  EXPECT_THROW(estimate_absorption(chain, b, a, 10, rng), PreconditionError);
}

}  // namespace
}  // namespace dht::markov
