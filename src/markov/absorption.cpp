#include "markov/absorption.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "math/summation.hpp"

namespace dht::markov {

double absorption_probability_dag(const Chain& chain, StateId start,
                                  StateId target) {
  DHT_CHECK(chain.is_absorbing(target),
            "absorption target must be an absorbing state");
  const auto order = chain.topological_order();
  DHT_CHECK(order.has_value(),
            "absorption_probability_dag requires an acyclic chain");

  // Walk the topological order backwards: by the time we evaluate a state,
  // every successor already has its absorption probability.
  std::vector<double> prob(static_cast<size_t>(chain.state_count()), 0.0);
  prob[static_cast<size_t>(target)] = 1.0;
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const StateId s = *it;
    if (chain.is_absorbing(s)) {
      continue;  // target already seeded; other absorbing states stay 0
    }
    math::NeumaierSum acc;
    for (const Transition& t : chain.transitions_from(s)) {
      acc.add(t.probability * prob[static_cast<size_t>(t.to)]);
    }
    prob[static_cast<size_t>(s)] = acc.total();
  }
  return std::clamp(prob[static_cast<size_t>(start)], 0.0, 1.0);
}

ConditionalAbsorption conditional_absorption_dag(const Chain& chain,
                                                 StateId start,
                                                 StateId target) {
  DHT_CHECK(chain.is_absorbing(target),
            "absorption target must be an absorbing state");
  const auto order = chain.topological_order();
  DHT_CHECK(order.has_value(),
            "conditional_absorption_dag requires an acyclic chain");

  // prob(v)   = P(absorbed at target | start v)
  // weight(v) = E[steps * 1{absorbed at target} | start v]
  // Recurrence over edges e = (v -> w, p): weight(v) += p (weight(w) +
  // prob(w)) -- the +prob(w) charges the step along e to every eventually
  // successful trajectory through it.
  std::vector<double> prob(static_cast<size_t>(chain.state_count()), 0.0);
  std::vector<double> weight(static_cast<size_t>(chain.state_count()), 0.0);
  prob[static_cast<size_t>(target)] = 1.0;
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const StateId s = *it;
    if (chain.is_absorbing(s)) {
      continue;
    }
    math::NeumaierSum p_acc;
    math::NeumaierSum w_acc;
    for (const Transition& t : chain.transitions_from(s)) {
      const double child_prob = prob[static_cast<size_t>(t.to)];
      p_acc.add(t.probability * child_prob);
      w_acc.add(t.probability *
                (weight[static_cast<size_t>(t.to)] + child_prob));
    }
    prob[static_cast<size_t>(s)] = p_acc.total();
    weight[static_cast<size_t>(s)] = w_acc.total();
  }
  ConditionalAbsorption out;
  out.probability = std::clamp(prob[static_cast<size_t>(start)], 0.0, 1.0);
  if (out.probability > 0.0) {
    out.expected_steps =
        weight[static_cast<size_t>(start)] / out.probability;
  }
  return out;
}

}  // namespace dht::markov
