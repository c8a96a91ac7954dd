#include "gen/redundancy.hpp"

#include <stdexcept>

#include "analysis/policy_analysis.hpp"

namespace dfw {

bool is_redundant(const Policy& policy, std::size_t index,
                  RunContext* context) {
  if (index >= policy.size()) {
    throw std::out_of_range("is_redundant: index out of range");
  }
  return PolicyAnalysis(policy, context).is_redundant(index);
}

std::vector<std::size_t> redundant_rules(const Policy& policy,
                                         RunContext* context) {
  return PolicyAnalysis(policy, context).redundant();
}

Policy remove_redundant(const Policy& policy, RunContext* context) {
  return PolicyAnalysis(policy, context).without_redundant();
}

}  // namespace dfw
