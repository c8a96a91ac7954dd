#include "gen/redundancy.hpp"

#include <algorithm>
#include <stdexcept>

#include "fdd/arena.hpp"
#include "rt/govern.hpp"

namespace dfw {
namespace {

/// The canonical prefix roots p_0..p_n of `policy` in `arena`: p_k decides
/// like rules [0, k), so p_0 is kEmpty and p_n is build_reduced's root,
/// built by the same append loop. Empty when p_n leaves some packet
/// undecided: such a policy has no redundant rule here.
std::vector<ArenaNodeId> prefix_roots(FddArena& arena, const Policy& policy) {
  std::vector<ArenaNodeId> prefix{FddArena::kEmpty};
  prefix.reserve(policy.size() + 1);
  for (const Rule& rule : policy.rules()) {
    prefix.push_back(arena.append_rule(prefix.back(), rule));
  }
  try {
    arena.validate(prefix.back());
  } catch (const std::logic_error&) {
    prefix.clear();  // some packet falls through
  }
  return prefix;
}

/// Whether rule k can go from rules [0, k] followed by the rules whose
/// diagram is `suffix`: it is dead there (p_{k+1} == p_k, upward
/// redundant), or the rules around it decide like the whole policy
/// without it (downward redundant). The first is O(1) and implies the
/// second.
bool redundant(FddArena& arena, const std::vector<ArenaNodeId>& prefix,
               std::size_t k, ArenaNodeId suffix) {
  return prefix[k + 1] == prefix[k] ||
         arena.overlay(prefix[k], suffix) == prefix.back();
}

/// The suffix root with `rule` put in front of `suffix`: the rule's
/// decision where it matches, `suffix`'s elsewhere.
ArenaNodeId push_front(FddArena& arena, const Rule& rule,
                       ArenaNodeId suffix) {
  return arena.overlay(arena.append_rule(FddArena::kEmpty, rule), suffix);
}

}  // namespace

bool is_redundant(const Policy& policy, std::size_t index,
                  RunContext* context) {
  if (index >= policy.size()) {
    throw std::out_of_range("is_redundant: index out of range");
  }
  FddArena arena(policy.schema());
  arena.set_context(context);
  const std::vector<ArenaNodeId> prefix = prefix_roots(arena, policy);
  if (prefix.empty()) {
    return false;
  }
  ArenaNodeId suffix = FddArena::kEmpty;
  for (std::size_t k = policy.size(); k-- > index + 1;) {
    suffix = push_front(arena, policy.rule(k), suffix);
  }
  return redundant(arena, prefix, index, suffix);
}

std::vector<std::size_t> redundant_rules(const Policy& policy,
                                         RunContext* context) {
  std::vector<std::size_t> result;
  FddArena arena(policy.schema());
  arena.set_context(context);
  const std::vector<ArenaNodeId> prefix = prefix_roots(arena, policy);
  if (prefix.empty()) {
    return result;
  }
  ArenaNodeId suffix = FddArena::kEmpty;  // rules (k, n)
  for (std::size_t k = policy.size(); k-- > 0;) {
    govern::checkpoint(context);
    if (redundant(arena, prefix, k, suffix)) {
      result.push_back(k);
    }
    suffix = push_front(arena, policy.rule(k), suffix);
  }
  std::reverse(result.begin(), result.end());
  return result;
}

Policy remove_redundant(const Policy& policy, RunContext* context) {
  FddArena arena(policy.schema());
  arena.set_context(context);
  const std::vector<ArenaNodeId> prefix = prefix_roots(arena, policy);
  if (prefix.empty()) {
    return policy;
  }
  std::vector<Rule> kept;
  ArenaNodeId suffix = FddArena::kEmpty;  // the kept rules of (k, n)
  for (std::size_t k = policy.size(); k-- > 0;) {
    govern::checkpoint(context);
    if (!redundant(arena, prefix, k, suffix)) {
      kept.push_back(policy.rule(k));
      suffix = push_front(arena, policy.rule(k), suffix);
    }
  }
  std::reverse(kept.begin(), kept.end());
  return Policy(policy.schema(), std::move(kept));
}

}  // namespace dfw
