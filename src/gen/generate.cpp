#include "gen/generate.hpp"

#include "fdd/arena.hpp"
#include "rt/govern.hpp"

namespace dfw {

Policy generate_disjoint_policy(const Fdd& fdd, Decision fallback,
                                const GenerateOptions& options) {
  PhaseSpan phase(options.run.obs, "generate");
  const Schema& schema = fdd.schema();
  RunContext* context = options.run.context;
  std::vector<Rule> rules;
  // Interning through canonical() is the arena image of reduce(); the
  // clone-and-reduce of the tree is never materialised, and shared
  // subdiagrams are expanded per path only while enumerating.
  FddArena arena(schema);
  arena.set_context(context);
  arena.for_each_path(arena.from_tree_canonical(fdd.root()),
                      [&](const std::vector<IntervalSet>& conjuncts,
                          Decision decision) {
                        govern::checkpoint(context);
                        if (decision != fallback) {
                          govern::charge_rules(context);
                          rules.emplace_back(schema, conjuncts, decision);
                        }
                      });
  rules.push_back(Rule::catch_all(schema, fallback));
  if (options.run.obs.metrics != nullptr) {
    absorb(*options.run.obs.metrics, arena.stats());
    options.run.obs.metrics->counter("gen.rules_emitted").add(rules.size());
  }
  return Policy(schema, std::move(rules));
}

Policy generate_policy(const Fdd& fdd, const GenerateOptions& options) {
  PhaseSpan phase(options.run.obs, "generate");
  // Canonical interning is reduce(), and the default-branch election's
  // rule-cost recursion — quadratic on trees — is memoised by node id,
  // once per unique subdiagram.
  FddArena arena(fdd.schema());
  arena.set_context(options.run.context);
  Policy out = arena.generate(arena.from_tree_canonical(fdd.root()));
  if (options.run.obs.metrics != nullptr) {
    absorb(*options.run.obs.metrics, arena.stats());
    options.run.obs.metrics->counter("gen.rules_emitted").add(out.size());
  }
  return out;
}

}  // namespace dfw
