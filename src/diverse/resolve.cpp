#include "diverse/resolve.hpp"

#include <algorithm>
#include <stdexcept>

#include "fdd/arena.hpp"
#include "gen/redundancy.hpp"

namespace dfw {
namespace {

// Validates the plan against a freshly computed discrepancy list and
// returns agreed decisions indexed by discrepancy position.
std::vector<Decision> agreed_by_index(
    const std::vector<Discrepancy>& discrepancies,
    const ResolutionPlan& plan) {
  std::vector<bool> covered(discrepancies.size(), false);
  std::vector<Decision> agreed(discrepancies.size(), kAccept);
  for (const Resolution& r : plan) {
    if (r.discrepancy_index >= discrepancies.size()) {
      throw std::invalid_argument("resolution: discrepancy index out of range");
    }
    if (covered[r.discrepancy_index]) {
      throw std::invalid_argument("resolution: discrepancy resolved twice");
    }
    covered[r.discrepancy_index] = true;
    agreed[r.discrepancy_index] = r.agreed;
  }
  if (!std::all_of(covered.begin(), covered.end(),
                   [](bool b) { return b; })) {
    throw std::invalid_argument("resolution: some discrepancy left unresolved");
  }
  return agreed;
}

void require_teams(const std::vector<Policy>& policies) {
  if (policies.size() < 2) {
    throw std::invalid_argument("resolution: need at least two policies");
  }
}

// The corrections team `team` got wrong: one rule per such discrepancy,
// deciding its predicate as agreed. Discrepancy predicates are pairwise
// disjoint (distinct decision paths), so the rules' order is immaterial.
std::vector<Rule> corrections(const Schema& schema,
                              const std::vector<Discrepancy>& discrepancies,
                              const std::vector<Decision>& agreed,
                              std::size_t team) {
  std::vector<Rule> rules;
  for (std::size_t i = 0; i < discrepancies.size(); ++i) {
    if (discrepancies[i].decisions[team] != agreed[i]) {
      rules.emplace_back(schema, discrepancies[i].conjuncts, agreed[i]);
    }
  }
  return rules;
}

}  // namespace

Resolution adopt(std::size_t discrepancy_index, const Discrepancy& d,
                 std::size_t winner_team) {
  if (winner_team >= d.decisions.size()) {
    throw std::invalid_argument("adopt: no such team");
  }
  return Resolution{discrepancy_index, d.decisions[winner_team]};
}

ResolutionPlan plan_by_majority(
    const std::vector<Discrepancy>& discrepancies,
    std::size_t arbiter_team) {
  ResolutionPlan plan;
  plan.reserve(discrepancies.size());
  for (std::size_t i = 0; i < discrepancies.size(); ++i) {
    const std::vector<Decision>& votes = discrepancies[i].decisions;
    if (arbiter_team >= votes.size()) {
      throw std::invalid_argument("plan_by_majority: no such arbiter team");
    }
    Decision best = votes[arbiter_team];
    std::size_t best_count = 0;
    for (const Decision candidate : votes) {
      const std::size_t count = static_cast<std::size_t>(
          std::count(votes.begin(), votes.end(), candidate));
      // Strict majority beats the arbiter; ties keep the arbiter's pick.
      const std::size_t arbiter_count = static_cast<std::size_t>(
          std::count(votes.begin(), votes.end(), votes[arbiter_team]));
      if (count > best_count && count > arbiter_count) {
        best = candidate;
        best_count = count;
      }
    }
    plan.push_back({i, best});
  }
  return plan;
}

Policy resolve_via_fdd(const std::vector<Policy>& policies,
                       const ResolutionPlan& plan, const RunOptions& run) {
  require_teams(policies);
  std::vector<const Policy*> inputs;
  inputs.reserve(policies.size());
  for (const Policy& p : policies) {
    inputs.push_back(&p);
  }
  FddArena arena(policies.front().schema());
  std::vector<Discrepancy> discrepancies;
  const std::vector<ArenaNodeId> roots =
      compare_policies(arena, inputs, run, discrepancies);
  Policy resolved =
      correct_and_generate(arena, roots, discrepancies, plan, run.obs);
  if (run.obs.metrics != nullptr) {
    absorb(*run.obs.metrics, arena.stats());
  }
  return resolved;
}

Policy correct_and_generate(FddArena& arena,
                            const std::vector<ArenaNodeId>& roots,
                            const std::vector<Discrepancy>& discrepancies,
                            const ResolutionPlan& plan, const ObsOptions& obs) {
  const std::vector<Decision> agreed = agreed_by_index(discrepancies, plan);
  // The overlay's work grows with the corrections, and its result does not
  // depend on the team: start from the one the plan overrules least.
  std::size_t team = 0;
  std::size_t fewest = discrepancies.size() + 1;
  for (std::size_t t = 0; t < roots.size(); ++t) {
    std::size_t overruled = 0;
    for (std::size_t i = 0; i < discrepancies.size(); ++i) {
      overruled += discrepancies[i].decisions[t] != agreed[i] ? 1 : 0;
    }
    if (overruled < fewest) {
      fewest = overruled;
      team = t;
    }
  }
  ArenaNodeId fix = FddArena::kEmpty;
  for (const Rule& rule :
       corrections(arena.schema(), discrepancies, agreed, team)) {
    fix = arena.append_rule(fix, rule);
  }
  const ArenaNodeId corrected = arena.overlay(fix, roots[team]);
  PhaseSpan phase(obs, "generate");
  Policy resolved = arena.generate(corrected);
  if (obs.metrics != nullptr) {
    obs.metrics->counter("gen.rules_emitted").add(resolved.size());
  }
  return resolved;
}

Policy resolve_via_corrections(const std::vector<Policy>& policies,
                               const ResolutionPlan& plan,
                               std::size_t base_team, const RunOptions& run) {
  if (base_team >= policies.size()) {
    throw std::invalid_argument("resolve_via_corrections: no such team");
  }
  require_teams(policies);
  CompareOptions compare;
  compare.run = run;
  return prepend_and_trim(policies[base_team], base_team,
                          discrepancies_many(policies, compare), plan,
                          run.context);
}

Policy prepend_and_trim(const Policy& base, std::size_t base_team,
                        const std::vector<Discrepancy>& discrepancies,
                        const ResolutionPlan& plan, RunContext* context) {
  // Only the resolutions the base team got wrong need prepending.
  std::vector<Rule> rules =
      corrections(base.schema(), discrepancies,
                  agreed_by_index(discrepancies, plan), base_team);
  rules.insert(rules.end(), base.rules().begin(), base.rules().end());
  return remove_redundant(Policy(base.schema(), std::move(rules)), context);
}

}  // namespace dfw
