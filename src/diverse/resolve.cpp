#include "diverse/resolve.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

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

// Walks the shaped diagrams in lockstep, in FddArena::compare_into's
// depth-first order, and rebuilds `roots[base]` through canonical(): at
// every discrepant terminal tuple (not all ids equal) the next agreed
// decision replaces the base team's. Tuples that hold no discrepancy are
// rebuilt once and memoised; the rebuilt diagram is reduced.
ArenaNodeId correct(FddArena& arena, const std::vector<ArenaNodeId>& roots,
                    std::size_t base, const std::vector<Decision>& agreed) {
  std::unordered_map<std::vector<ArenaNodeId>, ArenaNodeId, ArenaIdTupleHash>
      agreeing;
  std::size_t next = 0;
  const auto walk = [&](auto&& self,
                        const std::vector<ArenaNodeId>& nodes) -> ArenaNodeId {
    const ArenaNodeId first = nodes.front();
    if (arena.is_terminal(first)) {
      if (std::all_of(nodes.begin(), nodes.end(),
                      [&](ArenaNodeId n) { return n == first; })) {
        return first;
      }
      if (next >= agreed.size()) {
        throw std::logic_error("resolution: discrepancy walk out of sync");
      }
      return arena.terminal(agreed[next++]);
    }
    if (const auto it = agreeing.find(nodes); it != agreeing.end()) {
      return it->second;
    }
    const std::size_t before = next;
    const std::size_t f = arena.field(first);
    const std::size_t edge_count = arena.edges(first).size();
    std::vector<ArenaEdge> out;
    out.reserve(edge_count);
    std::vector<ArenaNodeId> children(nodes.size());
    for (std::size_t e = 0; e < edge_count; ++e) {
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        children[k] = arena.edges(nodes[k])[e].target;
      }
      out.push_back({arena.edges(nodes[base])[e].label, self(self, children)});
    }
    const ArenaNodeId result = arena.canonical(f, std::move(out));
    if (next == before) {
      agreeing.emplace(nodes, result);
    }
    return result;
  };
  const ArenaNodeId root = walk(walk, roots);
  if (next != agreed.size()) {
    throw std::logic_error("resolve_via_fdd: correction walk out of sync");
  }
  return root;
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
                       const ResolutionPlan& plan, std::size_t base_team) {
  return resolve_via_fdd(policies, plan, base_team, RunOptions{});
}

Policy resolve_via_fdd(const std::vector<Policy>& policies,
                       const ResolutionPlan& plan, std::size_t base_team,
                       const RunOptions& run) {
  if (base_team >= policies.size()) {
    throw std::invalid_argument("resolve_via_fdd: no such team");
  }
  require_teams(policies);
  std::vector<const Policy*> inputs;
  inputs.reserve(policies.size());
  for (const Policy& p : policies) {
    inputs.push_back(&p);
  }
  FddArena arena(policies.front().schema());
  std::vector<Discrepancy> discrepancies;
  const std::vector<ArenaNodeId> shaped =
      compare_policies(arena, inputs, run, discrepancies);
  Policy resolved =
      correct_and_generate(arena, shaped, discrepancies, plan, base_team,
                           run.obs);
  if (run.obs.metrics != nullptr) {
    absorb(*run.obs.metrics, arena.stats());
  }
  return resolved;
}

Policy correct_and_generate(FddArena& arena,
                            const std::vector<ArenaNodeId>& shaped,
                            const std::vector<Discrepancy>& discrepancies,
                            const ResolutionPlan& plan,
                            std::size_t base_team, const ObsOptions& obs) {
  const ArenaNodeId corrected =
      correct(arena, shaped, base_team, agreed_by_index(discrepancies, plan));
  PhaseSpan phase(obs, "generate");
  Policy resolved = arena.generate(corrected);
  if (obs.metrics != nullptr) {
    obs.metrics->counter("gen.rules_emitted").add(resolved.size());
  }
  return resolved;
}

Policy resolve_via_corrections(const std::vector<Policy>& policies,
                               const ResolutionPlan& plan,
                               std::size_t base_team) {
  return resolve_via_corrections(policies, plan, base_team, RunOptions{});
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
  const std::vector<Decision> agreed = agreed_by_index(discrepancies, plan);
  std::vector<Rule> rules;
  for (std::size_t i = 0; i < discrepancies.size(); ++i) {
    // Only the resolutions the base team got wrong need prepending; the
    // discrepancy predicates are pairwise disjoint (distinct decision
    // paths), so their relative order is immaterial.
    if (discrepancies[i].decisions[base_team] != agreed[i]) {
      rules.emplace_back(base.schema(), discrepancies[i].conjuncts,
                         agreed[i]);
    }
  }
  rules.insert(rules.end(), base.rules().begin(), base.rules().end());
  return remove_redundant(Policy(base.schema(), std::move(rules)), context);
}

}  // namespace dfw
