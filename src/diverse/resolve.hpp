// Discrepancy resolution (paper, Section 6).
//
// After the teams agree on the correct decision for every discrepancy, a
// final firewall must be produced. Method 1 corrects one team's FDD and
// regenerates rules from it; method 2 prepends the corrections a team got
// wrong to that team's original firewall and removes redundancy. Both
// yield firewalls equivalent to the resolution, by construction.
//
// The paper's method 1 corrects a shaped FDD at its discrepant terminals.
// On canonical diagrams that is method 2's prepend done on the diagram:
// the corrections a team got wrong, overlaid on its diagram by first
// match. The result is the canonical diagram of the resolved function, so
// it is one id, and generates one policy, whichever team it starts from.

#pragma once

#include <cstddef>
#include <vector>

#include "fdd/arena.hpp"
#include "fdd/compare.hpp"
#include "fw/policy.hpp"

namespace dfw {

/// One resolved discrepancy: the predicate (by index into the discrepancy
/// list) plus the decision the teams agreed on.
struct Resolution {
  std::size_t discrepancy_index;
  Decision agreed;
};

/// A resolution for every discrepancy, in any order; each index must be
/// resolved exactly once.
using ResolutionPlan = std::vector<Resolution>;

/// Convenience: resolve discrepancy i by adopting team `winner`'s decision.
Resolution adopt(std::size_t discrepancy_index, const Discrepancy& d,
                 std::size_t winner_team);

/// Builds a plan by majority vote over the teams' decisions — the
/// N-version-programming decision-selection mechanism the paper's method
/// is inspired by (Section 9). Ties go to `arbiter_team`'s decision.
/// Intended for N >= 3 teams; with N = 2 every discrepancy is a tie and
/// the arbiter decides everything.
ResolutionPlan plan_by_majority(const std::vector<Discrepancy>& discrepancies,
                                std::size_t arbiter_team = 0);

/// Method 1 (Section 6.1): correct a team's FDD at every discrepancy and
/// generate a compact policy from it. `policies` are the original team
/// firewalls (>= 2, same schema, comprehensive); `plan` must cover all
/// their discrepancies. Runs in the comparison pipeline's arena
/// (fdd/arena.hpp): the correction is an overlay there, and generation
/// reads the DAG. It takes no base team: the result is the same policy
/// from any team. `run.executor` builds the teams' diagrams concurrently,
/// `run.context` governs the whole resolution, and `run.obs` sees the
/// comparison pipeline's spans and arena stats plus the regeneration's
/// "generate" span and "gen.rules_emitted" count. The result is identical
/// for every executor.
Policy resolve_via_fdd(const std::vector<Policy>& policies,
                       const ResolutionPlan& plan,
                       const RunOptions& run = {});

/// Method 1's tail, on a comparison already run: `roots` and
/// `discrepancies` as compare_diagrams() left them in `arena`. Picks the
/// team the plan overrules least (the lowest index on a tie), overlays
/// the corrections it got wrong on its diagram there, and generates the
/// policy from the result under a "generate" phase span, counting
/// "gen.rules_emitted". resolve_via_fdd() and DiverseDesign::resolve()
/// both end here.
Policy correct_and_generate(FddArena& arena,
                            const std::vector<ArenaNodeId>& roots,
                            const std::vector<Discrepancy>& discrepancies,
                            const ResolutionPlan& plan, const ObsOptions& obs);

/// Method 2 (Section 6.2): take team `base_team`'s original firewall,
/// prepend (in plan order) the resolved rules on which that team's decision
/// was wrong, and remove redundant rules from the result. `run` as for
/// resolve_via_fdd.
Policy resolve_via_corrections(const std::vector<Policy>& policies,
                               const ResolutionPlan& plan,
                               std::size_t base_team,
                               const RunOptions& run = {});

/// Method 2's tail over a given discrepancy list, in which `base` is
/// team `base_team`: prepends the corrections `base` got wrong and removes
/// redundant rules, governed by `context` (borrowed, nullable).
/// resolve_via_corrections() and DiverseDesign::resolve() both end here.
Policy prepend_and_trim(const Policy& base, std::size_t base_team,
                        const std::vector<Discrepancy>& discrepancies,
                        const ResolutionPlan& plan, RunContext* context);

}  // namespace dfw
