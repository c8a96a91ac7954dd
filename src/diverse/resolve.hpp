// Discrepancy resolution (paper, Section 6).
//
// After the teams agree on the correct decision for every discrepancy, a
// final firewall must be produced. Method 1 corrects one of the shaped
// FDDs and regenerates rules from it; method 2 prepends the corrections a
// team got wrong to that team's original firewall and removes redundancy.
// Both yield firewalls equivalent to the resolution, by construction.

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

/// Method 1 (Section 6.1): correct the shaped FDD of team `base_team` at
/// every discrepant terminal and generate a compact policy from it.
/// `policies` are the original team firewalls (>= 2, same schema,
/// comprehensive); `plan` must cover all their discrepancies. Runs in the
/// comparison pipeline's arena (fdd/arena.hpp): the correction rebuilds
/// the shaped base diagram canonically, and generation reads the DAG.
Policy resolve_via_fdd(const std::vector<Policy>& policies,
                       const ResolutionPlan& plan, std::size_t base_team = 0);

/// Same, on the given execution knobs: `run.executor` builds the teams'
/// diagrams concurrently, `run.context` governs the whole resolution, and
/// `run.obs` sees the comparison pipeline's spans and arena stats plus the
/// regeneration's "generate" span and "gen.rules_emitted" count. The
/// result is identical for every executor.
Policy resolve_via_fdd(const std::vector<Policy>& policies,
                       const ResolutionPlan& plan, std::size_t base_team,
                       const RunOptions& run);

/// Method 1's tail, on a comparison already run: `shaped` and
/// `discrepancies` as compare_diagrams() left them in `arena`. Corrects
/// team `base_team`'s shaped diagram there and generates the policy from
/// it under a "generate" phase span, counting "gen.rules_emitted".
/// resolve_via_fdd() and DiverseDesign::resolve() both end here.
Policy correct_and_generate(FddArena& arena,
                            const std::vector<ArenaNodeId>& shaped,
                            const std::vector<Discrepancy>& discrepancies,
                            const ResolutionPlan& plan,
                            std::size_t base_team, const ObsOptions& obs);

/// Method 2 (Section 6.2): take team `base_team`'s original firewall,
/// prepend (in plan order) the resolved rules on which that team's decision
/// was wrong, and remove redundant rules from the result.
Policy resolve_via_corrections(const std::vector<Policy>& policies,
                               const ResolutionPlan& plan,
                               std::size_t base_team);

/// Same, on the given execution knobs; see resolve_via_fdd.
Policy resolve_via_corrections(const std::vector<Policy>& policies,
                               const ResolutionPlan& plan,
                               std::size_t base_team, const RunOptions& run);

/// Method 2's tail over a given discrepancy list, in which `base` is
/// team `base_team`: prepends the corrections `base` got wrong and removes
/// redundant rules, governed by `context` (borrowed, nullable).
/// resolve_via_corrections() and DiverseDesign::resolve() both end here.
Policy prepend_and_trim(const Policy& base, std::size_t base_team,
                        const std::vector<Discrepancy>& discrepancies,
                        const ResolutionPlan& plan, RunContext* context);

}  // namespace dfw
