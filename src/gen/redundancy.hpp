// Redundant-rule detection and removal (the paper's ref [19], "Complete
// Redundancy Detection in Firewalls"), used by discrepancy-resolution
// method 2 (Section 6.2).
//
// A rule is redundant iff removing it does not change the firewall's
// mapping from packets to decisions. Each entry point is a thin wrapper
// over a PolicyAnalysis (analysis/policy_analysis.hpp) in a fresh arena,
// which decides that definitionally on canonical roots: rule k is
// redundant iff the prefix roots before it overlaid on the suffix roots
// after it would give the whole policy's root. It asks that without
// building the overlay: the suffix roots with and without the rule must
// decide alike wherever the prefix before it leaves a packet undecided,
// which a read-only walk (FddArena::agree_outside) decides. Every entry
// point is one back-to-front pass. remove_redundant makes the same pass,
// leaving out of the suffix each rule it drops, which leaves no redundant
// rule (a maximal removal set).
//
// All three are defined for comprehensive policies: a policy that lets
// some packet fall through has no redundant rule here (is_redundant is
// false, redundant_rules empty, remove_redundant returns it unchanged) —
// its gap is the real finding.

#pragma once

#include <cstddef>
#include <vector>

#include "fw/policy.hpp"

namespace dfw {

class RunContext;

/// True iff rules()[index] is redundant in `policy` — removing it leaves
/// the packet-to-decision mapping unchanged. Requires index < size();
/// false when the policy is not comprehensive. `context` (borrowed,
/// nullable) governs the oracle's arena: every node is charged against
/// its node budget, and a breach throws dfw::Error.
bool is_redundant(const Policy& policy, std::size_t index,
                  RunContext* context = nullptr);

/// Indices (ascending) of rules redundant *in the original policy*, each
/// tested independently. Note removing several at once is not always
/// sound; use remove_redundant for that. Empty when the policy is not
/// comprehensive. Same `context` contract as is_redundant.
std::vector<std::size_t> redundant_rules(const Policy& policy,
                                         RunContext* context = nullptr);

/// Returns an equivalent policy from which redundant rules have been
/// removed greedily, back to front, each tested against the rules still
/// kept, until none remains. A non-comprehensive policy comes back
/// unchanged. Same `context` contract as is_redundant, plus a checkpoint
/// per rule.
Policy remove_redundant(const Policy& policy, RunContext* context = nullptr);

}  // namespace dfw
