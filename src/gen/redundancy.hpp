// Redundant-rule detection and removal (the paper's ref [19], "Complete
// Redundancy Detection in Firewalls"), used by discrepancy-resolution
// method 2 (Section 6.2).
//
// A rule is redundant iff removing it does not change the firewall's
// mapping from packets to decisions. We decide that definitionally in one
// hash-consed FddArena per policy, where canonical roots are equal iff the
// (partial) functions are, so each test is an id comparison. Two kinds of
// root meet there:
//
//   * the prefix roots p_0..p_n, p_k built from rules [0, k) by
//     build_reduced's own append loop;
//   * the suffix roots, S_k for rules [k, n), grown back to front as
//     S_k = overlay(path(r_k), S_{k+1}), path(r) being the rule's lone
//     decision path and S_n the empty diagram.
//
// Dropping rule k leaves rules [0, k) in front of rules (k, n), a sequence
// whose diagram is FddArena::overlay(p_k, S_{k+1}) (Hazelhurst's reading
// of an access list as nested if-then-else). So rule k is redundant iff
// that overlay is p_n, which holds at once when rule k is dead
// (p_{k+1} == p_k), and every entry point is one back-to-front pass.
// remove_redundant makes the same pass, leaving out of the suffix each
// rule it drops. Because p_k does not change when a later rule goes, each
// test is against the current sequence; and dropping an earlier rule never
// makes a kept one redundant (the packet that needed it still first-matches
// it), so the one pass leaves no redundant rule (a maximal removal set).
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
