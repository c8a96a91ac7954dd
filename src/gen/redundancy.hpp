// Redundant-rule detection and removal (the paper's ref [19], "Complete
// Redundancy Detection in Firewalls"), used by discrepancy-resolution
// method 2 (Section 6.2).
//
// A rule is redundant iff removing it does not change the firewall's
// mapping from packets to decisions. We decide that definitionally with a
// prefix-root oracle in one hash-consed FddArena per policy. The arena
// holds the canonical prefix diagrams p_0..p_n, p_k built from rules
// [0, k) by build_reduced's own append loop. The candidate for rule i
// starts at p_i and has rules i+1..n-1 appended one at a time; canonical
// roots are equal iff the (partial) functions are, so each test is an id
// comparison. Rule i is redundant as soon as the candidate with rules up
// to j equals p_{j+1} — the rest of the sequence can no longer tell the
// two apart — or else iff it ends equal to p_n. Each rule keeps one
// append memo (AppendMemo) across all candidates, so a suffix rule is
// appended once per subdiagram the candidates do not share. When a test
// ends, the arena rolls back what its candidate added (FddArena::rollback),
// so the oracle holds the prefixes and one candidate at a time.
// remove_redundant tests greedily back to front against the shrinking
// policy, so the final sequence has no redundant rule left (a maximal
// removal set).
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
/// removed greedily (back to front, re-testing after each removal) until
/// none remains. A non-comprehensive policy comes back unchanged.
Policy remove_redundant(const Policy& policy);

}  // namespace dfw
