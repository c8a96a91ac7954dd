// Semantics-preserving policy simplification (the static-analysis pass of
// Diekmann et al., "Semantics-Preserving Simplification of Real-World
// Firewall Rule Sets", recast over this library's rule model).
//
// Real rule sets accrete garbage: rules jointly masked by the rules above
// them, adjacent rules that are one rule written as two, same-decision
// runs full of subsumed special cases. simplify_policy rewrites a policy
// into a smaller one with three transforms, each individually
// order-of-evaluation sound (they preserve the policy's packet-to-decision
// mapping, including the fall-through set of non-comprehensive policies):
//
//   dead elimination   rules no packet ever first-matches, detected
//                      exactly via canonical prefix roots
//                      (PolicyAnalysis::dead — the same machinery behind
//                      dfw-lint's dead-rules pass)
//   adjacent merge     neighbouring rules with one decision that differ
//                      in exactly one field fold into one rule whose
//                      differing conjunct is the union
//   run coalescing     within a maximal run of consecutive same-decision
//                      rules, order is immaterial; rules subsumed by a
//                      run sibling are dropped and non-adjacent
//                      single-field pairs are merged
//
// The pass iterates the transforms to a fixpoint, each round reading its
// dead rules from a PolicyAnalysis (analysis/policy_analysis.hpp) of the
// round's policy. All rounds share one arena and its prefix-extension
// memo, so a round rebuilds only the prefixes the last round's edits
// changed. Then it *proves* the result: in that arena the original's and
// the result's canonical roots already exist, and their id equality IS
// semantic equality — an id comparison that builds nothing, backed up by
// an explicit shape + compare walk reporting zero discrepancies (O(1) on
// equal ids). A policy is never returned unproven: if the proof is
// refuted (an internal bug) or cut short by governance, the ORIGINAL
// policy comes back and the report says so.

#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "analysis/policy_analysis.hpp"
#include "fw/policy.hpp"
#include "rt/govern.hpp"
#include "rt/run_options.hpp"

namespace dfw {

/// How the equivalence proof of a simplification ended.
enum class ProofStatus {
  kProven,   ///< canonical arena roots identical; compare walk agrees
  kSkipped,  ///< no transform changed the policy: nothing to prove
  kAborted,  ///< governance breach or injected fault; original policy
             ///< returned
  kRefuted,  ///< proof found a discrepancy (internal bug); original
             ///< policy returned
};

/// Stable identifier string, e.g. "proven".
const char* to_string(ProofStatus status);

/// Per-transform application counts.
struct SimplifyStats {
  std::size_t dead_eliminated = 0;   ///< rules removed by dead elimination
  std::size_t adjacent_merged = 0;   ///< merges of neighbouring rule pairs
  std::size_t run_subsumed = 0;      ///< in-run subsumption removals
  std::size_t run_merged = 0;        ///< in-run non-adjacent merges
};

/// What simplify_policy did, machine-readable (the fleet report embeds
/// one per device).
struct SimplifyReport {
  std::size_t rules_before = 0;
  std::size_t rules_after = 0;
  std::size_t passes = 0;  ///< fixpoint rounds that ran (0 = untouched)
  SimplifyStats stats;
  ProofStatus proof = ProofStatus::kSkipped;
  /// Number of discrepancies the proof's compare walk reported. Proven
  /// simplifications always show zero; nonzero means kRefuted.
  std::size_t proof_discrepancies = 0;
  bool complete = true;
  ErrorCode status = ErrorCode::kOk;
  std::string message;  ///< empty when complete; Error::what() otherwise
};

/// The outcome: the (possibly) simplified policy plus the report. When
/// the report is not complete, or the proof was refuted, `policy` is the
/// unmodified input.
struct SimplifyOutcome {
  Policy policy;
  SimplifyReport report;
  /// The analysis of `policy` in the rounds' arena, for a caller to read
  /// on (fleet hands it to lint); none when the report is not complete or
  /// the proof was refuted. Its arena keeps run.context and run.faults
  /// attached.
  std::optional<PolicyAnalysis> analysis;
};

/// Simplifies `policy` (see the header comment for the transform set and
/// the proof contract). Works on non-comprehensive policies too — every
/// transform preserves the fall-through set, and the proof degrades to
/// canonical-root identity (which is exact for partial functions as
/// well).
///
/// `run.context` governs the whole pass: the shared arena charges every
/// interned node and label byte, and the prefix chains and transform
/// scans take amortized checkpoints. A breach aborts the pass — the
/// outcome carries the ORIGINAL policy, complete = false, kAborted and the
/// breach's code. `run.obs`: the pass runs under a "simplify" phase span
/// with one "prefix_roots" subspan per round's chain and a
/// "simplify.prove" subspan, and counts rules removed into
/// "simplify.rules_removed". `run.faults`: the shared arena hits
/// fdd.arena.alloc, and a fire aborts the pass like a breach.
/// `run.executor` is unused — one policy simplifies serially (fleets
/// parallelize across policies, tools/dfw_fleet). Governance breaches and
/// injected faults are absorbed into the report; other exceptions
/// propagate.
SimplifyOutcome simplify_policy(const Policy& policy,
                                const RunOptions& run = {});

}  // namespace dfw
