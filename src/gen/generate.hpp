// Firewall generation from an FDD (the paper's ref [12], "Structured
// Firewall Design"), used by discrepancy-resolution method 1 (Section 6.1).
//
// The generator turns an FDD back into a first-match rule sequence. At each
// node one outgoing edge is elected the *default* branch: rules for the
// other branches are emitted first with explicit field constraints, then
// the default branch's rules follow with the field left unconstrained —
// first-match shadowing makes that sound, and it is what produces compact,
// human-style rule lists ending in a catch-all. Electing the branch with
// the largest generated-rule count as default minimises the output size
// greedily.

#pragma once

#include "fdd/fdd.hpp"
#include "fw/policy.hpp"
#include "obs/obs.hpp"
#include "rt/run_options.hpp"

namespace dfw {

/// Knobs for the generation entry points, in the same options-struct idiom
/// as ConstructOptions/CompareOptions.
struct GenerateOptions {
  /// Shared execution knobs (rt/run_options.hpp). `run.context` governs
  /// the generation: every emitted rule is charged against the rule budget
  /// (the rule-blowup guard — path enumeration over a shared diagram can
  /// be exponentially larger than the diagram), interned arena nodes
  /// against the node budget, and the recursion takes amortized
  /// cancellation/deadline checkpoints. A breach throws dfw::Error; a
  /// half-generated policy has no first-match semantics, so there is no
  /// partial-policy form. `run.obs`: generation runs under a "generate"
  /// phase span/histogram and counts emitted rules into
  /// "gen.rules_emitted". `run.executor` is accepted for uniformity but
  /// unused — generation is a single serial walk.
  RunOptions run = {};
};

/// Generates a comprehensive policy equivalent to the FDD. Requires a
/// valid, complete FDD. The FDD is reduced first, through the arena's
/// canonical interning (FddArena::generate).
Policy generate_policy(const Fdd& fdd, const GenerateOptions& options = {});

/// Alternative generation for deployment: one rule per decision path whose
/// decision differs from `fallback`, followed by a catch-all deciding
/// `fallback`. The emitted non-default rules are pairwise disjoint (they
/// are distinct FDD paths), so their order is immaterial — the natural
/// "carve-outs over a default" shape vendor configurations use, and the
/// shape the adapters' emitters can always express when each carve-out
/// pins its protocol. Usually longer than generate_policy's output but
/// free of "negative space" rules.
Policy generate_disjoint_policy(const Fdd& fdd, Decision fallback,
                                const GenerateOptions& options = {});

}  // namespace dfw
