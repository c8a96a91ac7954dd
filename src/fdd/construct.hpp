// Construction algorithm (paper, Section 3.2, Fig. 7).
//
// Builds an ordered FDD equivalent to a first-match rule sequence by
// appending the rules one at a time to a partial FDD. Appending rule r at a
// node v labeled F splits v's outgoing edges against r's F-conjunct:
// values no existing edge covers get a fresh branch deciding r; values an
// edge fully covers recurse into the edge's subtree; values an edge partly
// covers split the edge (cloning the subtree) and recurse into one half.
// Earlier rules always win, which is exactly first-match semantics.

#pragma once

#include "fdd/fdd.hpp"
#include "fw/policy.hpp"
#include "obs/obs.hpp"
#include "rt/run_options.hpp"

namespace dfw {

/// Constructs an FDD equivalent to the policy. The result is ordered in
/// schema field order, consistent, and complete iff the policy is
/// comprehensive; validate() is the caller's tool for asserting that.
/// Complexity: O(n^d) paths worst case (Theorem 1), near-linear on
/// practically shaped rule sets (Section 7.4).
Fdd build_fdd(const Policy& policy);

/// Appends one more rule (lowest priority) to an existing partial FDD,
/// exposing the incremental step for construction traces and tests.
void append_rule(Fdd& fdd, const Rule& rule);

/// Builds a *partial* FDD from the first `count` rules only (Fig. 6's
/// intermediate diagrams). count >= 1.
Fdd build_partial_fdd(const Policy& policy, std::size_t count);

/// Knobs for the production construction entry point.
struct ConstructOptions {
  /// Shared execution knobs (rt/run_options.hpp). `run.context` governs
  /// the build: every node the arena materialises and every tree node the
  /// expansion builds is charged against the node budget, and the
  /// recursion takes amortized cancellation/deadline checkpoints. A breach
  /// throws dfw::Error; construction cannot return a partial diagram (a
  /// half-appended rule has no policy semantics), so callers wanting
  /// partial *reports* catch at the workflow layer. `run.obs` observes it:
  /// each build emits a "build_reduced_fdd" trace span and absorbs the
  /// arena's stats. `run.executor` is accepted for uniformity but unused —
  /// one diagram builds serially.
  RunOptions run = {};
};

/// The reduced FDD of the policy as a tree: build_diagram (fdd/arena.hpp)
/// expanded by to_fdd. Equal to reduce(build_fdd(policy)), without ever
/// materialising the unreduced intermediate tree, whose size — not the
/// reduced result's — is what blows up on large rule sets. For the
/// reference, the examples and the benches; production reads the
/// diagram itself. build_fdd remains the paper-faithful reference
/// implementation of Fig. 7.
Fdd build_reduced_fdd(const Policy& policy,
                      const ConstructOptions& options = {});

}  // namespace dfw
