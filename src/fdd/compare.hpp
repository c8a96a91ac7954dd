// Comparison algorithm (paper, Section 5).
//
// Two semi-isomorphic FDDs define companion rules: corresponding decision
// paths share the same predicate and may differ only in decision. A
// discrepancy is one companion pair with different decisions; the set of
// all of them manifests every functional difference between the two
// firewalls. We also provide the N-way generalisation (one record per
// predicate whose decisions across the N diagrams are not all equal) and a
// whole-pipeline convenience that goes from two rule sequences to
// discrepancies. The paper shapes the FDDs semi-isomorphic and walks them
// in lockstep; the tree functions below keep that as the reference. The
// production pipeline builds canonical diagrams and compares them by one
// product walk (FddArena::compare), which needs no shaping and yields the
// same records in the same order (construct -> validate -> compare).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fdd/fdd.hpp"
#include "fw/policy.hpp"
#include "obs/obs.hpp"
#include "rt/govern.hpp"
#include "rt/run_options.hpp"

namespace dfw {

/// One functional discrepancy: a predicate (one value set per schema
/// field) plus the decision each compared firewall assigns to packets
/// matching it. decisions.size() equals the number of compared firewalls,
/// in input order, and the decisions are not all equal.
struct Discrepancy {
  std::vector<IntervalSet> conjuncts;
  std::vector<Decision> decisions;

  friend bool operator==(const Discrepancy&, const Discrepancy&) = default;
};

/// Options threaded through the comparison pipeline.
struct CompareOptions {
  /// Shared execution knobs (rt/run_options.hpp). `run.executor`: with a
  /// pool, the policies' diagrams build concurrently, one task each, and
  /// comparison runs on the calling thread; results are identical for
  /// every executor. `run.context`: cancellation, deadline, and resource
  /// budgets observed throughout the pipeline — construction and import
  /// charge the nodes they intern and every phase takes amortized
  /// checkpoints. The vector-returning entry points let a breach
  /// propagate as dfw::Error; the *_governed entry points catch it and
  /// return the discrepancies found so far with complete=false. `run.obs`:
  /// the pipelines emit phase spans — "construct", "validate",
  /// "compare" — plus one "build_reduced_fdd" span and one executor
  /// "chunk" span per policy, record phase durations into the registry
  /// ("phase.<name>_ns"), and absorb every arena's ArenaStats into it.
  RunOptions run = {};
};

/// Result of a governed comparison. When `complete` is false the pipeline
/// was cut short by `status` (cancellation, deadline, or a budget breach)
/// and `discrepancies` holds only what was found before the cut — a
/// partial, clearly-marked report rather than a silent truncation.
struct CompareOutcome {
  std::vector<Discrepancy> discrepancies;
  bool complete = true;
  ErrorCode status = ErrorCode::kOk;
  std::string message;  ///< empty when complete; Error::what() otherwise
};

/// Compares two semi-isomorphic FDDs; requires semi_isomorphic(a, b).
/// Returns one Discrepancy per differing companion-rule pair, in decision-
/// path (depth-first) order. The paper's tree walk, serial and ungoverned:
/// the reference the arena pipeline below is tested against.
std::vector<Discrepancy> compare_fdds(const Fdd& a, const Fdd& b);

/// N-way comparison of pairwise semi-isomorphic FDDs (e.g. from
/// shape_all). A path is reported when not all N decisions agree.
std::vector<Discrepancy> compare_fdds_many(const std::vector<Fdd>& fdds);

/// Full pipeline on policies: construct, validate, compare. Policies must
/// be comprehensive and share a schema. With a pool executor the two
/// diagrams are constructed concurrently.
std::vector<Discrepancy> discrepancies(const Policy& a, const Policy& b,
                                       const CompareOptions& options = {});

/// N-way full pipeline using direct comparison (Section 7.3). With a pool
/// executor the N constructions run as independent pool tasks.
std::vector<Discrepancy> discrepancies_many(
    const std::vector<Policy>& policies, const CompareOptions& options = {});

/// Governed full pipeline: like discrepancies(), but a breach of
/// options.run.context (cancellation, deadline, node/label/rule budget) is
/// caught and reported as a partial CompareOutcome instead of propagating.
/// Non-governance errors (invalid inputs, internal faults) still throw.
CompareOutcome discrepancies_governed(const Policy& a, const Policy& b,
                                      const CompareOptions& options);

/// Governed N-way pipeline; see discrepancies_governed.
CompareOutcome discrepancies_many_governed(
    const std::vector<Policy>& policies, const CompareOptions& options);

/// Two firewalls are equivalent iff they have no functional discrepancy
/// (Section 3.1's f1 == f2 mapping equality): both are built canonically
/// in one arena, where equal functions share one root id. Throws like
/// discrepancies() on non-comprehensive or mismatched-schema input.
bool equivalent(const Policy& a, const Policy& b);

/// The number of *packets* covered by a discrepancy's predicate
/// (saturating): useful for ranking discrepancies by blast radius in
/// change-impact reports.
Value discrepancy_packet_count(const Discrepancy& d);

}  // namespace dfw
