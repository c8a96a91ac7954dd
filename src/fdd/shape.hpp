// Shaping algorithm (paper, Section 4, Figs. 10-11).
//
// Transforms ordered FDDs into pairwise semi-isomorphic FDDs without
// changing their semantics, using only the three semantics-preserving
// operations: node insertion, edge splitting, and subgraph replication.
// After shaping, corresponding decision paths have identical predicates, so
// the comparison algorithm can read off discrepancies terminal by terminal.
//
// We implement Fig. 11's worklist of shapable node pairs as structural
// recursion over the two trees (each node participates in exactly one
// shapable pair, so the order of processing is irrelevant), and extend the
// pairwise algorithm to N diagrams by iterated alignment (Section 7.3).

#pragma once

#include <vector>

#include "fdd/fdd.hpp"

namespace dfw {

/// Makes two FDDs semi-isomorphic in place. Both must be valid, complete,
/// ordered FDDs over the same schema (they need not be simple yet; shaping
/// simplifies them first). Postcondition: semi_isomorphic(a, b). Serial
/// and ungoverned: with compare_fdds it is the tree reference for the
/// production pipeline, whose product walk (FddArena::compare) reaches the
/// same discrepancies without shaping.
void shape_pair(Fdd& a, Fdd& b);

/// The paper-literal variant of shape_pair: first makes both diagrams
/// simple (single-interval edges, every field on every path), then runs
/// Fig. 10's edge-splitting sweep. Produces simple semi-isomorphic FDDs —
/// exactly the paper's Figs. 4-5 pipeline — at the cost of tearing shared
/// regions into per-interval edges. Kept for cross-validation and for the
/// shaping ablation benchmark; shape_pair is the reference path.
void shape_pair_simple(Fdd& a, Fdd& b);

/// Direct N-way extension (Section 7.3): makes every diagram in `fdds`
/// semi-isomorphic to every other. Requires fdds.size() >= 1.
///
/// Implementation: align fdds[0] with each other diagram in turn; aligning
/// with fdds[i] only ever *refines* fdds[0] (splits its edges / inserts
/// nodes), so re-aligning already-shaped diagrams against the final
/// fdds[0] converges after a second pass.
void shape_all(std::vector<Fdd>& fdds);

}  // namespace dfw
