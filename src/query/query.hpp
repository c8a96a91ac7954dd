// Firewall queries over FDDs.
//
// The paper positions per-team analysis tools as complements used during
// the design phase (Sections 1.4 and 9), citing the authors' companion
// work on firewall queries [20]: questions of the form "which packets with
// dport = 25 does this firewall accept?". An FDD answers such questions
// exactly: intersect the query's constraints with every decision path and
// collect the nonempty remainders with the requested decision. Queries walk
// the reduced diagram's hash-consed DAG (fdd/arena.hpp) path by path.

#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fdd/arena.hpp"
#include "fw/policy.hpp"

namespace dfw {

/// A query: optional constraint per field (unconstrained = whole domain)
/// plus an optional decision filter (nullopt = any decision).
struct Query {
  /// One entry per schema field; empty IntervalSet means unconstrained.
  std::vector<IntervalSet> constraints;
  std::optional<Decision> decision;

  /// An unconstrained query over `schema` ("describe the whole policy").
  static Query any(const Schema& schema);
};

/// One query answer: a traffic class (nonempty set per field) and the
/// decision the firewall maps it to.
struct QueryResult {
  std::vector<IntervalSet> conjuncts;
  Decision decision;
};

/// Runs a query against a diagram. Results are the intersections of the
/// query constraints with each decision path, in path order; together
/// they partition exactly the queried packets the diagram decides
/// (restricted to the decision filter when present). Walks of the diagram
/// take checkpoints on its arena's context.
std::vector<QueryResult> run_query(const ArenaDiagram& diagram,
                                   const Query& query);

/// run_query's walk without collecting: calls `visit(conjuncts,
/// decision)` on each result in order, the conjuncts valid during the
/// call only, and stops as soon as `visit` returns false. Returns whether
/// the walk ran to the end.
bool visit_query(
    const ArenaDiagram& diagram, const Query& query,
    const std::function<bool(const std::vector<IntervalSet>&, Decision)>&
        visit);

/// Convenience: builds the policy's diagram internally.
std::vector<QueryResult> run_query(const Policy& policy, const Query& query);

/// The decisions some packet actually reaches in the diagram, sorted
/// ascending and deduplicated. A decision declared in the DecisionSet but
/// absent here is unreachable — no packet is ever mapped to it (the
/// "no packet is ever logged" class of coverage gap).
std::vector<Decision> reachable_decisions(const ArenaDiagram& diagram);

/// Renders results in the rule-like report style.
std::string format_query_results(const Schema& schema,
                                 const DecisionSet& decisions,
                                 const std::vector<QueryResult>& results);

}  // namespace dfw
