#include "query/query.hpp"

#include <algorithm>
#include <stdexcept>

#include "fw/format.hpp"
#include "rt/govern.hpp"

namespace dfw {

Query Query::any(const Schema& schema) {
  Query q;
  q.constraints.resize(schema.field_count());
  return q;
}

bool visit_query(
    const ArenaDiagram& diagram, const Query& query,
    const std::function<bool(const std::vector<IntervalSet>&, Decision)>&
        visit) {
  const FddArena& arena = *diagram.arena;
  const Schema& schema = arena.schema();
  if (query.constraints.size() != schema.field_count()) {
    throw std::invalid_argument("run_query: constraint arity mismatch");
  }
  for (std::size_t f = 0; f < schema.field_count(); ++f) {
    if (!query.constraints[f].empty() &&
        !IntervalSet(schema.domain(f)).contains(query.constraints[f])) {
      throw std::invalid_argument("run_query: constraint exceeds domain of " +
                                  schema.field(f).name);
    }
  }
  // Constraint per field: the query's, or the whole domain. Fields a path
  // skips keep it in that path's result.
  std::vector<IntervalSet> wanted;
  wanted.reserve(schema.field_count());
  for (std::size_t f = 0; f < schema.field_count(); ++f) {
    wanted.push_back(query.constraints[f].empty()
                         ? IntervalSet(schema.domain(f))
                         : query.constraints[f]);
  }
  std::vector<IntervalSet> conjuncts = wanted;
  // Results are per path, so a shared subdiagram is walked once per path
  // that reaches it, as the tree would be. A visit returns false once the
  // visitor has stopped the walk.
  const auto walk = [&](auto&& self, ArenaNodeId id) -> bool {
    govern::checkpoint(arena.context());
    if (arena.is_terminal(id)) {
      return (query.decision && arena.decision(id) != *query.decision) ||
             visit(conjuncts, arena.decision(id));
    }
    const std::size_t f = arena.field(id);
    for (const ArenaEdge& e : arena.edges(id)) {
      IntervalSet common = arena.label(e.label).intersect(wanted[f]);
      if (common.empty()) {
        continue;  // the query cannot reach this branch
      }
      conjuncts[f] = std::move(common);
      if (!self(self, e.target)) {
        return false;
      }
    }
    conjuncts[f] = wanted[f];
    return true;
  };
  return walk(walk, diagram.root);
}

std::vector<QueryResult> run_query(const ArenaDiagram& diagram,
                                   const Query& query) {
  std::vector<QueryResult> out;
  visit_query(diagram, query,
              [&](const std::vector<IntervalSet>& conjuncts, Decision d) {
                out.push_back({conjuncts, d});
                return true;
              });
  return out;
}

std::vector<QueryResult> run_query(const Policy& policy, const Query& query) {
  return run_query(build_diagram(policy, {}), query);
}

std::vector<Decision> reachable_decisions(const ArenaDiagram& diagram) {
  const FddArena& arena = *diagram.arena;
  std::vector<Decision> out;
  std::vector<char> seen(arena.unique_node_count(), 0);
  const auto collect = [&](auto&& self, ArenaNodeId id) -> void {
    if (seen[id] != 0) {
      return;
    }
    seen[id] = 1;
    if (arena.is_terminal(id)) {
      out.push_back(arena.decision(id));
      return;
    }
    for (const ArenaEdge& e : arena.edges(id)) {
      self(self, e.target);
    }
  };
  collect(collect, diagram.root);
  std::sort(out.begin(), out.end());
  return out;
}

std::string format_query_results(const Schema& schema,
                                 const DecisionSet& decisions,
                                 const std::vector<QueryResult>& results) {
  if (results.empty()) {
    return "no packets match the query\n";
  }
  std::string out;
  for (const QueryResult& r : results) {
    bool any_field = false;
    for (std::size_t f = 0; f < schema.field_count(); ++f) {
      if (r.conjuncts[f] == IntervalSet(schema.domain(f))) {
        continue;
      }
      if (any_field) {
        out += " ^ ";
      }
      out += schema.field(f).name + " in " +
             format_spec(schema.field(f), r.conjuncts[f]);
      any_field = true;
    }
    if (!any_field) {
      out += "all packets";
    }
    out += " -> " + decisions.name(r.decision) + "\n";
  }
  return out;
}

}  // namespace dfw
