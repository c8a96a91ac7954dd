#include "fdd/construct.hpp"

#include <stdexcept>

#include "fdd/arena.hpp"
#include "fdd/node.hpp"

namespace dfw {
namespace {

bool is_wildcard(const Schema& schema, const Rule& rule, std::size_t field) {
  return rule.conjunct(field) == schema.domain_set(field);
}

// Builds the decision path for conjuncts[field..d-1] -> decision: a chain
// of single-edge nodes ending in a terminal (the partial FDD of one rule).
// Wildcard fields are skipped; reduction would splice them out anyway.
std::unique_ptr<FddNode> build_path(const Schema& schema, const Rule& rule,
                                    std::size_t field) {
  if (field == schema.field_count()) {
    return FddNode::make_terminal(rule.decision());
  }
  if (is_wildcard(schema, rule, field)) {
    return build_path(schema, rule, field + 1);
  }
  auto node = FddNode::make_internal(field);
  node->edges.emplace_back(rule.conjunct(field),
                           build_path(schema, rule, field + 1));
  return node;
}

// Node insertion: hoist `slot` under a full-domain node labeled `field`,
// so that a rule constraining a spliced-out (or never-materialised) field
// has a node to split. Semantics preserving.
void materialize(const Schema& schema, std::unique_ptr<FddNode>& slot,
                 std::size_t field) {
  auto inserted = FddNode::make_internal(field);
  inserted->edges.emplace_back(IntervalSet(schema.domain(field)),
                               std::move(slot));
  slot = std::move(inserted);
}

// APPEND(v, (F_from in S_from ^ ... ^ F_d in S_d) -> <decision>) of Fig. 7,
// generalised to diagrams whose paths may skip fields: a skipped field the
// rule constrains is first re-inserted with a full-domain edge.
void append(const Schema& schema, std::unique_ptr<FddNode>& slot,
            const Rule& rule, std::size_t from_field) {
  // A packet reaching a terminal was decided by an earlier (higher
  // priority) rule; under first-match the appended rule never applies
  // there, whatever its remaining conjuncts say.
  const std::size_t label = slot->is_terminal() ? schema.field_count()
                                                : slot->field;
  for (std::size_t g = from_field; g < label; ++g) {
    if (!is_wildcard(schema, rule, g)) {
      materialize(schema, slot, g);
      break;
    }
  }
  FddNode& v = *slot;
  if (v.is_terminal()) {
    return;
  }
  const IntervalSet& s = rule.conjunct(v.field);

  // Values of S not covered by any existing edge get a brand-new branch
  // that decides the new rule.
  const IntervalSet uncovered = s.subtract(v.edge_label_union());
  if (!uncovered.empty()) {
    v.edges.emplace_back(uncovered, build_path(schema, rule, v.field + 1));
  }

  // Fold S into each pre-existing edge. The new edge added above is
  // disjoint from the remainder of S and must not be revisited.
  const std::size_t original_edges =
      v.edges.size() - (uncovered.empty() ? 0 : 1);
  for (std::size_t i = 0; i < original_edges; ++i) {
    const IntervalSet common = v.edges[i].label.intersect(s);
    if (common.empty()) {
      continue;  // case (1): the rule does not constrain this branch
    }
    if (common == v.edges[i].label) {
      // case (2): edge fully inside S — recurse.
      append(schema, v.edges[i].target, rule, v.field + 1);
      continue;
    }
    // case (3): split e into e' (outside S, keeps the old subtree) and
    // e'' (inside S, gets a copy that the rule is appended to).
    const IntervalSet outside = v.edges[i].label.subtract(common);
    std::unique_ptr<FddNode> copy = v.edges[i].target->clone();
    v.edges[i].label = outside;
    v.edges.emplace_back(common, std::move(copy));
    append(schema, v.edges.back().target, rule, v.field + 1);
  }
}

}  // namespace

void append_rule(Fdd& fdd, const Rule& rule) {
  if (rule.conjuncts().size() != fdd.schema().field_count()) {
    throw std::invalid_argument("append_rule: rule arity mismatch");
  }
  append(fdd.schema(), fdd.root_slot(), rule, 0);
}

Fdd build_partial_fdd(const Policy& policy, std::size_t count) {
  if (count == 0 || count > policy.size()) {
    throw std::invalid_argument("build_partial_fdd: count out of range");
  }
  // The partial FDD of the first rule is its lone decision path (Fig. 6);
  // each further rule is appended at the root.
  Fdd fdd(policy.schema(), build_path(policy.schema(), policy.rule(0), 0));
  for (std::size_t i = 1; i < count; ++i) {
    append(policy.schema(), fdd.root_slot(), policy.rule(i), 0);
  }
  return fdd;
}

Fdd build_fdd(const Policy& policy) {
  return build_partial_fdd(policy, policy.size());
}

Fdd build_reduced_fdd(const Policy& policy,
                      const ConstructOptions& options) {
  const ArenaDiagram diagram = build_diagram(policy, options.run);
  return diagram.arena->to_fdd(diagram.root);
}

}  // namespace dfw
