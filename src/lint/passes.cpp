// The builtin lint passes. Check-id naming scheme (docs/lint.md):
//
//   adapter.<frontend>.<finding>  source-level, collected while parsing
//   policy.<finding>              semantic, about the whole rule sequence
//   rule.<finding>                local to one or two concrete rules
//   property.<finding>            declarative property checks
//   lint.<finding>                about the lint run itself
//
// Error severity is reserved for findings the engine can *demonstrate*:
// every error-severity semantic diagnostic carries a witness traffic
// class, computed through the FDD query engine, that reproduces the
// misbehavior. Absence findings ("no packet ever ...", "removable") are
// warnings; compaction opportunities are notes.

#include "lint/passes.hpp"

#include <algorithm>
#include <string>

#include "analysis/anomaly.hpp"
#include "fw/format.hpp"
#include "query/query.hpp"

namespace dfw::lint {
namespace {

std::string rule_ref(std::size_t index) {
  std::string ref = "r";
  ref += std::to_string(index + 1);
  return ref;
}

std::string rule_text(const PassState& state, std::size_t index) {
  return format_rule(state.input.policy->schema(), *state.input.decisions,
                     state.input.policy->rule(index));
}

std::size_t source_line(const PassState& state, std::size_t rule) {
  return rule < state.input.rule_lines.size() ? state.input.rule_lines[rule]
                                              : 0;
}

// The exact witness for a rule-anchored semantic finding: run the query
// engine restricted to the rule's predicate and take the first resulting
// traffic class — preferring one whose observed decision differs from the
// rule's own, which is the class that demonstrates the packets are *not*
// getting this rule's treatment. Falls back to the bare predicate when
// the (partial) diagram covers none of it.
Witness predicate_witness(PassState& state, const Rule& rule) {
  Query q;
  q.constraints = rule.conjuncts();
  const std::vector<QueryResult> results = run_query(state.diagram(), q);
  Witness w;
  if (results.empty()) {
    w.conjuncts = rule.conjuncts();
    return w;
  }
  const QueryResult* pick = &results.front();
  for (const QueryResult& r : results) {
    if (r.decision != rule.decision()) {
      pick = &r;
      break;
    }
  }
  w.conjuncts = pick->conjuncts;
  w.observed = pick->decision;
  return w;
}

// --- pass: adapter ---------------------------------------------------------
// Forwards the notes an adapter frontend collected while parsing. These
// are source-level (line-anchored) findings about accepted-yet-suspicious
// input; the adapters themselves stay behavior-preserving.

void pass_adapter(PassState& state, std::vector<Diagnostic>& out) {
  for (const AdapterNote& note : state.input.adapter_notes) {
    Diagnostic d;
    d.check_id = note.check_id;
    d.severity = Severity::kWarning;
    d.rule = note.rule == AdapterNote::kNoRule ? kNoRule : note.rule;
    d.line = note.line;
    d.message = note.message;
    out.push_back(std::move(d));
  }
}

// --- pass: syntax-pairs ----------------------------------------------------
// The Al-Shaer & Hamed rule-pair taxonomy via the (parallelizable) pair
// scan. Shadowing is an error with a query-engine witness; the other
// kinds are order-sensitivity warnings / style notes.

void pass_syntax_pairs(PassState& state, std::vector<Diagnostic>& out) {
  AnomalyOptions scan;
  scan.run.executor = state.options.run.executor;
  scan.run.context = state.options.run.context;
  scan.run.obs = state.options.run.obs;
  for (const Anomaly& a : find_anomalies(*state.input.policy, scan)) {
    Diagnostic d;
    d.rule = a.second;
    d.related_rule = a.first;
    d.line = source_line(state, a.second);
    switch (a.kind) {
      case AnomalyKind::kShadowing:
        d.check_id = "policy.shadowed-rule";
        d.severity = Severity::kError;
        d.message = rule_ref(a.second) + " (" + rule_text(state, a.second) +
                    ") is shadowed by " + rule_ref(a.first) + " (" +
                    rule_text(state, a.first) +
                    "): it can never first-match with its own decision";
        d.witness = predicate_witness(state,
                                      state.input.policy->rule(a.second));
        break;
      case AnomalyKind::kRedundancyPair:
        d.check_id = "policy.redundant-pair";
        d.severity = Severity::kWarning;
        d.message = rule_ref(a.second) + " matches a subset of " +
                    rule_ref(a.first) +
                    " with the same decision; it looks removable (confirm "
                    "with the redundancy pass)";
        break;
      case AnomalyKind::kGeneralization:
        d.check_id = "policy.generalization";
        d.severity = Severity::kNote;
        d.message = rule_ref(a.second) + " generalizes " + rule_ref(a.first) +
                    " with a different decision; legitimate fallback "
                    "shape, but order-dependent";
        break;
      case AnomalyKind::kCorrelation: {
        d.check_id = "policy.correlation";
        d.severity = Severity::kWarning;
        d.message = rule_ref(a.second) + " and " + rule_ref(a.first) +
                    " overlap without nesting and decide differently; "
                    "their relative order changes the overlap's fate";
        // Witness: the overlap region, as the query engine sees it.
        const Rule& earlier = state.input.policy->rule(a.first);
        const Rule& later = state.input.policy->rule(a.second);
        std::vector<IntervalSet> overlap;
        overlap.reserve(later.conjuncts().size());
        for (std::size_t f = 0; f < later.conjuncts().size(); ++f) {
          overlap.push_back(later.conjunct(f).intersect(earlier.conjunct(f)));
        }
        Query q;
        q.constraints = std::move(overlap);
        const std::vector<QueryResult> classes =
            run_query(state.diagram(), q);
        if (!classes.empty()) {
          Witness w;
          w.conjuncts = classes.front().conjuncts;
          w.observed = classes.front().decision;
          d.witness = std::move(w);
        }
        break;
      }
    }
    out.push_back(std::move(d));
  }
}

// --- pass: coverage --------------------------------------------------------
// Whole-policy coverage gaps: packets no rule decides, and decisions no
// packet reaches ("no packet is ever logged").

// Finds the first traffic class, in path order, that the (partial)
// diagram does not cover; conjuncts must come in sized to the schema with
// full domains. The walk enters incomplete nodes only: a complete
// subdiagram has no gap, and an incomplete node whose labels cover its
// field has an incomplete child.
bool find_uncovered(const ArenaDiagram& diagram,
                    std::vector<IntervalSet>& conjuncts) {
  const FddArena& arena = *diagram.arena;
  const Schema& schema = arena.schema();
  const auto visit = [&](auto&& self, ArenaNodeId id) -> bool {
    const std::size_t f = arena.field(id);
    IntervalSet labels;
    for (const ArenaEdge& e : arena.edges(id)) {
      labels = labels.unite(arena.label(e.label));
    }
    const IntervalSet uncovered = schema.domain_set(f).subtract(labels);
    if (!uncovered.empty()) {
      conjuncts[f] = uncovered;
      return true;
    }
    for (const ArenaEdge& e : arena.edges(id)) {
      if (arena.is_complete(e.target)) {
        continue;
      }
      conjuncts[f] = arena.label(e.label);
      if (self(self, e.target)) {
        return true;
      }
    }
    conjuncts[f] = schema.domain_set(f);
    return false;
  };
  return !arena.is_complete(diagram.root) && visit(visit, diagram.root);
}

void pass_coverage(PassState& state, std::vector<Diagnostic>& out) {
  const Schema& schema = state.input.policy->schema();
  if (!state.comprehensive()) {
    std::vector<IntervalSet> conjuncts;
    conjuncts.reserve(schema.field_count());
    for (std::size_t f = 0; f < schema.field_count(); ++f) {
      conjuncts.push_back(schema.domain_set(f));
    }
    Diagnostic d;
    d.check_id = "policy.not-comprehensive";
    d.severity = Severity::kError;
    if (find_uncovered(state.diagram(), conjuncts)) {
      d.message = "no rule matches " + format_class(schema, conjuncts) +
                  "; add a final catch-all";
      Witness w;
      w.conjuncts = std::move(conjuncts);
      d.witness = std::move(w);  // observed unset: the class falls off
    } else {
      d.message = "policy is not comprehensive; add a final catch-all";
    }
    out.push_back(std::move(d));
  }
  const std::vector<Decision> reachable =
      reachable_decisions(state.diagram());
  for (Decision dec = 0; dec < state.input.decisions->size(); ++dec) {
    if (std::find(reachable.begin(), reachable.end(), dec) !=
        reachable.end()) {
      continue;
    }
    Diagnostic d;
    d.check_id = "policy.decision-unreachable";
    d.severity = Severity::kWarning;
    d.message = "no packet is ever mapped to '" +
                state.input.decisions->name(dec) +
                "': every rule deciding it is unreachable or absent";
    out.push_back(std::move(d));
  }
}

// --- pass: dead-rules ------------------------------------------------------
// Semantic dead rules via the canonical prefix roots: rules no packet
// ever first-matches. Strictly stronger than pairwise shadowing (a rule
// can be killed by several earlier rules jointly).

void pass_dead_rules(PassState& state, std::vector<Diagnostic>& out) {
  for (const std::size_t i : state.analysis().dead()) {
    Diagnostic d;
    d.check_id = "policy.dead-rule";
    d.severity = Severity::kError;
    d.rule = i;
    d.line = source_line(state, i);
    d.message = rule_ref(i) + " (" + rule_text(state, i) +
                ") is dead: the rules above it jointly cover its whole "
                "predicate, so no packet ever first-matches it";
    d.witness = predicate_witness(state, state.input.policy->rule(i));
    out.push_back(std::move(d));
  }
}

// --- pass: merge -----------------------------------------------------------
// Compaction opportunities: adjacent rules that fold into one, and the
// whole-policy "the generator can say this shorter" check.

void pass_merge(PassState& state, std::vector<Diagnostic>& out) {
  const Policy& policy = *state.input.policy;
  for (std::size_t i = 0; i + 1 < policy.size(); ++i) {
    const Rule& a = policy.rule(i);
    const Rule& b = policy.rule(i + 1);
    if (a.decision() != b.decision()) {
      continue;
    }
    std::size_t differing = kNoRule;
    bool mergeable = true;
    for (std::size_t f = 0; f < a.conjuncts().size(); ++f) {
      if (a.conjunct(f) == b.conjunct(f)) {
        continue;
      }
      if (differing != kNoRule) {
        mergeable = false;  // differ in two fields: union is not a rule
        break;
      }
      differing = f;
    }
    if (!mergeable || differing == kNoRule) {
      continue;  // identical adjacent rules are the pair scan's business
    }
    Diagnostic d;
    d.check_id = "rule.merge-adjacent";
    d.severity = Severity::kNote;
    d.rule = i;
    d.related_rule = i + 1;
    d.line = source_line(state, i);
    d.message = rule_ref(i) + " and " + rule_ref(i + 1) +
                " decide alike and differ only in " +
                policy.schema().field(differing).name +
                "; merge them into one rule with the union";
    out.push_back(std::move(d));
  }

  if (state.comprehensive()) {
    // The generated policy's size, counted off the shared diagram without
    // generating it: one rule per decision path. The count checkpoints the
    // run's context and charges no rules.
    const ArenaDiagram& diagram = state.diagram();
    const std::size_t compact = diagram.arena->path_count(diagram.root);
    if (compact < policy.size()) {
      Diagnostic d;
      d.check_id = "policy.compactable";
      d.severity = Severity::kNote;
      d.message = "an equivalent policy with " + std::to_string(compact) +
                  " rules exists (" + std::to_string(policy.size()) +
                  " now); regenerate via the FDD to compact";
      out.push_back(std::move(d));
    }
  }
}

// --- pass: redundancy ------------------------------------------------------
// Semantic per-rule redundancy (the paper's ref [19]): rules whose
// removal provably leaves the packet-to-decision mapping unchanged. An
// absence finding — warning, no witness. Decided by the run's analysis in
// one back-to-front pass: rule k is redundant iff the prefix before it
// overlaid on the suffix after it is the whole policy's root, which a
// read-only walk decides without building the overlay.

void pass_redundancy(PassState& state, std::vector<Diagnostic>& out) {
  if (!state.comprehensive()) {
    return;  // the coverage pass already reported the real problem
  }
  for (const std::size_t i : state.analysis().redundant()) {
    Diagnostic d;
    d.check_id = "policy.redundant-rule";
    d.severity = Severity::kWarning;
    d.rule = i;
    d.line = source_line(state, i);
    d.message = rule_ref(i) + " (" + rule_text(state, i) +
                ") is redundant: removing it leaves every packet's "
                "decision unchanged";
    out.push_back(std::move(d));
  }
}

// --- pass: properties ------------------------------------------------------
// Declarative property checks against the already-built diagram. A failed
// for-all carries its first counterexample class as the witness; a failed
// exists is an absence finding.

void pass_properties(PassState& state, std::vector<Diagnostic>& out) {
  for (const Property& prop : state.input.properties) {
    if (!prop.scope.decision.has_value()) {
      Diagnostic d;
      d.check_id = "property.malformed";
      d.severity = Severity::kWarning;
      d.message = "property '" + prop.name +
                  "' has no required decision; skipped";
      out.push_back(std::move(d));
      continue;
    }
    const Decision required = *prop.scope.decision;
    Query q = prop.scope;
    q.decision.reset();
    const std::vector<QueryResult> classes = run_query(state.diagram(), q);
    if (prop.mode == PropertyMode::kForAll) {
      for (const QueryResult& r : classes) {
        if (r.decision == required) {
          continue;
        }
        Diagnostic d;
        d.check_id = "property.violation";
        d.severity = Severity::kError;
        d.message = "property '" + prop.name + "' violated: " +
                    format_class(state.input.policy->schema(), r.conjuncts) +
                    " maps to '" + state.input.decisions->name(r.decision) +
                    "', required '" + state.input.decisions->name(required) +
                    "'";
        Witness w;
        w.conjuncts = r.conjuncts;
        w.observed = r.decision;
        w.expected = required;
        d.witness = std::move(w);
        out.push_back(std::move(d));
        break;  // one witness per property keeps reports readable
      }
    } else {
      const bool satisfied =
          std::any_of(classes.begin(), classes.end(),
                      [&](const QueryResult& r) {
                        return r.decision == required;
                      });
      if (!satisfied) {
        Diagnostic d;
        d.check_id = "property.unsatisfied";
        d.severity = Severity::kWarning;
        d.message = "property '" + prop.name + "' unsatisfied: nothing in "
                    "its scope maps to '" +
                    state.input.decisions->name(required) + "'";
        out.push_back(std::move(d));
      }
    }
  }
}

}  // namespace

std::vector<LintPass> builtin_passes() {
  return {
      {"adapter", "source-level notes collected while parsing",
       pass_adapter},
      {"syntax-pairs", "rule-pair anomaly taxonomy (parallel pair scan)",
       pass_syntax_pairs},
      {"coverage", "comprehensiveness and unreachable decisions",
       pass_coverage},
      {"dead-rules", "rules no packet ever first-matches (semantic)",
       pass_dead_rules},
      {"merge", "adjacent-rule merges and whole-policy compaction",
       pass_merge},
      {"redundancy", "semantically removable rules (prefix-root oracle)",
       pass_redundancy},
      {"properties", "declarative property checks", pass_properties},
  };
}

}  // namespace dfw::lint
