#include "simplify/simplify.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/anomaly.hpp"
#include "obs/names.hpp"
#include "obs/obs.hpp"

namespace dfw {
namespace {

/// Fixpoint bound: transform rounds stop after this many passes even if
/// the policy is still shrinking (each round removes at least one rule,
/// so the bound only matters for adversarial inputs).
constexpr std::size_t kMaxPasses = 16;

/// Index of the single field where the two rules' conjuncts differ, when
/// the rules share a decision and differ in exactly one field; SIZE_MAX
/// otherwise. Merging such a pair into one rule whose differing conjunct
/// is the union is exact: a packet matches the merged rule iff it matches
/// the d-1 shared conjuncts and lands in either variant of the field.
std::size_t mergeable_field(const Rule& a, const Rule& b) {
  if (a.decision() != b.decision()) {
    return SIZE_MAX;
  }
  std::size_t differing = SIZE_MAX;
  for (std::size_t f = 0; f < a.conjuncts().size(); ++f) {
    if (a.conjunct(f) == b.conjunct(f)) {
      continue;
    }
    if (differing != SIZE_MAX) {
      return SIZE_MAX;  // second differing field
    }
    differing = f;
  }
  return differing;
}

Rule merge_pair(const Schema& schema, const Rule& a, const Rule& b,
                std::size_t field) {
  std::vector<IntervalSet> conjuncts = a.conjuncts();
  conjuncts[field] = conjuncts[field].unite(b.conjunct(field));
  return Rule(schema, std::move(conjuncts), a.decision());
}

/// Removes rules no packet ever first-matches, read off the round's
/// analysis of `rules` — the reachability dfw-lint's dead-rules pass
/// reports on.
bool eliminate_dead(const PolicyAnalysis& analysis, std::vector<Rule>& rules,
                    SimplifyStats& stats) {
  const std::vector<std::size_t> dead = analysis.dead();
  if (dead.empty()) {
    return false;
  }
  // dead() reports ascending indices; erase back-to-front.
  for (std::size_t i = dead.size(); i-- > 0;) {
    rules.erase(rules.begin() + static_cast<std::ptrdiff_t>(dead[i]));
  }
  stats.dead_eliminated += dead.size();
  return true;
}

/// Folds neighbouring same-decision rules that differ in exactly one
/// field. Sound independently of the surrounding rules: the pair's
/// combined first-match set equals the merged rule's match set, and no
/// rule between them exists to observe the difference.
bool merge_adjacent(const Schema& schema, std::vector<Rule>& rules,
                    RunContext* ctx, SimplifyStats& stats) {
  std::vector<Rule> out;
  out.reserve(rules.size());
  bool changed = false;
  for (Rule& rule : rules) {
    govern::checkpoint(ctx);
    if (!out.empty()) {
      const std::size_t field = mergeable_field(out.back(), rule);
      if (field != SIZE_MAX) {
        out.back() = merge_pair(schema, out.back(), rule, field);
        ++stats.adjacent_merged;
        changed = true;
        continue;
      }
    }
    out.push_back(std::move(rule));
  }
  // The loop moves from `rules` unconditionally, so the result vector is
  // installed even when nothing merged.
  rules = std::move(out);
  return changed;
}

/// Within one maximal run of consecutive same-decision rules, evaluation
/// order is immaterial (any packet reaching the run that matches any
/// member gets the run's one decision, and the run's contribution to the
/// fall-through set is the complement of the predicate union). That
/// licenses two rewrites adjacency cannot see: dropping a rule whose
/// predicate is contained in a sibling's, and merging non-adjacent
/// single-field pairs.
bool coalesce_run(const Schema& schema, std::vector<Rule>& run,
                  RunContext* ctx, SimplifyStats& stats) {
  bool changed = false;
  bool progressed = true;
  while (progressed && run.size() > 1) {
    progressed = false;
    // Subsumption: later siblings first, so an equal-predicate pair drops
    // the later rule.
    for (std::size_t b = run.size(); b-- > 0 && run.size() > 1;) {
      for (std::size_t a = 0; a < run.size(); ++a) {
        govern::checkpoint(ctx);
        if (a == b) {
          continue;
        }
        if (predicate_subset(run[b], run[a])) {
          run.erase(run.begin() + static_cast<std::ptrdiff_t>(b));
          ++stats.run_subsumed;
          changed = progressed = true;
          break;
        }
      }
    }
    // First single-field pair in scan order merges; rescan (the merged
    // rule may enable further subsumption or merging).
    for (std::size_t a = 0; a + 1 < run.size() && !progressed; ++a) {
      for (std::size_t b = a + 1; b < run.size(); ++b) {
        govern::checkpoint(ctx);
        const std::size_t field = mergeable_field(run[a], run[b]);
        if (field == SIZE_MAX) {
          continue;
        }
        run[a] = merge_pair(schema, run[a], run[b], field);
        run.erase(run.begin() + static_cast<std::ptrdiff_t>(b));
        ++stats.run_merged;
        changed = progressed = true;
        break;
      }
    }
  }
  return changed;
}

bool coalesce_runs(const Schema& schema, std::vector<Rule>& rules,
                   RunContext* ctx, SimplifyStats& stats) {
  std::vector<Rule> out;
  out.reserve(rules.size());
  bool changed = false;
  std::size_t i = 0;
  while (i < rules.size()) {
    std::size_t j = i + 1;
    while (j < rules.size() &&
           rules[j].decision() == rules[i].decision()) {
      ++j;
    }
    if (j - i > 1) {
      std::vector<Rule> run(
          std::make_move_iterator(rules.begin() +
                                  static_cast<std::ptrdiff_t>(i)),
          std::make_move_iterator(rules.begin() +
                                  static_cast<std::ptrdiff_t>(j)));
      changed = coalesce_run(schema, run, ctx, stats) || changed;
      for (Rule& r : run) {
        out.push_back(std::move(r));
      }
    } else {
      out.push_back(std::move(rules[i]));
    }
    i = j;
  }
  rules = std::move(out);
  return changed;
}

/// Arena-backed equivalence proof on the canonical roots of both policies
/// in the rounds' shared arena: the reduced ordered FDD of a packet
/// function is unique, so root-id equality decides equivalence outright
/// (for partial functions too) and nothing is built. The comparison walk
/// is run as the reportable artifact, O(1) on equal ids: a proven rewrite
/// shows zero discrepancies from the same comparison the paper's
/// cross-team pipeline uses. On distinct roots it itemizes the witnesses
/// where both diagrams decide; root inequality alone is the witness when
/// they differ only where one is undecided.
ProofStatus prove(FddArena& arena, ArenaNodeId a, ArenaNodeId b,
                  SimplifyReport& report) {
  const std::size_t found = arena.compare({a, b}).size();
  if (a == b) {
    report.proof_discrepancies = found;
    return ProofStatus::kProven;
  }
  report.proof_discrepancies = std::max<std::size_t>(found, 1);
  return ProofStatus::kRefuted;
}

}  // namespace

const char* to_string(ProofStatus status) {
  switch (status) {
    case ProofStatus::kProven:
      return "proven";
    case ProofStatus::kSkipped:
      return "skipped";
    case ProofStatus::kAborted:
      return "aborted";
    case ProofStatus::kRefuted:
      return "refuted";
  }
  return "unknown";
}

SimplifyOutcome simplify_policy(const Policy& policy, const RunOptions& run) {
  PhaseSpan span(run.obs, "simplify", "rules",
                 static_cast<std::uint64_t>(policy.size()));
  RunContext* ctx = run.context;

  SimplifyReport report;
  report.rules_before = policy.size();
  report.rules_after = policy.size();

  const Schema& schema = policy.schema();
  // One arena for every round's analysis and the proof: a round's chain
  // reuses every prefix the previous round's edits left alone.
  auto shared = std::make_shared<AnalysisArena>(schema);
  shared->arena.set_context(ctx);
  shared->arena.set_faults(run.faults);
  std::vector<Rule> rules = policy.rules();
  try {
    // The analysis of `rules` as they stand, when nothing changed since.
    std::optional<PolicyAnalysis> analysis;
    ArenaNodeId original = FddArena::kEmpty;
    for (std::size_t round = 0; round < kMaxPasses; ++round) {
      analysis.emplace(shared, Policy(schema, rules), run.obs);
      if (round == 0) {
        original = analysis->root();
      }
      bool changed = eliminate_dead(*analysis, rules, report.stats);
      changed = merge_adjacent(schema, rules, ctx, report.stats) || changed;
      changed = coalesce_runs(schema, rules, ctx, report.stats) || changed;
      if (!changed) {
        break;
      }
      ++report.passes;
      analysis.reset();
    }
    if (!analysis.has_value()) {
      // Every round changed the policy: analyse the last version too.
      analysis.emplace(shared, Policy(schema, rules), run.obs);
    }

    if (report.passes == 0) {
      // Untouched: nothing to prove, nothing to count.
      return {analysis->policy(), report, std::move(analysis)};
    }
    {
      PhaseSpan prove_span(run.obs, "simplify.prove");
      report.proof = prove(shared->arena, original, analysis->root(), report);
    }
    if (report.proof == ProofStatus::kRefuted) {
      // A refuted proof means a transform is unsound (an internal bug):
      // fail safe by handing back the input untouched.
      report.rules_after = report.rules_before;
      return {policy, report, std::nullopt};
    }
    report.rules_after = analysis->policy().size();
    if (MetricsRegistry* metrics = run.obs.metrics) {
      metrics->counter(names::kSimplifyRulesRemoved)
          .add(report.rules_before - report.rules_after);
      if (report.proof == ProofStatus::kProven) {
        metrics->counter(names::kSimplifyProven).add();
      }
    }
    return {analysis->policy(), report, std::move(analysis)};
  } catch (const Error& e) {
    report.complete = false;
    report.status = e.code();
    report.message = e.what();
    report.proof = ProofStatus::kAborted;
    report.rules_after = report.rules_before;
    if (MetricsRegistry* metrics = run.obs.metrics) {
      metrics->counter(names::kSimplifyAborted).add();
    }
    return {policy, report, std::nullopt};
  }
}

}  // namespace dfw
