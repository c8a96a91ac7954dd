// Rule-pair anomaly analysis.
//
// The paper's related work (its ref [1], Al-Shaer & Hamed) classifies
// suspicious rule-pair configurations; the paper positions such per-team
// analysis as a design-phase complement to cross-team comparison
// (Sections 1.4, 9). We implement the classic taxonomy over our rule
// model, plus a *semantic* dead-rule check the syntactic pair scan cannot
// provide: a rule no packet ever first-matches, detected exactly via the
// FDD query engine.
//
// For rules r_i before r_j (i < j) with predicates P_i, P_j:
//   shadowing      P_j subset of P_i, decisions differ  (r_j can never fire
//                  with its intended effect — almost always an error)
//   generalization P_i strict subset of P_j, decisions differ (r_j is the
//                  broader fallback; legitimate but worth an eyebrow)
//   correlation    P_i, P_j overlap, neither contains the other, decisions
//                  differ (order-sensitive pair)
//   redundancy-pair P_j subset of P_i, same decision (r_j looks removable;
//                  confirm with the semantic gen/redundancy check)

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fw/policy.hpp"
#include "obs/obs.hpp"
#include "rt/run_options.hpp"

namespace dfw {

class Executor;
class RunContext;

enum class AnomalyKind {
  kShadowing,
  kGeneralization,
  kCorrelation,
  kRedundancyPair,
};

const char* to_string(AnomalyKind kind);

/// One detected rule-pair anomaly between rules()[first] (the earlier
/// rule) and rules()[second].
struct Anomaly {
  AnomalyKind kind;
  std::size_t first;
  std::size_t second;

  bool operator==(const Anomaly&) const = default;
};

/// True iff every packet matching `inner` also matches `outer`.
bool predicate_subset(const Rule& inner, const Rule& outer);

/// True iff some packet matches both rules.
bool predicates_overlap(const Rule& a, const Rule& b);

/// Knobs for the anomaly scans, in the library's options-struct idiom.
struct AnomalyOptions {
  /// Shared execution knobs (rt/run_options.hpp). `run.executor`
  /// (borrowed; null = inline/serial) drives the pair scan: the O(n^2 d)
  /// triangle is chunked by later-rule row, each row's findings staged in
  /// its own slot and concatenated in row order, so the result is
  /// bit-identical to the serial scan at every thread count.
  /// `run.context` (borrowed, nullable): the pair scan takes amortized
  /// cancellation/deadline checkpoints per pair; dead_rules takes one per
  /// rule and charges every prefix-diagram node it materialises against
  /// the node budget. A breach throws dfw::Error (from the batch join under
  /// an executor). `run.obs` (borrowed, nullable sinks): the pair scan runs
  /// under an "anomaly_pairs" phase span, dead_rules' chain under a
  /// "prefix_roots" one. Null sinks are free.
  RunOptions run = {};

  /// Rows of the pair triangle handed to one executor task. Row j costs
  /// O(j d), so modest grains already amortise scheduling.
  std::size_t row_grain = 16;
};

/// Scans all ordered rule pairs and reports every anomaly, ordered by
/// (second, first). Pure syntax over predicates; O(n^2 d).
std::vector<Anomaly> find_anomalies(const Policy& policy,
                                    const AnomalyOptions& options = {});

/// Indices of *dead* rules: rules no packet ever first-matches (fully
/// masked by the rules above them). Exact: PolicyAnalysis::dead() in a
/// fresh arena (analysis/policy_analysis.hpp), rule i being dead iff
/// appending it leaves the canonical prefix root unchanged. Dead rules are
/// a strict subset of rules flagged by shadowing/redundancy-pair
/// anomalies.
std::vector<std::size_t> dead_rules(const Policy& policy,
                                    const AnomalyOptions& options = {});

/// Renders an administrator-facing report.
std::string format_anomaly_report(const Policy& policy,
                                  const DecisionSet& decisions,
                                  const std::vector<Anomaly>& anomalies,
                                  const std::vector<std::size_t>& dead);

}  // namespace dfw
