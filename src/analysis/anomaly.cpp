#include "analysis/anomaly.hpp"

#include "analysis/policy_analysis.hpp"
#include "fw/format.hpp"
#include "rt/executor.hpp"
#include "rt/govern.hpp"

namespace dfw {

const char* to_string(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kShadowing:
      return "shadowing";
    case AnomalyKind::kGeneralization:
      return "generalization";
    case AnomalyKind::kCorrelation:
      return "correlation";
    case AnomalyKind::kRedundancyPair:
      return "redundancy-pair";
  }
  return "unknown";
}

bool predicate_subset(const Rule& inner, const Rule& outer) {
  for (std::size_t f = 0; f < inner.conjuncts().size(); ++f) {
    if (!outer.conjunct(f).contains(inner.conjunct(f))) {
      return false;
    }
  }
  return true;
}

bool predicates_overlap(const Rule& a, const Rule& b) {
  for (std::size_t f = 0; f < a.conjuncts().size(); ++f) {
    if (!a.conjunct(f).overlaps(b.conjunct(f))) {
      return false;
    }
  }
  return true;
}

namespace {

// Classifies the ordered pair (i, j), i < j, appending at most one
// anomaly to `out`.
void classify_pair(const Policy& policy, std::size_t i, std::size_t j,
                   std::vector<Anomaly>& out) {
  const Rule& earlier = policy.rule(i);
  const Rule& later = policy.rule(j);
  if (!predicates_overlap(earlier, later)) {
    return;
  }
  const bool later_inside = predicate_subset(later, earlier);
  const bool earlier_inside = predicate_subset(earlier, later);
  const bool same_decision = earlier.decision() == later.decision();
  if (later_inside && !same_decision) {
    out.push_back({AnomalyKind::kShadowing, i, j});
  } else if (later_inside && same_decision) {
    out.push_back({AnomalyKind::kRedundancyPair, i, j});
  } else if (earlier_inside && !later_inside && !same_decision) {
    out.push_back({AnomalyKind::kGeneralization, i, j});
  } else if (!earlier_inside && !later_inside && !same_decision) {
    out.push_back({AnomalyKind::kCorrelation, i, j});
  }
  // Overlapping, non-nested, same decision: benign overlap — the
  // taxonomy does not flag it.
}

}  // namespace

std::vector<Anomaly> find_anomalies(const Policy& policy,
                                    const AnomalyOptions& options) {
  PhaseSpan span(options.run.obs, "anomaly_pairs");
  std::vector<Anomaly> anomalies;
  if (policy.size() < 2) {
    return anomalies;
  }
  // Row r scans pairs (i, j) with j = r + 1, i < j — the triangle sliced
  // by its later rule, so every row is independent of the others.
  const std::size_t rows = policy.size() - 1;
  if (options.run.executor == nullptr || options.run.executor->is_inline()) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t i = 0; i <= r; ++i) {
        govern::checkpoint(options.run.context);
        classify_pair(policy, i, r + 1, anomalies);
      }
    }
    return anomalies;
  }
  // Each row stages its findings in its own slot; concatenating slots in
  // row order reproduces the serial (second, first) ordering exactly,
  // whatever the schedule.
  std::vector<std::vector<Anomaly>> staged(rows);
  const std::size_t grain = options.row_grain == 0 ? 1 : options.row_grain;
  options.run.executor->parallel_for_chunked(
      rows, grain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          for (std::size_t i = 0; i <= r; ++i) {
            govern::checkpoint(options.run.context);
            classify_pair(policy, i, r + 1, staged[r]);
          }
        }
      },
      options.run.context, options.run.obs);
  std::size_t total = 0;
  for (const std::vector<Anomaly>& row : staged) {
    total += row.size();
  }
  anomalies.reserve(total);
  for (std::vector<Anomaly>& row : staged) {
    anomalies.insert(anomalies.end(), row.begin(), row.end());
  }
  return anomalies;
}

std::vector<std::size_t> dead_rules(const Policy& policy,
                                    const AnomalyOptions& options) {
  return PolicyAnalysis(policy, options.run.context, options.run.obs).dead();
}

std::string format_anomaly_report(const Policy& policy,
                                  const DecisionSet& decisions,
                                  const std::vector<Anomaly>& anomalies,
                                  const std::vector<std::size_t>& dead) {
  std::string out;
  if (anomalies.empty()) {
    out += "rule-pair anomalies: none\n";
  } else {
    out += "rule-pair anomalies (" + std::to_string(anomalies.size()) +
           "):\n";
    for (const Anomaly& a : anomalies) {
      out += "  [" + std::string(to_string(a.kind)) + "] r" +
             std::to_string(a.second + 1) + " vs r" +
             std::to_string(a.first + 1) + ": " +
             format_rule(policy.schema(), decisions, policy.rule(a.second)) +
             "  <->  " +
             format_rule(policy.schema(), decisions, policy.rule(a.first)) +
             "\n";
    }
  }
  if (dead.empty()) {
    out += "dead rules: none\n";
  } else {
    out += "dead rules (never first-matched):\n";
    for (const std::size_t i : dead) {
      out += "  r" + std::to_string(i + 1) + ": " +
             format_rule(policy.schema(), decisions, policy.rule(i)) + "\n";
    }
  }
  return out;
}

}  // namespace dfw
