#include "diverse/workflow.hpp"

#include <stdexcept>

#include "diverse/discrepancy.hpp"
#include "fdd/arena.hpp"
#include "rt/executor.hpp"
#include "rt/parallel.hpp"

namespace dfw {

DiverseDesign::DiverseDesign(DecisionSet decisions, WorkflowOptions options)
    : decisions_(std::move(decisions)), options_(options) {}

CompareOptions DiverseDesign::compare_options() const {
  CompareOptions options;
  options.run = options_.run;
  return options;
}

std::size_t DiverseDesign::submit(std::string team_name, Policy policy) {
  ScopedSpan span(options_.run.obs.tracer, "workflow.submit", "team",
                  policies_.size());
  if (!policies_.empty() && !(policy.schema() == policies_[0].schema())) {
    throw std::invalid_argument("submit: schema differs from earlier teams");
  }
  // Comprehensiveness gate: a rule sequence must cover every packet to
  // serve as a firewall (Section 3.1). Governed sessions bound this build
  // too — a hostile submission must not hang the design phase.
  FddArena arena(policy.schema());
  arena.set_context(options_.run.context);
  {
    ScopedSpan build(options_.run.obs.tracer, "build_reduced_fdd", "rules",
                     policy.size());
    arena.validate(arena.build_reduced(policy));
  }
  if (options_.run.obs.metrics != nullptr) {
    absorb(*options_.run.obs.metrics, arena.stats());
  }
  names_.push_back(std::move(team_name));
  policies_.push_back(std::move(policy));
  return policies_.size() - 1;
}

const Policy& DiverseDesign::policy(std::size_t team) const {
  if (team >= policies_.size()) {
    throw std::out_of_range("policy: no such team");
  }
  return policies_[team];
}

std::vector<Discrepancy> DiverseDesign::compare() const {
  if (policies_.size() < 2) {
    throw std::logic_error("compare: need at least two teams");
  }
  ScopedSpan span(options_.run.obs.tracer, "workflow.compare", "teams",
                  policies_.size());
  return discrepancies_many(policies_, compare_options());
}

CompareOutcome DiverseDesign::compare_governed() const {
  if (policies_.size() < 2) {
    throw std::logic_error("compare: need at least two teams");
  }
  ScopedSpan span(options_.run.obs.tracer, "workflow.compare", "teams",
                  policies_.size());
  return discrepancies_many_governed(policies_, compare_options());
}

std::vector<PairwiseReport> DiverseDesign::cross_compare() const {
  if (policies_.size() < 2) {
    throw std::logic_error("cross_compare: need at least two teams");
  }
  ScopedSpan span(options_.run.obs.tracer, "workflow.cross_compare", "teams",
                  policies_.size());
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(policies_.size() * (policies_.size() - 1) / 2);
  for (std::size_t a = 0; a < policies_.size(); ++a) {
    for (std::size_t b = a + 1; b < policies_.size(); ++b) {
      pairs.emplace_back(a, b);
    }
  }
  // Each pair is an independent construct->shape->compare pipeline; run
  // them as pool tasks. The pair pipelines get a serial CompareOptions so
  // the pool's threads each own one whole pipeline, arenas included,
  // instead of contending over intra-pair subtasks.
  Executor& ex = executor_or_inline(options_.run);
  CompareOptions pair_options;
  pair_options.run.context = options_.run.context;
  pair_options.run.obs = options_.run.obs;
  const auto run_pair = [&](std::size_t i) {
    const auto [a, b] = pairs[i];
    // One span per unordered pair, on whichever pool thread runs it; the
    // pair's construct/shape/compare phase spans nest inside.
    ScopedSpan pair_span(options_.run.obs.tracer, "pair", "team_a", a, "team_b",
                         b);
    if (options_.run.context == nullptr) {
      return PairwiseReport{
          a, b, discrepancies(policies_[a], policies_[b], pair_options)};
    }
    // Governed session: each pair absorbs its own governance cut into a
    // per-pair status, so one breached pair never torpedoes the others'
    // reports. A pair starting after the shared context already aborted
    // is marked cancelled without doing any work.
    PairwiseReport report;
    report.team_a = a;
    report.team_b = b;
    if (options_.run.context->aborted()) {
      report.complete = false;
      report.status = options_.run.context->abort_code();
      return report;
    }
    CompareOutcome outcome =
        discrepancies_governed(policies_[a], policies_[b], pair_options);
    report.discrepancies = std::move(outcome.discrepancies);
    report.complete = outcome.complete;
    report.status = outcome.status;
    return report;
  };
  return parallel_map<PairwiseReport>(ex, pairs.size(), run_pair, nullptr,
                                      options_.run.obs);
}

std::string DiverseDesign::report() const {
  if (options_.comparison == ComparisonMode::kCross) {
    std::string out;
    for (const PairwiseReport& pair : cross_compare()) {
      out += "== " + names_[pair.team_a] + " vs " + names_[pair.team_b] +
             " ==\n";
      out += format_discrepancy_report(
          policies_[0].schema(), decisions_, pair.discrepancies,
          {names_[pair.team_a], names_[pair.team_b]});
    }
    return out;
  }
  return format_discrepancy_report(policies_[0].schema(), decisions_,
                                   compare(), names_);
}

Policy DiverseDesign::resolve(const ResolutionPlan& plan) const {
  return resolve(plan, options_.resolution, options_.base_team);
}

Policy DiverseDesign::resolve(const ResolutionPlan& plan,
                              ResolutionMethod method,
                              std::size_t base_team) const {
  ScopedSpan span(options_.run.obs.tracer, "workflow.resolve", "base_team",
                  base_team);
  switch (method) {
    case ResolutionMethod::kCorrectedFdd:
      return resolve_via_fdd(policies_, plan, base_team, options_.run);
    case ResolutionMethod::kPrependAndTrim:
      return resolve_via_corrections(policies_, plan, base_team,
                                     options_.run);
  }
  throw std::invalid_argument("resolve: unknown method");
}

Policy DiverseDesign::resolve_in_favour_of(std::size_t winner) const {
  return resolve_in_favour_of(winner, options_.resolution,
                              options_.base_team);
}

Policy DiverseDesign::resolve_in_favour_of(std::size_t winner,
                                           ResolutionMethod method,
                                           std::size_t base_team) const {
  const std::vector<Discrepancy> all = compare();
  ResolutionPlan plan;
  plan.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    plan.push_back(adopt(i, all[i], winner));
  }
  return resolve(plan, method, base_team);
}

}  // namespace dfw
