#include "diverse/workflow.hpp"

#include <mutex>
#include <stdexcept>

#include "diverse/discrepancy.hpp"
#include "fdd/arena.hpp"
#include "rt/executor.hpp"
#include "rt/parallel.hpp"

namespace dfw {
namespace {

// Absorbs what `arena` counted since the last flush into the registry
// (nullable) when it leaves scope, also when a governance breach unwinds,
// so a session arena that serves many calls is counted once per call.
struct StatsDelta {
  FddArena& arena;
  MetricsRegistry* metrics;
  ~StatsDelta() {
    if (metrics != nullptr) {
      absorb(*metrics, arena.stats());
    }
    arena.reset_stats();
  }
};

}  // namespace

struct DiverseDesign::State {
  // One canonical diagram per team, built and validated by submit and
  // never changed afterwards, so const calls read them without the lock.
  std::vector<ArenaDiagram> diagrams;
  // Guards the kept direct comparison: the session arena the diagrams
  // were imported into (null when there is none), their roots there and
  // the discrepancy list. Resolution method 1 also corrects in the arena.
  std::mutex mutex;
  std::unique_ptr<FddArena> arena;
  std::vector<ArenaNodeId> roots;
  std::vector<Discrepancy> discrepancies;
};

DiverseDesign::DiverseDesign(DecisionSet decisions, WorkflowOptions options)
    : decisions_(std::move(decisions)),
      options_(options),
      state_(std::make_unique<State>()) {}

DiverseDesign::~DiverseDesign() = default;
DiverseDesign::DiverseDesign(DiverseDesign&&) noexcept = default;
DiverseDesign& DiverseDesign::operator=(DiverseDesign&&) noexcept = default;

std::size_t DiverseDesign::submit(std::string team_name, Policy policy) {
  ScopedSpan span(options_.run.obs.tracer, "workflow.submit", "team",
                  policies_.size());
  if (!policies_.empty() && !(policy.schema() == policies_[0].schema())) {
    throw std::invalid_argument("submit: schema differs from earlier teams");
  }
  // Comprehensiveness gate: a rule sequence must cover every packet to
  // serve as a firewall (Section 3.1). Governed sessions bound this build
  // too — a hostile submission must not hang the design phase.
  const Policy* input[] = {&policy};
  ArenaDiagram diagram = std::move(build_diagrams(input, options_.run).front());
  {
    PhaseSpan phase(options_.run.obs, "validate");
    diagram.arena->validate(diagram.root);
  }
  names_.push_back(std::move(team_name));
  policies_.push_back(std::move(policy));
  const std::lock_guard<std::mutex> lock(state_->mutex);
  state_->diagrams.push_back(std::move(diagram));
  state_->arena.reset();
  return policies_.size() - 1;
}

const Policy& DiverseDesign::policy(std::size_t team) const {
  if (team >= policies_.size()) {
    throw std::out_of_range("policy: no such team");
  }
  return policies_[team];
}

DiverseDesign::State& DiverseDesign::compared() const {
  if (policies_.size() < 2) {
    throw std::logic_error("compare: need at least two teams");
  }
  State& state = *state_;
  if (state.arena != nullptr) {
    return state;
  }
  ScopedSpan span(options_.run.obs.tracer, "workflow.compare", "teams",
                  policies_.size());
  // A breach unwinds before the arena is kept, leaving the findings so far
  // in state.discrepancies for compare_governed().
  auto arena = std::make_unique<FddArena>(policies_.front().schema());
  const StatsDelta flush{*arena, options_.run.obs.metrics};
  state.discrepancies.clear();
  state.roots = compare_diagrams(*arena, state.diagrams, options_.run,
                                 state.discrepancies);
  state.arena = std::move(arena);
  return state;
}

std::vector<Discrepancy> DiverseDesign::compare() const {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return compared().discrepancies;
}

CompareOutcome DiverseDesign::compare_governed() const {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  CompareOutcome outcome;
  try {
    outcome.discrepancies = compared().discrepancies;
  } catch (const Error& e) {
    // Governance cuts become a partial report; anything else keeps
    // propagating.
    outcome.discrepancies = std::move(state_->discrepancies);
    outcome.complete = false;
    outcome.status = e.code();
    outcome.message = e.what();
  }
  return outcome;
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
  // Each pair compares its two submitted diagrams in an arena of its own,
  // so pairs run as independent pool tasks that only read the team arenas.
  const std::vector<ArenaDiagram>& diagrams = state_->diagrams;
  Executor& ex = executor_or_inline(options_.run);
  CompareOptions pair_options;
  pair_options.run = options_.run;
  const auto run_pair = [&](std::size_t i) {
    const auto [a, b] = pairs[i];
    // One span per unordered pair, on whichever pool thread runs it; the
    // pair's validate/compare phase spans nest inside.
    ScopedSpan pair_span(options_.run.obs.tracer, "pair", "team_a", a, "team_b",
                         b);
    const ArenaDiagram inputs[] = {diagrams[a], diagrams[b]};
    if (options_.run.context == nullptr) {
      return PairwiseReport{a, b, discrepancies(inputs, pair_options)};
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
    CompareOutcome outcome = discrepancies_governed(inputs, pair_options);
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
      out += "== ";
      out += names_[pair.team_a];
      out += " vs ";
      out += names_[pair.team_b];
      out += " ==\n";
      out += format_discrepancy_report(
          policies_[0].schema(), decisions_, pair.discrepancies,
          {names_[pair.team_a], names_[pair.team_b]});
    }
    return out;
  }
  const std::lock_guard<std::mutex> lock(state_->mutex);
  return format_discrepancy_report(policies_[0].schema(), decisions_,
                                   compared().discrepancies, names_);
}

Policy DiverseDesign::resolve(const ResolutionPlan& plan) const {
  return resolve(plan, options_.resolution, options_.base_team);
}

Policy DiverseDesign::resolve(const ResolutionPlan& plan,
                              ResolutionMethod method,
                              std::size_t base_team) const {
  ScopedSpan span(options_.run.obs.tracer, "workflow.resolve", "base_team",
                  base_team);
  if (base_team >= policies_.size()) {
    throw std::invalid_argument("resolve: no such team");
  }
  if (policies_.size() < 2) {
    throw std::invalid_argument("resolution: need at least two policies");
  }
  const std::lock_guard<std::mutex> lock(state_->mutex);
  State& state = compared();
  switch (method) {
    case ResolutionMethod::kCorrectedFdd: {
      const StatsDelta flush{*state.arena, options_.run.obs.metrics};
      return correct_and_generate(*state.arena, state.roots,
                                  state.discrepancies, plan,
                                  options_.run.obs);
    }
    case ResolutionMethod::kPrependAndTrim:
      return prepend_and_trim(policies_[base_team], base_team,
                              state.discrepancies, plan,
                              options_.run.context);
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
