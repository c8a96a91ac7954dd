#include "lint/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "lint/passes.hpp"
#include "obs/metrics.hpp"
#include "rt/fault.hpp"

namespace dfw::lint {

std::size_t LintReport::count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == severity) {
      ++n;
    }
  }
  return n;
}

PassState::PassState(const LintInput& in, const LintOptions& opts)
    : input(in), options(opts) {
  if (input.analysis != nullptr) {
    analysis_ = input.analysis;
    arena_ = analysis_->shared();
    caller_context_ = arena_->arena.context();
    caller_faults_ = arena_->arena.faults();
    arena_->arena.set_context(options.run.context);
    arena_->arena.set_faults(options.run.faults);
  }
}

PassState::~PassState() {
  if (arena_ == nullptr) {
    return;
  }
  if (MetricsRegistry* metrics = options.run.obs.metrics) {
    absorb(*metrics, arena_->arena.stats());
  }
  if (input.analysis != nullptr) {
    arena_->arena.set_context(caller_context_);
    arena_->arena.set_faults(caller_faults_);
  }
}

PolicyAnalysis& PassState::analysis() {
  if (analysis_ == nullptr) {
    const RunOptions& run = options.run;
    ScopedSpan span(run.obs.tracer, "build_reduced_fdd", "rules",
                    input.policy->size());
    fault::hit(run.faults, fault::sites::kConstructPhase);
    arena_ = std::make_shared<AnalysisArena>(input.policy->schema());
    arena_->arena.set_context(run.context);
    arena_->arena.set_faults(run.faults);
    analysis_ = &own_.emplace(arena_, *input.policy, run.obs);
  }
  return *analysis_;
}

const ArenaDiagram& PassState::diagram() {
  if (!diagram_) {
    diagram_.emplace(analysis().diagram());
  }
  return *diagram_;
}

bool PassState::comprehensive() { return analysis().comprehensive(); }

LintEngine::LintEngine() : passes_(builtin_passes()) {}

void LintEngine::register_pass(LintPass pass) {
  passes_.push_back(std::move(pass));
}

namespace {

bool contains(const std::vector<std::string>& names, const char* name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

LintReport LintEngine::run(const LintInput& input,
                           const LintOptions& options) const {
  if (input.policy == nullptr || input.decisions == nullptr) {
    throw std::invalid_argument("LintEngine::run: policy and decisions");
  }
  if (input.analysis != nullptr &&
      !(input.analysis->policy().schema() == input.policy->schema() &&
        input.analysis->policy().rules() == input.policy->rules())) {
    throw std::invalid_argument(
        "LintEngine::run: the analysis is of another policy");
  }
  PhaseSpan span(options.run.obs, "lint");
  LintReport report;

  // Unknown pass names in the selection are findings, not crashes: the
  // caller's CI config should not brick the gate over a renamed pass.
  for (const std::vector<std::string>* list : {&options.passes,
                                               &options.disabled}) {
    for (const std::string& name : *list) {
      const bool known =
          std::any_of(passes_.begin(), passes_.end(),
                      [&](const LintPass& p) { return name == p.name; });
      if (!known) {
        Diagnostic d;
        d.check_id = "lint.unknown-pass";
        d.severity = Severity::kWarning;
        d.message = "no pass named '" + name + "'";
        report.diagnostics.push_back(std::move(d));
      }
    }
  }

  PassState state(input, options);
  for (const LintPass& pass : passes_) {
    if (!options.passes.empty() && !contains(options.passes, pass.name)) {
      continue;
    }
    if (contains(options.disabled, pass.name)) {
      continue;
    }
    try {
      // pass.name is a string literal per the LintPass contract, so it is
      // safe as a span name.
      PhaseSpan pass_span(options.run.obs, pass.name);
      pass.fn(state, report.diagnostics);
      report.passes_run.push_back(pass.name);
    } catch (const Error& e) {
      // Governance breach: report what we have, clearly marked. The
      // context is sticky-aborted, so later governed passes would fail
      // immediately anyway — stop at this boundary.
      report.complete = false;
      report.status = e.code();
      report.message = std::string("pass '") + pass.name + "': " + e.what();
      break;
    }
  }

  for (Diagnostic& d : report.diagnostics) {
    d.fingerprint = compute_fingerprint(d, input.policy, input.decisions);
  }
  return report;
}

}  // namespace dfw::lint
