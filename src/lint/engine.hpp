// The lint engine: a registry of named, individually-toggleable analysis
// passes over one policy, federating the library's analyses — rule-pair
// anomalies, semantic dead rules, redundancy, coverage, property checks —
// plus source-level adapter notes behind a single structured-diagnostics
// API.
//
// Passes run in a fixed order, share lazily-built state (most importantly
// the policy's PolicyAnalysis — its prefix roots and reduced diagram —
// built at most once per run, governed, or handed in by the caller), and
// observe the run's RunContext: a breached budget or deadline stops the
// run at a pass boundary and the report comes back *partial, clearly
// marked* (complete = false, the breach's code and message attached) with
// every diagnostic found so far — the CompareOutcome pattern. Null
// executor/context/obs keep runs serial, ungoverned, and unobserved; the
// engine's output is deterministic for any executor and thread count.

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adapters/diag.hpp"
#include "analysis/policy_analysis.hpp"
#include "analysis/property.hpp"
#include "fdd/arena.hpp"
#include "lint/diagnostic.hpp"
#include "obs/obs.hpp"
#include "rt/govern.hpp"
#include "rt/run_options.hpp"

namespace dfw {
class Executor;
}  // namespace dfw

namespace dfw::lint {

/// Everything the engine analyses. Policy and decisions are borrowed and
/// must outlive the run.
struct LintInput {
  const Policy* policy = nullptr;
  const DecisionSet* decisions = nullptr;
  /// Artifact name for reports (a file path, or "<stdin>").
  std::string source_name = "<policy>";
  /// Source-level findings collected by an adapter frontend while parsing
  /// (parse_iptables_save / parse_cisco_acl notes overloads).
  std::vector<AdapterNote> adapter_notes;
  /// Declarative properties for the "properties" pass; empty skips it.
  std::vector<Property> properties;
  /// Optional rule-index -> 1-based source line map (parallel to
  /// policy->rules(), shorter is fine); used to anchor diagnostics.
  std::vector<std::size_t> rule_lines;
  /// Optional analysis of *policy the caller already built (fleet hands
  /// over simplify's), borrowed and outliving the run; null makes the run
  /// build its own. One of another policy is std::invalid_argument. The
  /// run governs its arena with run.context and run.faults while it runs.
  PolicyAnalysis* analysis = nullptr;
};

/// Per-run knobs.
struct LintOptions {
  /// Shared execution knobs (rt/run_options.hpp). `run.executor`
  /// (borrowed; null = serial) drives the parallelizable passes (the pair
  /// scan); output is identical for every executor. `run.context`
  /// (borrowed, nullable) governs the run; see the header comment.
  /// `run.obs` (borrowed, nullable sinks): the run emits a "lint" phase
  /// span plus one "lint_pass" span per executed pass.
  dfw::RunOptions run = {};

  /// Pass selection: when `passes` is nonempty only the named passes run;
  /// `disabled` passes are then removed. Unknown names are reported as a
  /// "lint.unknown-pass" warning, not an error.
  std::vector<std::string> passes;
  std::vector<std::string> disabled;
};

/// The outcome of a run. Diagnostics are ordered by pass, then by the
/// pass's own deterministic order — stable across runs, executors, and
/// thread counts.
struct LintReport {
  std::vector<Diagnostic> diagnostics;
  std::vector<std::string> passes_run;
  bool complete = true;
  ErrorCode status = ErrorCode::kOk;
  std::string message;  ///< empty when complete; Error::what() otherwise

  /// Count of diagnostics at the given severity.
  std::size_t count(Severity severity) const;
};

/// Shared lazily-built per-run state handed to every pass: the policy's
/// analysis, the caller's or one built on first use and reused by every
/// later pass in the run. When the run ends, the analysis arena's stats
/// are absorbed into run.obs.metrics, once.
class PassState {
 public:
  PassState(const LintInput& input, const LintOptions& options);
  ~PassState();

  PassState(const PassState&) = delete;
  PassState& operator=(const PassState&) = delete;

  /// The policy's analysis. Without a caller's, the first call builds it
  /// where build_diagram would build the diagram: a "build_reduced_fdd"
  /// span, the fdd.construct.phase fault site, and the run's context and
  /// fault plan on a fresh arena — throws dfw::Error on a breach.
  PolicyAnalysis& analysis();

  /// The policy's reduced diagram (possibly partial when the policy is not
  /// comprehensive), the analysis's p_n. Its arena keeps the run's context
  /// attached, so walks of it are governed too; the redundancy pass
  /// appends to that arena later in the run, on the run's thread.
  const ArenaDiagram& diagram();

  /// True iff the policy is comprehensive (the diagram is complete).
  bool comprehensive();

  const LintInput& input;
  const LintOptions& options;

 private:
  std::shared_ptr<AnalysisArena> arena_;  // whose stats the run absorbs
  std::optional<PolicyAnalysis> own_;
  PolicyAnalysis* analysis_ = nullptr;
  std::optional<ArenaDiagram> diagram_;
  // A caller's arena's attachments, restored when the run ends.
  RunContext* caller_context_ = nullptr;
  FaultPlan* caller_faults_ = nullptr;
};

/// One registered pass. `name` and `description` must be string literals
/// (they feed trace spans and --list-passes output).
struct LintPass {
  const char* name;
  const char* description;
  std::function<void(PassState&, std::vector<Diagnostic>&)> fn;
};

class LintEngine {
 public:
  /// An engine with the builtin pass set registered, in execution order:
  /// adapter, syntax-pairs, coverage, dead-rules, merge, redundancy,
  /// properties.
  LintEngine();

  /// Registers an additional pass (appended after the builtins).
  void register_pass(LintPass pass);

  const std::vector<LintPass>& passes() const { return passes_; }

  /// Runs the selected passes over the input. Requires input.policy and
  /// input.decisions non-null. Governance breaches are absorbed into the
  /// report (complete = false); other exceptions propagate.
  LintReport run(const LintInput& input, const LintOptions& options) const;

 private:
  std::vector<LintPass> passes_;
};

}  // namespace dfw::lint
