// The three-phase diverse-design workflow (paper, Section 2).
//
// A DiverseDesign session collects the team firewalls from the design
// phase, runs the comparison phase (construct -> validate -> compare), and
// drives the resolution phase to a final, unanimously agreed firewall.
// Cross comparison of all pairs (Section 7.3) is offered alongside the
// direct N-way comparison.
//
// As in the paper's workflow, each team's diagram is built once: submit
// builds and validates it in an arena of its own, which nothing changes
// afterwards. The first call after the last submit that needs the direct
// comparison imports the K diagrams into one session arena, compares them
// there, and keeps the imported roots and the discrepancy list; compare(),
// report(), both resolution methods and resolve_in_favour_of() all reuse
// them, and the next submit drops them. Cross comparison compares each
// pair afresh from the same submitted diagrams. Const calls may run
// concurrently: the kept comparison sits behind one mutex.
//
// Session-wide knobs travel in WorkflowOptions: the resolution method and
// base team, the comparison mode the report uses, and the executor cross
// comparison runs on. The executor default is serial
// (Executor::inline_executor()); with a pool, cross comparison runs its
// K(K-1)/2 pairs as independent tasks — with output identical to serial.

#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "diverse/resolve.hpp"
#include "fdd/compare.hpp"
#include "fw/policy.hpp"

namespace dfw {

class Executor;

/// Which resolution method generates the final firewall (Section 6).
enum class ResolutionMethod {
  kCorrectedFdd,   ///< method 1: correct the FDD, regenerate rules
  kPrependAndTrim, ///< method 2: prepend corrections, remove redundancy
};

/// How the comparison phase reports (Section 7.3): one direct N-way pass
/// over all teams, or every unordered pair separately.
enum class ComparisonMode {
  kDirect,
  kCross,
};

/// Session-wide options for a DiverseDesign run.
struct WorkflowOptions {
  /// Shared execution knobs (rt/run_options.hpp), honoured by the whole
  /// session. `run.executor` (borrowed; null = serial) runs cross
  /// comparison's K(K-1)/2 pairs as independent tasks, with output
  /// identical to serial; submit builds one diagram and the direct
  /// comparison has none left to build, so neither needs the pool.
  /// `run.context` (borrowed, nullable) governs submission builds,
  /// comparison, and resolution alike: with a context set,
  /// cross_compare() reports per-pair status instead of throwing and
  /// compare_governed() returns partial results; the plain entry points
  /// let the dfw::Error propagate. `run.obs` (borrowed, nullable sinks)
  /// observes the session: each submission runs under a "workflow.submit"
  /// span holding its "construct" and "validate" phases, the direct
  /// comparison under "workflow.compare" once per submitted set, cross
  /// comparison under "workflow.cross_compare" with one "pair" span per
  /// unordered pair, and resolution under "workflow.resolve"; the
  /// underlying pipelines inherit the sinks.
  RunOptions run = {};
  ResolutionMethod resolution = ResolutionMethod::kCorrectedFdd;
  /// Team whose rule sequence method 2 prepends its corrections to.
  /// Method 1 ignores it: its result is the same from any team.
  std::size_t base_team = 0;
  ComparisonMode comparison = ComparisonMode::kDirect;
};

/// One pairwise comparison result from cross comparison. In a governed
/// session a pair cut short by cancellation/deadline/budget carries
/// complete = false and the cause in `status`; its discrepancies are the
/// partial findings up to the cut (empty when the pair never started).
struct PairwiseReport {
  std::size_t team_a = 0;
  std::size_t team_b = 0;
  std::vector<Discrepancy> discrepancies;
  bool complete = true;
  ErrorCode status = ErrorCode::kOk;

  friend bool operator==(const PairwiseReport&,
                         const PairwiseReport&) = default;
};

/// A diverse-design session. Move-only: it owns its teams' diagrams and
/// the comparison it keeps of them.
class DiverseDesign {
 public:
  /// Starts a session over the given decision vocabulary.
  explicit DiverseDesign(DecisionSet decisions, WorkflowOptions options = {});
  ~DiverseDesign();
  DiverseDesign(DiverseDesign&&) noexcept;
  DiverseDesign& operator=(DiverseDesign&&) noexcept;
  DiverseDesign(const DiverseDesign&) = delete;
  DiverseDesign& operator=(const DiverseDesign&) = delete;

  const WorkflowOptions& options() const { return options_; }

  /// Design phase: registers one team's firewall. All firewalls must share
  /// a schema and be comprehensive (validated on submit, in the team's
  /// diagram, which the session then keeps). Drops the comparison kept so
  /// far. Returns the team index.
  std::size_t submit(std::string team_name, Policy policy);

  std::size_t team_count() const { return policies_.size(); }
  const Policy& policy(std::size_t team) const;
  const std::vector<std::string>& team_names() const { return names_; }
  const DecisionSet& decisions() const { return decisions_; }

  /// Comparison phase, direct N-way (Section 7.3). Requires >= 2 teams.
  std::vector<Discrepancy> compare() const;

  /// Governed direct comparison: a breach of options().context becomes a
  /// partial CompareOutcome (complete = false, discrepancies found so
  /// far) instead of an exception. With a null context this is compare()
  /// wrapped in an always-complete outcome.
  CompareOutcome compare_governed() const;

  /// Comparison phase, cross comparison: one report per unordered pair,
  /// ordered (0,1), (0,2), ..., (K-2,K-1). With a pool executor the pairs
  /// run as independent tasks; the order and contents never change.
  std::vector<PairwiseReport> cross_compare() const;

  /// Human-readable report, Table-3 style, honouring
  /// options().comparison: one table for kDirect, one per pair for kCross.
  std::string report() const;

  /// Resolution phase: given an agreed decision per discrepancy (indices
  /// into compare()'s result), produce the final firewall using
  /// options().resolution and options().base_team. Equals
  /// resolve_via_fdd() or resolve_via_corrections() on the submitted
  /// policies. `base_team` must name a team; method 1 ignores it.
  Policy resolve(const ResolutionPlan& plan) const;
  /// Same, with the session options overridden per call.
  Policy resolve(const ResolutionPlan& plan, ResolutionMethod method,
                 std::size_t base_team = 0) const;

  /// Shortcut: resolve every discrepancy in favour of team `winner`.
  /// The result is then equivalent to `policy(winner)` but expressed
  /// through the chosen method — useful for testing and for adopting a
  /// reference team wholesale.
  Policy resolve_in_favour_of(std::size_t winner) const;
  Policy resolve_in_favour_of(std::size_t winner,
                              ResolutionMethod method,
                              std::size_t base_team) const;

 private:
  struct State;

  /// The kept direct comparison, run first if there is none. The caller
  /// holds the state's mutex.
  State& compared() const;

  DecisionSet decisions_;
  WorkflowOptions options_;
  std::vector<std::string> names_;
  std::vector<Policy> policies_;
  std::unique_ptr<State> state_;  // never null but when moved from
};

}  // namespace dfw
