// Governance tests: budgets, deadlines, and cancellation must cut the
// worst-case exponential pipelines short with a structured, partial
// result — and must be completely invisible (identical output) when
// disabled. The adversarial policy geometry is the one from
// bench/bench_worstcase.cpp: staggered pairwise-straddling intervals on
// every field, the worst case of Theorem 1's proof.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "diverse/resolve.hpp"
#include "diverse/workflow.hpp"
#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "fdd/reduce.hpp"
#include "fdd/shape.hpp"
#include "gen/generate.hpp"
#include "rt/govern.hpp"

namespace dfw {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

Schema worst_schema() {
  return Schema({{"a", Interval(0, 4095), FieldKind::kInteger},
                 {"b", Interval(0, 4095), FieldKind::kInteger},
                 {"c", Interval(0, 4095), FieldKind::kInteger}});
}

// Staggered intervals: rule i spans [i*s, 2048 + i*s], so every pair of
// rules straddles on every field. `flip` inverts the decisions, giving
// two policies that disagree almost everywhere.
Policy adversarial(std::size_t n, bool flip) {
  const Schema schema = worst_schema();
  std::vector<Rule> rules;
  const Value step = 2048 / static_cast<Value>(n + 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Value lo = static_cast<Value>(i + 1) * step;
    const Interval iv(lo, lo + 2048);
    const bool accept = (i % 2 == 0) != flip;
    rules.emplace_back(schema,
                       std::vector<IntervalSet>{IntervalSet(iv),
                                                IntervalSet(iv),
                                                IntervalSet(iv)},
                       accept ? kAccept : kDiscard);
  }
  rules.push_back(Rule::catch_all(schema, flip ? kAccept : kDiscard));
  return Policy(schema, std::move(rules));
}

Policy constant_policy(Decision d) {
  const Schema schema = worst_schema();
  return Policy(schema, {Rule::catch_all(schema, d)});
}

// ---------------------------------------------------------------------------
// The headline acceptance criterion: a 10k-node budget turns the
// worst-case exponential pair into a fast, clearly-marked partial result.

TEST(GovernTest, WorstCasePairUnderNodeBudgetFailsFastWithPartialReport) {
  // With hash-consing the symmetric adversarial geometry costs ~(2n-1)^2
  // arena nodes (a tree would pay the full (2n-1)^3 bound), so n = 128
  // wants ~65k nodes — far past the 10k budget.
  const Policy a = adversarial(128, false);
  const Policy b = adversarial(128, true);
  RunContext ctx = RunContext::with_budgets({.max_nodes = 10000});
  CompareOptions options;
  options.run.context = &ctx;
  const auto start = Clock::now();
  const CompareOutcome outcome = discrepancies_governed(a, b, options);
  const double elapsed = ms_since(start);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kNodeBudgetExceeded);
  EXPECT_FALSE(outcome.message.empty());
  EXPECT_LT(elapsed, 1000.0);
  EXPECT_GT(ctx.nodes_charged(), 10000u);
}

TEST(GovernTest, LabelBudgetAlsoCutsTheArenaPipeline) {
  const Policy a = adversarial(24, false);
  const Policy b = adversarial(24, true);
  RunContext ctx = RunContext::with_budgets({.max_label_bytes = 4096});
  CompareOptions options;
  options.run.context = &ctx;
  const CompareOutcome outcome = discrepancies_governed(a, b, options);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kLabelBudgetExceeded);
}

// ---------------------------------------------------------------------------
// Governance off (null context or no budgets) must be invisible.

TEST(GovernTest, NoBudgetsProducesIdenticalOutputOnBothPaths) {
  // Governed but idle, the pipeline reports exactly what the ungoverned
  // pipeline and the paper-literal tree reference report.
  const Policy a = adversarial(8, false);
  const Policy b = adversarial(8, true);
  const std::vector<Discrepancy> expected = discrepancies(a, b);
  ASSERT_FALSE(expected.empty());
  Fdd fa = build_fdd(a);
  Fdd fb = build_fdd(b);
  reduce(fa);
  reduce(fb);
  shape_pair(fa, fb);
  EXPECT_EQ(compare_fdds(fa, fb), expected);

  RunContext ctx;  // no budgets, no deadline, no cancellation
  CompareOptions governed;
  governed.run.context = &ctx;
  const CompareOutcome outcome = discrepancies_governed(a, b, governed);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kOk);
  EXPECT_TRUE(outcome.message.empty());
  EXPECT_EQ(outcome.discrepancies, expected);
}

TEST(GovernTest, GeneratedPolicyIdenticalWithIdleContext) {
  const Fdd fdd = build_reduced_fdd(adversarial(8, false));
  const Policy plain = generate_policy(fdd);
  RunContext ctx;
  GenerateOptions governed_options;
  governed_options.run.context = &ctx;
  const Policy governed = generate_policy(fdd, governed_options);
  EXPECT_EQ(plain.rules(), governed.rules());
  EXPECT_GT(ctx.rules_charged(), 0u);
}

TEST(GovernTest, RuleBudgetBoundsGeneration) {
  const Fdd fdd = build_reduced_fdd(adversarial(8, false));
  const std::size_t full = generate_policy(fdd).size();
  ASSERT_GT(full, 2u);
  RunContext ctx = RunContext::with_budgets({.max_rules = 2});
  GenerateOptions capped;
  capped.run.context = &ctx;
  try {
    (void)generate_policy(fdd, capped);
    FAIL() << "expected rule budget breach";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRuleBudgetExceeded);
  }
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines.

TEST(GovernTest, PreCancelledContextYieldsCancelledOutcome) {
  CancelSource source;
  source.cancel();
  RunContext::Config config;
  config.cancel = source.token();
  RunContext ctx(std::move(config));
  CompareOptions options;
  options.run.context = &ctx;
  const CompareOutcome outcome =
      discrepancies_governed(adversarial(6, false), adversarial(6, true),
                             options);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kCancelled);
  EXPECT_TRUE(outcome.discrepancies.empty());
}

TEST(GovernTest, ExpiredDeadlineYieldsDeadlineExceeded) {
  RunContext ctx = RunContext::after(std::chrono::milliseconds(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  CompareOptions options;
  options.run.context = &ctx;
  const CompareOutcome outcome =
      discrepancies_governed(adversarial(6, false), adversarial(6, true),
                             options);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kDeadlineExceeded);
}

TEST(GovernTest, CancellationCutsALongComparisonShort) {
  // Find a pair slow enough to measure against; on very fast machines the
  // latency claim is unmeasurable and the test skips.
  Policy a = constant_policy(kAccept);
  Policy b = constant_policy(kDiscard);
  double baseline = 0.0;
  for (const std::size_t n : {64u, 128u, 192u}) {
    a = adversarial(n, false);
    b = adversarial(n, true);
    const auto start = Clock::now();
    (void)discrepancies(a, b);
    baseline = ms_since(start);
    if (baseline >= 300.0) {
      break;
    }
  }
  if (baseline < 300.0) {
    GTEST_SKIP() << "machine too fast to measure cancellation latency";
  }

  CancelSource source;
  RunContext::Config config;
  config.cancel = source.token();
  RunContext ctx(std::move(config));
  CompareOptions options;
  options.run.context = &ctx;
  const auto start = Clock::now();
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    source.cancel();
  });
  const CompareOutcome outcome = discrepancies_governed(a, b, options);
  const double governed = ms_since(start);
  canceller.join();
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kCancelled);
  // The run must end well before the ungoverned baseline: cancellation
  // latency is one checkpoint grain plus an unwind, not a full pipeline.
  EXPECT_LT(governed, baseline);
}

// ---------------------------------------------------------------------------
// Cross comparison: one shared budget, per-pair status.

TEST(GovernTest, CrossCompareReportsPerPairStatusUnderSharedBudget) {
  const Policy trivial_a = constant_policy(kAccept);
  const Policy trivial_b = constant_policy(kDiscard);
  // Pairs reuse the submitted diagrams, so the heavy pair charges only
  // its import: ~305 nodes at n = 32 (~90 at n = 16, inside the margin
  // below).
  const Policy heavy = adversarial(32, false);

  // Probe 1: node cost of submitting all three teams (each submit builds
  // its team's diagram once). Deterministic, so the real run charges
  // exactly the same.
  RunContext submit_probe;
  WorkflowOptions probe_options;
  probe_options.comparison = ComparisonMode::kCross;
  probe_options.run.context = &submit_probe;
  DiverseDesign probe(default_decisions(), probe_options);
  probe.submit("a", trivial_a);
  probe.submit("b", trivial_b);
  probe.submit("heavy", heavy);
  const std::size_t submit_cost = submit_probe.nodes_charged();

  // Probe 2: node cost of the first (trivial) pair's comparison.
  RunContext pair_probe;
  CompareOptions pair_options;
  pair_options.run.context = &pair_probe;
  const CompareOutcome first_pair =
      discrepancies_governed(trivial_a, trivial_b, pair_options);
  ASSERT_TRUE(first_pair.complete);
  const std::size_t pair_cost = pair_probe.nodes_charged();

  // Budget: submissions + the trivial pair + a margin far below the
  // adversarial pair's cost. Pair (0,1) completes, pair (0,2) breaches,
  // pair (1,2) is skipped by the sticky abort.
  RunContext ctx = RunContext::with_budgets(
      {.max_nodes = submit_cost + pair_cost + 200});
  WorkflowOptions options;
  options.comparison = ComparisonMode::kCross;
  options.run.context = &ctx;
  DiverseDesign session(default_decisions(), options);
  session.submit("a", trivial_a);
  session.submit("b", trivial_b);
  session.submit("heavy", heavy);

  const std::vector<PairwiseReport> reports = session.cross_compare();
  ASSERT_EQ(reports.size(), 3u);

  EXPECT_TRUE(reports[0].complete);
  EXPECT_EQ(reports[0].status, ErrorCode::kOk);
  EXPECT_FALSE(reports[0].discrepancies.empty());

  EXPECT_FALSE(reports[1].complete);
  EXPECT_EQ(reports[1].status, ErrorCode::kNodeBudgetExceeded);

  EXPECT_FALSE(reports[2].complete);
  EXPECT_EQ(reports[2].status, ErrorCode::kNodeBudgetExceeded);
  EXPECT_TRUE(reports[2].discrepancies.empty())
      << "a skipped pair reports no findings";
}

TEST(GovernTest, GovernedDirectCompareMatchesUngovernedWhenIdle) {
  WorkflowOptions governed_options;
  RunContext ctx;
  governed_options.run.context = &ctx;
  DiverseDesign governed(default_decisions(), governed_options);
  DiverseDesign plain(default_decisions());
  for (DiverseDesign* session : {&governed, &plain}) {
    session->submit("a", adversarial(6, false));
    session->submit("b", adversarial(6, true));
  }
  const CompareOutcome outcome = governed.compare_governed();
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.status, ErrorCode::kOk);
  EXPECT_EQ(outcome.discrepancies, plain.compare());
}

TEST(GovernTest, PrependAndTrimResolutionIsGoverned) {
  // Method 2 removes redundant rules in an arena of its own; the session's
  // context governs that arena like the rest of resolution. Session a
  // measures what submission and comparison charge; session b's budget
  // lets exactly that through, so its resolution breaches.
  RunContext measured;
  WorkflowOptions options;
  options.run.context = &measured;
  DiverseDesign a(default_decisions(), options);
  a.submit("a", adversarial(6, false));
  a.submit("b", adversarial(6, true));
  const std::vector<Discrepancy> found = a.compare();
  ResolutionPlan plan;
  for (std::size_t i = 0; i < found.size(); ++i) {
    plan.push_back(adopt(i, found[i], 1));
  }
  const std::size_t compared = measured.nodes_charged();
  const Policy resolved = a.resolve(plan, ResolutionMethod::kPrependAndTrim, 0);
  EXPECT_GT(measured.nodes_charged(), compared);
  EXPECT_TRUE(equivalent(resolved, adversarial(6, true)));

  RunContext tight = RunContext::with_budgets({.max_nodes = compared + 1});
  options.run.context = &tight;
  DiverseDesign b(default_decisions(), options);
  b.submit("a", adversarial(6, false));
  b.submit("b", adversarial(6, true));
  EXPECT_EQ(b.compare(), found);
  EXPECT_EQ(tight.nodes_charged(), compared);
  EXPECT_THROW(b.resolve(plan, ResolutionMethod::kPrependAndTrim, 0), Error);
  EXPECT_EQ(tight.abort_code(), ErrorCode::kNodeBudgetExceeded);
}

TEST(GovernTest, SubmissionBreachPropagatesAsStructuredError) {
  // Submission validates by constructing the team FDD, so a hostile team
  // firewall is rejected at the session boundary — the plain entry points
  // let the structured error propagate rather than report partially. The
  // n = 64 geometry wants ~5.2k arena nodes, well past the 2k budget.
  RunContext ctx = RunContext::with_budgets({.max_nodes = 2000});
  WorkflowOptions options;
  options.run.context = &ctx;
  DiverseDesign session(default_decisions(), options);
  EXPECT_THROW(session.submit("a", adversarial(64, false)), Error);
  EXPECT_TRUE(ctx.aborted());
  EXPECT_EQ(ctx.abort_code(), ErrorCode::kNodeBudgetExceeded);
}

}  // namespace
}  // namespace dfw
