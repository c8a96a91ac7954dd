// Anomaly-analysis tests: the four pair classes on hand-built policies,
// exactness of the dead-rule detector against brute force and against an
// independent reachability-based reference, agreement between the
// syntactic and semantic views, and determinism of the parallel pair scan
// against the serial path.

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/anomaly.hpp"
#include "fdd/arena.hpp"
#include "fdd/construct.hpp"
#include "query/query.hpp"
#include "rt/executor.hpp"
#include "rt/govern.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::tiny2;
using test::tiny3;

Rule rule(const Schema& s, Interval x, Interval y, Decision d) {
  return Rule(s, {IntervalSet(x), IntervalSet(y)}, d);
}

bool has(const std::vector<Anomaly>& anomalies, AnomalyKind kind,
         std::size_t first, std::size_t second) {
  for (const Anomaly& a : anomalies) {
    if (a.kind == kind && a.first == first && a.second == second) {
      return true;
    }
  }
  return false;
}

TEST(Anomaly, PredicateSubsetAndOverlap) {
  const Schema s = tiny2();
  const Rule big = rule(s, Interval(0, 7), Interval(0, 7), kAccept);
  const Rule small = rule(s, Interval(2, 3), Interval(2, 3), kDiscard);
  const Rule side = rule(s, Interval(4, 7), Interval(0, 1), kDiscard);
  EXPECT_TRUE(predicate_subset(small, big));
  EXPECT_FALSE(predicate_subset(big, small));
  EXPECT_TRUE(predicates_overlap(big, small));
  EXPECT_FALSE(predicates_overlap(small, side));
}

TEST(Anomaly, ShadowingDetected) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 5), Interval(0, 7), kAccept),
                     rule(s, Interval(1, 2), Interval(1, 2), kDiscard),
                     Rule::catch_all(s, kDiscard)});
  const std::vector<Anomaly> anomalies = find_anomalies(p);
  EXPECT_TRUE(has(anomalies, AnomalyKind::kShadowing, 0, 1));
}

TEST(Anomaly, GeneralizationDetected) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(1, 2), Interval(1, 2), kDiscard),
                     rule(s, Interval(0, 5), Interval(0, 7), kAccept),
                     Rule::catch_all(s, kDiscard)});
  const std::vector<Anomaly> anomalies = find_anomalies(p);
  EXPECT_TRUE(has(anomalies, AnomalyKind::kGeneralization, 0, 1));
  EXPECT_FALSE(has(anomalies, AnomalyKind::kShadowing, 0, 1));
}

TEST(Anomaly, CorrelationDetected) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 4), Interval(0, 7), kAccept),
                     rule(s, Interval(2, 7), Interval(0, 7), kDiscard),
                     Rule::catch_all(s, kDiscard)});
  const std::vector<Anomaly> anomalies = find_anomalies(p);
  EXPECT_TRUE(has(anomalies, AnomalyKind::kCorrelation, 0, 1));
}

TEST(Anomaly, RedundancyPairDetected) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 5), Interval(0, 7), kAccept),
                     rule(s, Interval(1, 2), Interval(1, 2), kAccept),
                     Rule::catch_all(s, kDiscard)});
  const std::vector<Anomaly> anomalies = find_anomalies(p);
  EXPECT_TRUE(has(anomalies, AnomalyKind::kRedundancyPair, 0, 1));
}

TEST(Anomaly, BenignOverlapNotFlagged) {
  const Schema s = tiny2();
  // Overlapping, non-nested, same decision.
  const Policy p(s, {rule(s, Interval(0, 4), Interval(0, 7), kAccept),
                     rule(s, Interval(2, 7), Interval(0, 7), kAccept),
                     Rule::catch_all(s, kDiscard)});
  const std::vector<Anomaly> anomalies = find_anomalies(p);
  for (const Anomaly& a : anomalies) {
    EXPECT_FALSE(a.first == 0 && a.second == 1);
  }
}

TEST(Anomaly, DisjointRulesProduceNoAnomalies) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 3), Interval(0, 3), kAccept),
                     rule(s, Interval(4, 7), Interval(4, 7), kDiscard)});
  EXPECT_TRUE(find_anomalies(p).empty());
}

TEST(Anomaly, DeadRulesMatchBruteForce) {
  std::mt19937_64 rng(91);
  for (int trial = 0; trial < 25; ++trial) {
    const Policy p = test::random_policy(tiny3(), 6, rng);
    const std::vector<std::size_t> dead = dead_rules(p);
    // Brute force: a rule is dead iff no packet first-matches it.
    std::vector<bool> hit(p.size(), false);
    for (const Packet& pkt : test::all_packets(tiny3())) {
      hit[*p.first_match(pkt)] = true;
    }
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (!hit[i]) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(dead, expected) << "trial " << trial;
  }
}

TEST(Anomaly, DeadRuleFromCombinedCoverage) {
  // Neither earlier rule alone shadows rule 3, but together they do — the
  // pairwise scan cannot see it, the semantic check must.
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 3), Interval(0, 7), kAccept),
                     rule(s, Interval(4, 7), Interval(0, 7), kDiscard),
                     rule(s, Interval(2, 5), Interval(2, 5), kAccept),
                     Rule::catch_all(s, kDiscard)});
  const std::vector<std::size_t> dead = dead_rules(p);
  // Rules 1 and 2 already cover the whole space, so the trailing
  // catch-all is dead too.
  EXPECT_EQ(dead, (std::vector<std::size_t>{2, 3}));
  const std::vector<Anomaly> anomalies = find_anomalies(p);
  EXPECT_FALSE(has(anomalies, AnomalyKind::kShadowing, 0, 2));
  EXPECT_FALSE(has(anomalies, AnomalyKind::kShadowing, 1, 2));
}

TEST(Anomaly, ReportFormatsKindsAndRules) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 5), Interval(0, 7), kAccept),
                     rule(s, Interval(1, 2), Interval(1, 2), kDiscard),
                     Rule::catch_all(s, kDiscard)});
  const std::string report = format_anomaly_report(
      p, default_decisions(), find_anomalies(p), dead_rules(p));
  EXPECT_NE(report.find("[shadowing] r2 vs r1"), std::string::npos);
  EXPECT_NE(report.find("dead rules"), std::string::npos);
  const std::string clean = format_anomaly_report(
      p, default_decisions(), {}, {});
  EXPECT_NE(clean.find("anomalies: none"), std::string::npos);
  EXPECT_NE(clean.find("dead rules: none"), std::string::npos);
}

TEST(Anomaly, ParallelPairScanMatchesSerialExactly) {
  // The chunked parallel scan must reproduce the serial result *including
  // ordering*, whatever the thread count or chunk grain.
  std::mt19937_64 rng(113);
  for (int trial = 0; trial < 5; ++trial) {
    const Policy p = test::random_policy(tiny3(), 20, rng);
    const std::vector<Anomaly> serial = find_anomalies(p);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      Executor executor(threads);
      AnomalyOptions options;
      options.run.executor = &executor;
      options.row_grain = 3;  // force multiple chunks
      EXPECT_EQ(find_anomalies(p, options), serial)
          << "trial " << trial << ", threads " << threads;
    }
  }
}

TEST(Anomaly, GovernedPairScanAbortsOnTinyNodeBudget) {
  // The pair scan itself creates no nodes; a shared context someone else
  // has already breached must still stop it at the next checkpoint.
  std::mt19937_64 rng(7);
  const Policy p = test::random_policy(tiny3(), 12, rng);
  RunContext::Config config;
  config.budgets.max_nodes = 1;
  config.checkpoint_grain = 1;
  RunContext context(std::move(config));
  EXPECT_THROW(context.charge_nodes(2), Error);  // breach it
  AnomalyOptions options;
  options.run.context = &context;
  EXPECT_THROW(find_anomalies(p, options), Error);
  EXPECT_THROW(dead_rules(p, options), Error);
}

// Independent dead-rule reference: give rule i a fresh decision nothing
// else uses; i is dead iff that decision is unreachable in the rebuilt
// diagram. Exercises a completely different code path (full FDD build +
// reachability) than the incremental coverage walk under test.
std::vector<std::size_t> dead_rules_by_reachability(const Policy& p) {
  constexpr Decision kFresh = 9;
  std::vector<std::size_t> dead;
  for (std::size_t i = 0; i < p.size(); ++i) {
    std::vector<Rule> rules = p.rules();
    rules[i] = Rule(p.schema(), rules[i].conjuncts(), kFresh);
    const std::vector<Decision> reach = reachable_decisions(
        build_diagram(Policy(p.schema(), std::move(rules)), {}));
    if (std::find(reach.begin(), reach.end(), kFresh) == reach.end()) {
      dead.push_back(i);
    }
  }
  return dead;
}

TEST(Anomaly, DeadRulesMatchReachabilityReferenceOnRandomCorpus) {
  std::mt19937_64 rng(127);
  for (int trial = 0; trial < 10; ++trial) {
    const Policy p = test::random_policy(tiny3(), 8, rng);
    EXPECT_EQ(dead_rules(p), dead_rules_by_reachability(p))
        << "trial " << trial;
  }
}

TEST(Anomaly, DeadRulesExactOnNontrivialPrefixDiagrams) {
  // Prefix diagrams of some size: staggered cubes over [0,4095]^3
  // followed by exact duplicates. The duplicates (and only they) are dead,
  // so exactly their appends leave the canonical prefix root unchanged.
  const Schema s({{"a", Interval(0, 4095), FieldKind::kInteger},
                  {"b", Interval(0, 4095), FieldKind::kInteger},
                  {"c", Interval(0, 4095), FieldKind::kInteger}});
  std::vector<Rule> rules;
  const std::size_t n = 10;
  for (std::size_t i = 0; i < n; ++i) {
    const IntervalSet span(Interval(i * 64, i * 64 + 2048));
    rules.emplace_back(s, std::vector<IntervalSet>{span, span, span},
                       i % 2 == 0 ? kAccept : kDiscard);
  }
  for (std::size_t i = 0; i < n; ++i) {
    rules.push_back(rules[i]);  // exact duplicates: all dead
  }
  rules.push_back(Rule::catch_all(s, kDiscard));
  const Policy p(s, std::move(rules));
  EXPECT_GT(build_reduced_fdd(p).node_count(), 50u);  // nontrivial diagram
  const std::vector<std::size_t> dead = dead_rules(p);
  EXPECT_EQ(dead, dead_rules_by_reachability(p));
  for (std::size_t i = n; i < 2 * n; ++i) {
    EXPECT_NE(std::find(dead.begin(), dead.end(), i), dead.end()) << i;
  }
  // Governed run with a generous budget agrees with the ungoverned one.
  Budgets budgets;
  budgets.max_nodes = 1000000;
  RunContext context = RunContext::with_budgets(budgets);
  AnomalyOptions options;
  options.run.context = &context;
  EXPECT_EQ(dead_rules(p, options), dead);
  EXPECT_GT(context.nodes_charged(), 0u);
}

TEST(Anomaly, KindNames) {
  EXPECT_STREQ(to_string(AnomalyKind::kShadowing), "shadowing");
  EXPECT_STREQ(to_string(AnomalyKind::kGeneralization), "generalization");
  EXPECT_STREQ(to_string(AnomalyKind::kCorrelation), "correlation");
  EXPECT_STREQ(to_string(AnomalyKind::kRedundancyPair), "redundancy-pair");
}

}  // namespace
}  // namespace dfw
