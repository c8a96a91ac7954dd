// src/simplify: semantics-preserving simplification. Hand-built cases pin
// each transform (dead elimination, adjacent merge, run coalescing); a
// randomized harness checks soundness by brute force on tiny schemas and
// by canonical-FDD identity on the real corpus and on synthetic fleets;
// governance tests pin the fail-safe contract (a budget breach hands back
// the ORIGINAL policy, marked).

#include "simplify/simplify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "adapters/cisco.hpp"
#include "adapters/iptables.hpp"
#include "fdd/arena.hpp"
#include "fdd/compare.hpp"
#include "fw/parser.hpp"
#include "obs/metrics.hpp"
#include "rt/fault.hpp"
#include "synth/synth.hpp"
#include "test_util.hpp"

#ifndef DFW_CORPUS_DIR
#error "DFW_CORPUS_DIR must point at tests/corpus (set by CMake)"
#endif

namespace dfw {
namespace {

using test::all_packets;
using test::random_policy;
using test::tiny2;
using test::tiny3;

// ---------------------------------------------------------------------------
// Helpers

Rule make_rule(const Schema& schema, std::vector<IntervalSet> conjuncts,
               Decision decision) {
  return Rule(schema, std::move(conjuncts), decision);
}

/// Brute-force equivalence on a small universe: same first-match decision
/// — including the same fall-through set — for every packet.
void expect_same_mapping(const Policy& a, const Policy& b) {
  for (const Packet& p : all_packets(a.schema())) {
    const auto ia = a.first_match(p);
    const auto ib = b.first_match(p);
    ASSERT_EQ(ia.has_value(), ib.has_value());
    if (ia.has_value()) {
      EXPECT_EQ(a.rule(*ia).decision(), b.rule(*ib).decision());
    }
  }
}

/// Independent canonical-FDD identity check (exact for non-comprehensive
/// policies too): a fresh arena, not the one the pass proved in.
bool canonically_equal(const Policy& a, const Policy& b) {
  FddArena arena(a.schema());
  return arena.build_reduced(a) == arena.build_reduced(b);
}

std::vector<std::string> load_corpus(const std::string& subdir) {
  const std::filesystem::path dir =
      std::filesystem::path(DFW_CORPUS_DIR) / subdir;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> seeds;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    seeds.push_back(std::move(buf).str());
  }
  EXPECT_FALSE(seeds.empty()) << "empty corpus directory: " << dir;
  return seeds;
}

// ---------------------------------------------------------------------------
// Each transform, pinned on a hand-built policy.

TEST(Simplify, DeadRuleIsEliminatedAndProven) {
  const Schema s = tiny2();
  // Rule 1 is jointly shadowed by rule 0 (x 0-7 superset) — dead.
  Policy p(s, {make_rule(s, {IntervalSet(Interval(0, 7)),
                             IntervalSet(Interval(0, 3))},
                         kAccept),
               make_rule(s, {IntervalSet(Interval(2, 5)),
                             IntervalSet(Interval(1, 2))},
                         kDiscard),
               Rule::catch_all(s, kDiscard)});
  const SimplifyOutcome out = simplify_policy(p);
  EXPECT_EQ(out.report.rules_before, 3u);
  EXPECT_LT(out.report.rules_after, 3u);
  EXPECT_GE(out.report.stats.dead_eliminated, 1u);
  EXPECT_EQ(out.report.proof, ProofStatus::kProven);
  EXPECT_EQ(out.report.proof_discrepancies, 0u);
  EXPECT_TRUE(out.report.complete);
  expect_same_mapping(p, out.policy);
}

TEST(Simplify, AdjacentSingleFieldPairMerges) {
  const Schema s = tiny2();
  // Rules 0 and 1: same decision, identical y, x differs — one rule
  // written as two. The merged rule covers x 0-5.
  Policy p(s, {make_rule(s, {IntervalSet(Interval(0, 2)),
                             IntervalSet(Interval(0, 1))},
                         kAccept),
               make_rule(s, {IntervalSet(Interval(3, 5)),
                             IntervalSet(Interval(0, 1))},
                         kAccept),
               Rule::catch_all(s, kDiscard)});
  const SimplifyOutcome out = simplify_policy(p);
  EXPECT_EQ(out.report.rules_after, 2u);
  EXPECT_GE(out.report.stats.adjacent_merged, 1u);
  EXPECT_EQ(out.report.proof, ProofStatus::kProven);
  EXPECT_EQ(out.policy.rule(0).conjunct(0),
            IntervalSet(Interval(0, 5)));
  expect_same_mapping(p, out.policy);
}

TEST(Simplify, RunSubsumptionDropsTheNarrowSibling) {
  const Schema s = tiny2();
  // A same-decision run [narrow, broad]: narrow is NOT dead (it
  // first-matches), differs from broad in both fields (adjacency cannot
  // merge it), but within the run order is immaterial and broad contains
  // it.
  Policy p(s, {make_rule(s, {IntervalSet(Interval(2, 3)),
                             IntervalSet(Interval(1, 2))},
                         kAccept),
               make_rule(s, {IntervalSet(Interval(0, 7)),
                             IntervalSet(Interval(0, 3))},
                         kAccept),
               Rule::catch_all(s, kDiscard)});
  const SimplifyOutcome out = simplify_policy(p);
  EXPECT_EQ(out.report.rules_after, 2u);
  EXPECT_GE(out.report.stats.run_subsumed, 1u);
  EXPECT_EQ(out.report.proof, ProofStatus::kProven);
  expect_same_mapping(p, out.policy);
}

TEST(Simplify, RunMergesNonAdjacentSingleFieldPair) {
  const Schema s = tiny2();
  // Run [A, B, C]: A and C differ only in x, B differs from both in two
  // fields — adjacency never sees the A/C pair, run coalescing does.
  Policy p(s, {make_rule(s, {IntervalSet(Interval(0, 1)),
                             IntervalSet(Interval(0, 0))},
                         kAccept),
               make_rule(s, {IntervalSet(Interval(4, 5)),
                             IntervalSet(Interval(2, 3))},
                         kAccept),
               make_rule(s, {IntervalSet(Interval(6, 7)),
                             IntervalSet(Interval(0, 0))},
                         kAccept),
               Rule::catch_all(s, kDiscard)});
  const SimplifyOutcome out = simplify_policy(p);
  EXPECT_EQ(out.report.rules_after, 3u);
  EXPECT_GE(out.report.stats.run_merged, 1u);
  EXPECT_EQ(out.report.proof, ProofStatus::kProven);
  expect_same_mapping(p, out.policy);
}

TEST(Simplify, AlreadyMinimalPolicyIsUntouched) {
  const Schema s = tiny2();
  Policy p(s, {make_rule(s, {IntervalSet(Interval(0, 3)),
                             IntervalSet(Interval(0, 3))},
                         kAccept),
               Rule::catch_all(s, kDiscard)});
  const SimplifyOutcome out = simplify_policy(p);
  EXPECT_EQ(out.report.passes, 0u);
  EXPECT_EQ(out.report.rules_after, out.report.rules_before);
  // Nothing changed, so there is nothing to prove.
  EXPECT_EQ(out.report.proof, ProofStatus::kSkipped);
  EXPECT_TRUE(out.report.complete);
}

TEST(Simplify, WorksOnNonComprehensivePolicies) {
  const Schema s = tiny2();
  // No catch-all: the fall-through set is part of the semantics and every
  // transform must preserve it.
  Policy p(s, {make_rule(s, {IntervalSet(Interval(0, 3)),
                             IntervalSet(Interval(0, 1))},
                         kAccept),
               make_rule(s, {IntervalSet(Interval(0, 3)),
                             IntervalSet(Interval(2, 3))},
                         kAccept),
               make_rule(s, {IntervalSet(Interval(1, 2)),
                             IntervalSet(Interval(1, 2))},
                         kDiscard)});
  const SimplifyOutcome out = simplify_policy(p);
  EXPECT_LT(out.report.rules_after, out.report.rules_before);
  EXPECT_EQ(out.report.proof, ProofStatus::kProven);
  expect_same_mapping(p, out.policy);  // evaluate() covers fall-through
  EXPECT_TRUE(canonically_equal(p, out.policy));
}

TEST(Simplify, ToStringCoversEveryProofStatus) {
  EXPECT_STREQ(to_string(ProofStatus::kProven), "proven");
  EXPECT_STREQ(to_string(ProofStatus::kSkipped), "skipped");
  EXPECT_STREQ(to_string(ProofStatus::kAborted), "aborted");
  EXPECT_STREQ(to_string(ProofStatus::kRefuted), "refuted");
}

// ---------------------------------------------------------------------------
// Randomized soundness: on tiny universes every packet is checked against
// brute force; the pass's own proof must agree (kProven or untouched).

TEST(SimplifyRandom, BruteForceSoundOnTinySchemas) {
  std::mt19937_64 rng(77);
  for (const Schema& s : {tiny2(), tiny3()}) {
    for (int trial = 0; trial < 60; ++trial) {
      const Policy p = random_policy(s, 2 + trial % 12, rng);
      const SimplifyOutcome out = simplify_policy(p);
      ASSERT_TRUE(out.report.complete);
      ASSERT_TRUE(out.report.proof == ProofStatus::kProven ||
                  out.report.passes == 0)
          << "proof=" << to_string(out.report.proof);
      EXPECT_EQ(out.report.proof_discrepancies, 0u);
      EXPECT_LE(out.policy.size(), p.size());
      expect_same_mapping(p, out.policy);
    }
  }
}

TEST(SimplifyRandom, CorpusSeedsSimplifySound) {
  const Schema schema = five_tuple_schema();
  std::vector<Policy> policies;
  for (const std::string& seed : load_corpus("native")) {
    policies.push_back(parse_policy(schema, default_decisions(), seed));
  }
  for (const std::string& seed : load_corpus("iptables")) {
    policies.push_back(parse_iptables_save(seed, "INPUT"));
  }
  for (const std::string& seed : load_corpus("cisco")) {
    policies.push_back(parse_cisco_acl(seed, "101"));
  }
  ASSERT_FALSE(policies.empty());
  for (const Policy& p : policies) {
    const SimplifyOutcome out = simplify_policy(p);
    EXPECT_TRUE(out.report.complete);
    EXPECT_TRUE(out.report.proof == ProofStatus::kProven ||
                out.report.passes == 0);
    EXPECT_EQ(out.report.proof_discrepancies, 0u);
    EXPECT_TRUE(canonically_equal(p, out.policy));
  }
}

TEST(SimplifyRandom, SyntheticFleetSimplifiesSoundWithMeasurableReduction) {
  FleetSynthConfig config;
  config.sites = 8;
  config.base.num_rules = 40;
  config.seed = 20260808;
  const std::vector<Policy> fleet = make_fleet(config);
  ASSERT_EQ(fleet.size(), 8u);
  std::size_t before = 0;
  std::size_t after = 0;
  for (const Policy& p : fleet) {
    const SimplifyOutcome out = simplify_policy(p);
    ASSERT_TRUE(out.report.complete);
    ASSERT_EQ(out.report.proof, ProofStatus::kProven)
        << to_string(out.report.proof) << ": " << out.report.message;
    EXPECT_TRUE(canonically_equal(p, out.policy));
    EXPECT_TRUE(equivalent(p, out.policy));  // fleets are comprehensive
    before += out.report.rules_before;
    after += out.report.rules_after;
  }
  // The generator salts every site with exact duplicates and split pairs;
  // the pass must claw a measurable share back.
  EXPECT_LT(after, before);
  EXPECT_LE(after * 10, before * 9);  // >= 10% reduction across the fleet
}

// ---------------------------------------------------------------------------
// make_fleet contract

TEST(FleetSynth, SitePoliciesAreIndependentOfFleetSize) {
  FleetSynthConfig small;
  small.sites = 3;
  small.base.num_rules = 30;
  FleetSynthConfig big = small;
  big.sites = 6;
  const std::vector<Policy> a = make_fleet(small);
  const std::vector<Policy> b = make_fleet(big);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "site " << i;
    for (std::size_t r = 0; r < a[i].size(); ++r) {
      EXPECT_EQ(a[i].rule(r).conjuncts(), b[i].rule(r).conjuncts());
      EXPECT_EQ(a[i].rule(r).decision(), b[i].rule(r).decision());
    }
  }
}

TEST(FleetSynth, SitesShareObjectGroupsButDiffer) {
  FleetSynthConfig config;
  config.sites = 4;
  config.base.num_rules = 30;
  const std::vector<Policy> fleet = make_fleet(config);
  ASSERT_EQ(fleet.size(), 4u);
  for (const Policy& p : fleet) {
    EXPECT_TRUE(p.last_rule_is_catch_all());
    EXPECT_GT(p.size(), 1u);
  }
  // Per-site perturbation + carve-outs: sites are not clones.
  bool any_differ = false;
  for (std::size_t i = 1; i < fleet.size() && !any_differ; ++i) {
    any_differ = fleet[i].size() != fleet[0].size() ||
                 !equivalent(fleet[i], fleet[0]);
  }
  EXPECT_TRUE(any_differ);
}

TEST(FleetSynth, RejectsBadGeometry) {
  FleetSynthConfig config;
  config.sites = 0;
  EXPECT_THROW((void)make_fleet(config), std::invalid_argument);
  config.sites = 1;
  config.duplicate_percent = 101;
  EXPECT_THROW((void)make_fleet(config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Governance: the fail-safe contract.

TEST(SimplifyGovern, BudgetBreachReturnsTheOriginalMarked) {
  // A policy big enough that the dead-rule scan blows a tiny node budget.
  FleetSynthConfig config;
  config.sites = 1;
  config.base.num_rules = 120;
  const Policy p = make_fleet(config)[0];

  RunContext::Config rc;
  rc.budgets.max_nodes = 10;
  RunContext context(std::move(rc));
  RunOptions run;
  run.context = &context;
  const SimplifyOutcome out = simplify_policy(p, run);
  EXPECT_FALSE(out.report.complete);
  EXPECT_NE(out.report.status, ErrorCode::kOk);
  EXPECT_FALSE(out.report.message.empty());
  EXPECT_EQ(out.report.proof, ProofStatus::kAborted);
  // Fail safe: the original comes back byte-for-byte.
  EXPECT_EQ(out.report.rules_after, out.report.rules_before);
  ASSERT_EQ(out.policy.size(), p.size());
  for (std::size_t r = 0; r < p.size(); ++r) {
    EXPECT_EQ(out.policy.rule(r).conjuncts(), p.rule(r).conjuncts());
  }
}

// ---------------------------------------------------------------------------
// Unwind safety. Every round's chain and the proof share one arena; a
// breach or a fault anywhere in it hands back the original, and an arena
// that saw one, its prefix-extension memo and overlay scratch included,
// still analyses exactly.

Policy fleet_site(std::size_t rules) {
  FleetSynthConfig config;
  config.sites = 1;
  config.base.num_rules = rules;
  return make_fleet(config)[0];
}

void expect_original_back(const SimplifyOutcome& out, const Policy& p,
                          ErrorCode code, const std::string& what) {
  EXPECT_FALSE(out.report.complete) << what;
  EXPECT_EQ(out.report.status, code) << what;
  EXPECT_EQ(out.report.proof, ProofStatus::kAborted) << what;
  EXPECT_EQ(out.report.rules_after, out.report.rules_before) << what;
  EXPECT_EQ(out.policy.rules(), p.rules()) << what;
  EXPECT_FALSE(out.analysis.has_value()) << what;
}

TEST(SimplifyGovern, BreachInAnyRoundsChainHandsBackTheOriginal) {
  const Policy p = fleet_site(120);
  // What the original's chain charges, and what the whole pass does.
  RunContext probe;
  (void)PolicyAnalysis(p, &probe);
  const std::size_t first_chain = probe.nodes_charged();
  RunContext whole;
  RunOptions run;
  run.context = &whole;
  const SimplifyOutcome done = simplify_policy(p, run);
  ASSERT_TRUE(done.report.complete);
  ASSERT_GT(done.report.passes, 0u);
  ASSERT_GT(whole.nodes_charged(), first_chain + 1)
      << "later rounds' chains must materialise nodes too";
  for (const std::size_t budget : {first_chain / 2, first_chain + 1}) {
    const std::string what = "node budget " + std::to_string(budget);
    MetricsRegistry metrics;
    RunContext tight = RunContext::with_budgets({.max_nodes = budget});
    run.context = &tight;
    run.obs.metrics = &metrics;
    expect_original_back(simplify_policy(p, run), p,
                         ErrorCode::kNodeBudgetExceeded, what);
    // The original's chain breaches, or a later round's does.
    const std::uint64_t chains =
        metrics.snapshot().histograms.at("phase.prefix_roots_ns").count;
    if (budget < first_chain) {
      EXPECT_EQ(chains, 1u) << what;
    } else {
      EXPECT_GE(chains, 2u) << what;
    }
  }
}

TEST(SimplifyGovern, ArenaFaultHandsBackTheOriginal) {
  const Policy p = fleet_site(120);
  for (const std::uint64_t fire_on : {3u, 300u}) {
    const std::string what = "fault on hit " + std::to_string(fire_on);
    FaultSpec spec;
    spec.site = fault::sites::kArenaAlloc;
    spec.fire_on = fire_on;
    FaultPlan plan(1, {spec});
    RunOptions run;
    run.faults = &plan;
    expect_original_back(simplify_policy(p, run), p,
                         ErrorCode::kFaultInjected, what);
    EXPECT_EQ(plan.total_fires(), 1u) << what;
  }
}

TEST(SimplifyGovern, SharedArenaRederivesExactlyAfterAnUnwind) {
  // simplify's versions in one arena, then lint's redundancy overlays on
  // the last: a budget breaching in the original's chain, in the later
  // version's chain or in the overlays, or an arena fault, unwinds it
  // mid-walk. Detached, the same arena then re-derives every version's
  // dead and redundant sets as a fresh arena does.
  const Policy p = fleet_site(120);
  const Policy simplified = simplify_policy(p).policy;
  ASSERT_LT(simplified.size(), p.size());
  const auto walk = [&](const std::shared_ptr<AnalysisArena>& shared) {
    (void)PolicyAnalysis(shared, p).dead();
    (void)PolicyAnalysis(shared, simplified).redundant();
  };
  RunContext probe;
  auto measured = std::make_shared<AnalysisArena>(p.schema());
  measured->arena.set_context(&probe);
  (void)PolicyAnalysis(measured, p);
  const std::size_t first_chain = probe.nodes_charged();
  (void)PolicyAnalysis(measured, simplified);
  const std::size_t both_chains = probe.nodes_charged();
  walk(measured);
  ASSERT_GT(both_chains, first_chain + 1);
  ASSERT_GT(probe.nodes_charged(), both_chains + 1);

  const auto rederives = [&](const std::shared_ptr<AnalysisArena>& shared,
                             const std::string& what) {
    shared->arena.set_context(nullptr);
    shared->arena.set_faults(nullptr);
    for (const Policy* version : {&p, &simplified}) {
      PolicyAnalysis again(shared, *version);
      PolicyAnalysis fresh(*version);
      EXPECT_EQ(again.dead(), fresh.dead()) << what;
      EXPECT_EQ(again.redundant(), fresh.redundant()) << what;
      EXPECT_EQ(fresh.arena().import(again.arena(), again.root()),
                fresh.root())
          << what;
    }
  };
  for (const std::size_t budget :
       {first_chain / 2, first_chain + 1, both_chains + 1}) {
    const std::string what = "node budget " + std::to_string(budget);
    RunContext tight = RunContext::with_budgets({.max_nodes = budget});
    auto shared = std::make_shared<AnalysisArena>(p.schema());
    shared->arena.set_context(&tight);
    EXPECT_THROW(walk(shared), Error) << what;
    EXPECT_EQ(tight.abort_code(), ErrorCode::kNodeBudgetExceeded) << what;
    rederives(shared, what);
  }
  for (const std::uint64_t fire_on : {3u, 300u}) {
    const std::string what = "fault on hit " + std::to_string(fire_on);
    FaultSpec spec;
    spec.site = fault::sites::kArenaAlloc;
    spec.fire_on = fire_on;
    FaultPlan plan(1, {spec});
    auto shared = std::make_shared<AnalysisArena>(p.schema());
    shared->arena.set_faults(&plan);
    EXPECT_THROW(walk(shared), Error) << what;
    EXPECT_EQ(plan.total_fires(), 1u) << what;
    rederives(shared, what);
  }
}

TEST(SimplifyGovern, MetricsCountRemovalsAndProofs) {
  const Schema s = tiny2();
  Policy p(s, {make_rule(s, {IntervalSet(Interval(0, 7)),
                             IntervalSet(Interval(0, 3))},
                         kAccept),
               make_rule(s, {IntervalSet(Interval(2, 5)),
                             IntervalSet(Interval(1, 2))},
                         kDiscard),  // dead
               Rule::catch_all(s, kDiscard)});
  MetricsRegistry metrics;
  RunOptions run;
  run.obs.metrics = &metrics;
  const SimplifyOutcome out = simplify_policy(p, run);
  ASSERT_EQ(out.report.proof, ProofStatus::kProven);
  const MetricsSnapshot snap = metrics.snapshot();
  const auto removed = snap.counters.find("simplify.rules_removed");
  ASSERT_NE(removed, snap.counters.end());
  EXPECT_GE(removed->second, 1u);
  const auto proven = snap.counters.find("simplify.proof.proven");
  ASSERT_NE(proven, snap.counters.end());
  EXPECT_GE(proven->second, 1u);
}

}  // namespace
}  // namespace dfw
