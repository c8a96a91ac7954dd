// Redundancy detection/removal tests (resolution method 2's engine), with
// a brute-force differential over tiny schemas: every entry point, and
// dead_rules from the same prefix roots, against its definition evaluated
// over every packet. Brute force cannot reach realistic policies, so
// metamorphic checks cover those.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "analysis/anomaly.hpp"
#include "analysis/policy_analysis.hpp"
#include "fdd/compare.hpp"
#include "gen/redundancy.hpp"
#include "rt/govern.hpp"
#include "simplify/simplify.hpp"
#include "synth/synth.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::tiny2;
using test::tiny3;

Rule rule(const Schema& s, Interval x, Interval y, Decision d) {
  return Rule(s, {IntervalSet(x), IntervalSet(y)}, d);
}

TEST(Redundancy, DetectsShadowedRule) {
  const Schema s = tiny2();
  // Rule 2 is fully shadowed by rule 1 (upward redundancy).
  const Policy p(s, {rule(s, Interval(0, 5), Interval(0, 7), kAccept),
                     rule(s, Interval(2, 4), Interval(1, 3), kDiscard),
                     Rule::catch_all(s, kDiscard)});
  EXPECT_FALSE(is_redundant(p, 0));
  EXPECT_TRUE(is_redundant(p, 1));
  EXPECT_FALSE(is_redundant(p, 2));
}

TEST(Redundancy, DetectsDownwardRedundantRule) {
  const Schema s = tiny2();
  // Rule 1 decides like the catch-all and nothing between them differs.
  const Policy p(s, {rule(s, Interval(0, 3), Interval(0, 7), kAccept),
                     Rule::catch_all(s, kAccept)});
  EXPECT_TRUE(is_redundant(p, 0));
}

TEST(Redundancy, CatchAllIsNotRedundantWhenItDecidesTraffic) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 3), Interval(0, 7), kAccept),
                     Rule::catch_all(s, kDiscard)});
  EXPECT_FALSE(is_redundant(p, 0));
  EXPECT_FALSE(is_redundant(p, 1));
}

TEST(Redundancy, RedundantRulesListsOriginalIndices) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 7), Interval(0, 7), kAccept),
                     rule(s, Interval(1, 2), Interval(1, 2), kDiscard),
                     rule(s, Interval(3, 4), Interval(3, 4), kDiscard),
                     Rule::catch_all(s, kAccept)});
  const std::vector<std::size_t> redundant = redundant_rules(p);
  // Rules 2 and 3 are shadowed; the catch-all duplicates rule 1's
  // decision, so removing *either* one alone preserves semantics.
  EXPECT_EQ(redundant, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Redundancy, RemoveRedundantPreservesSemantics) {
  std::mt19937_64 rng(55);
  for (int trial = 0; trial < 15; ++trial) {
    const Policy p = test::random_policy(tiny3(), 6, rng);
    const Policy trimmed = remove_redundant(p);
    EXPECT_LE(trimmed.size(), p.size());
    EXPECT_TRUE(equivalent(p, trimmed));
    // Nothing left to remove.
    EXPECT_TRUE(redundant_rules(trimmed).empty());
  }
}

TEST(Redundancy, DuplicateRulesCollapse) {
  const Schema s = tiny2();
  const Rule r = rule(s, Interval(0, 3), Interval(0, 3), kDiscard);
  const Policy p(s, {r, r, r, Rule::catch_all(s, kAccept)});
  const Policy trimmed = remove_redundant(p);
  EXPECT_EQ(trimmed.size(), 2u);
  EXPECT_TRUE(equivalent(p, trimmed));
}

TEST(Redundancy, SingleRulePolicyUntouched) {
  const Schema s = tiny2();
  const Policy p(s, {Rule::catch_all(s, kAccept)});
  EXPECT_FALSE(is_redundant(p, 0));
  EXPECT_EQ(remove_redundant(p).size(), 1u);
}

TEST(Redundancy, IndexOutOfRangeRejected) {
  const Schema s = tiny2();
  const Policy p(s, {Rule::catch_all(s, kAccept)});
  EXPECT_THROW(is_redundant(p, 1), std::out_of_range);
}

TEST(Redundancy, NonComprehensivePolicyHasNoRedundantRule) {
  const Schema s = tiny2();
  // x in [4,7] falls through. Rule 2 repeats rule 1, so dropping it would
  // keep even the partial mapping, but redundancy is defined on
  // comprehensive policies only.
  const Policy p(s, {rule(s, Interval(0, 3), Interval(0, 7), kAccept),
                     rule(s, Interval(0, 3), Interval(0, 7), kAccept)});
  EXPECT_FALSE(is_redundant(p, 0));
  EXPECT_FALSE(is_redundant(p, 1));
  EXPECT_TRUE(redundant_rules(p).empty());
  EXPECT_EQ(remove_redundant(p).rules(), p.rules());
}

TEST(Redundancy, TinyNodeBudgetThrows) {
  std::mt19937_64 rng(91);
  const Policy p = test::random_policy(tiny3(), 8, rng);
  Budgets tiny;
  tiny.max_nodes = 3;
  RunContext context = RunContext::with_budgets(tiny);
  EXPECT_THROW(redundant_rules(p, &context), Error);
  EXPECT_EQ(context.abort_code(), ErrorCode::kNodeBudgetExceeded);
  RunContext removal = RunContext::with_budgets(tiny);
  EXPECT_THROW(remove_redundant(p, &removal), Error);
  EXPECT_EQ(removal.abort_code(), ErrorCode::kNodeBudgetExceeded);
  // A budget that holds changes nothing.
  Budgets generous;
  generous.max_nodes = 1000000;
  RunContext governed = RunContext::with_budgets(generous);
  EXPECT_EQ(redundant_rules(p, &governed), redundant_rules(p));
  EXPECT_EQ(remove_redundant(p, &governed).rules(),
            remove_redundant(p).rules());
  EXPECT_GT(governed.nodes_charged(), 0u);
}

// ---------------------------------------------------------------------------
// Metamorphic checks on realistic policies, where brute force cannot go:
// removal keeps the mapping, leaves nothing redundant and is idempotent,
// the single-rule test agrees with the whole-policy one, and both passes
// decide as the built test does.

// The built test, through the public overlay: rule k can go from rules
// [0, k] followed by the rules whose diagram is `suffix` iff it is dead or
// overlay(p_k, suffix) == p_n.
bool built_test(PolicyAnalysis& a, std::size_t k, ArenaNodeId suffix) {
  const std::vector<ArenaNodeId>& prefix = a.prefix_roots();
  return prefix[k + 1] == prefix[k] ||
         a.arena().overlay(prefix[k], suffix) == a.root();
}

ArenaNodeId push_front(PolicyAnalysis& a, std::size_t k, ArenaNodeId suffix) {
  FddArena& arena = a.arena();
  return arena.overlay(
      arena.append_rule(FddArena::kEmpty, a.policy().rule(k)), suffix);
}

// redundant() and without_redundant() with the built test.
std::vector<std::size_t> redundant_by_built_test(const Policy& p) {
  PolicyAnalysis a(p);
  std::vector<std::size_t> result;
  if (!a.comprehensive()) {
    return result;
  }
  ArenaNodeId suffix = FddArena::kEmpty;
  for (std::size_t k = p.size(); k-- > 0;) {
    if (built_test(a, k, suffix)) {
      result.push_back(k);
    }
    suffix = push_front(a, k, suffix);
  }
  std::reverse(result.begin(), result.end());
  return result;
}

Policy without_redundant_by_built_test(const Policy& p) {
  PolicyAnalysis a(p);
  if (!a.comprehensive()) {
    return p;
  }
  std::vector<Rule> kept;
  ArenaNodeId suffix = FddArena::kEmpty;
  for (std::size_t k = p.size(); k-- > 0;) {
    if (!built_test(a, k, suffix)) {
      kept.push_back(p.rule(k));
      suffix = push_front(a, k, suffix);
    }
  }
  std::reverse(kept.begin(), kept.end());
  return Policy(p.schema(), std::move(kept));
}

void expect_removal_laws(const Policy& p, const std::string& name) {
  const Policy trimmed = remove_redundant(p);
  EXPECT_TRUE(equivalent(p, trimmed)) << name;
  EXPECT_EQ(remove_redundant(trimmed).rules(), trimmed.rules()) << name;
  EXPECT_TRUE(redundant_rules(trimmed).empty()) << name;
  const std::vector<std::size_t> redundant = redundant_rules(p);
  EXPECT_EQ(trimmed.size() < p.size(), !redundant.empty()) << name;
  EXPECT_EQ(redundant, redundant_by_built_test(p)) << name;
  EXPECT_EQ(trimmed.rules(), without_redundant_by_built_test(p).rules())
      << name;
  const std::size_t step = std::max<std::size_t>(1, p.size() / 4);
  for (std::size_t i = 0; i < p.size(); i += step) {
    const bool listed =
        std::binary_search(redundant.begin(), redundant.end(), i);
    EXPECT_EQ(is_redundant(p, i), listed) << name << ", rule " << i;
  }
}

TEST(RedundancyMetamorphic, SynthPoliciesAt400Rules) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SynthConfig config;
    config.num_rules = 400;
    Rng rng(seed);
    expect_removal_laws(synth_policy(config, rng),
                        "synth seed " + std::to_string(seed));
  }
}

TEST(RedundancyMetamorphic, SimplifiedFleetSitesAt400Rules) {
  FleetSynthConfig config;
  config.sites = 5;
  config.base.num_rules = 400;
  const std::vector<Policy> fleet = make_fleet(config);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const SimplifyOutcome simplified = simplify_policy(fleet[i]);
    ASSERT_TRUE(simplified.report.complete) << "site " << i;
    expect_removal_laws(simplified.policy, "site " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Brute-force differential.

// First-match decision of `rules` with rules[skip] left out, or nullopt
// when the packet falls through.
std::optional<Decision> decide(const std::vector<Rule>& rules,
                               const Packet& p,
                               std::size_t skip = SIZE_MAX) {
  for (std::size_t r = 0; r < rules.size(); ++r) {
    if (r != skip && rules[r].matches(p)) {
      return rules[r].decision();
    }
  }
  return std::nullopt;
}

// Rule i is redundant iff the rules decide every packet, and each the same
// way without rule i.
bool redundant_by_definition(const std::vector<Rule>& rules,
                             const std::vector<Packet>& packets,
                             std::size_t i) {
  for (const Packet& p : packets) {
    const std::optional<Decision> full = decide(rules, p);
    if (!full.has_value() || decide(rules, p, i) != full) {
      return false;
    }
  }
  return true;
}

// Rule i is dead iff no packet first-matches it.
bool dead_by_definition(const Policy& policy,
                        const std::vector<Packet>& packets, std::size_t i) {
  for (const Packet& p : packets) {
    if (policy.first_match(p) == i) {
      return false;
    }
  }
  return true;
}

// remove_redundant's greedy schedule, every test by definition.
std::vector<Rule> remove_by_definition(std::vector<Rule> rules,
                                       const std::vector<Packet>& packets) {
  bool removed = true;
  while (removed) {
    removed = false;
    for (std::size_t i = rules.size(); i-- > 0;) {
      if (redundant_by_definition(rules, packets, i)) {
        rules.erase(rules.begin() + static_cast<std::ptrdiff_t>(i));
        removed = true;
      }
    }
  }
  return rules;
}

// A random policy of 2-9 rules with more redundancy than random_policy
// alone: every other one repeats an earlier rule further down, and every
// fourth drops its catch-all, which usually leaves a gap.
Policy random_case(const Schema& schema, int trial, std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> size(2, 9);
  std::vector<Rule> rules = test::random_policy(schema, size(rng), rng).rules();
  if (trial % 2 == 0) {
    std::uniform_int_distribution<std::size_t> pick(0, rules.size() - 1);
    const std::size_t from = pick(rng);
    const Rule copy = rules[from];
    std::uniform_int_distribution<std::size_t> at(from + 1, rules.size());
    rules.insert(rules.begin() + static_cast<std::ptrdiff_t>(at(rng)), copy);
  }
  if (trial % 4 == 3) {
    rules.pop_back();
  }
  return Policy(schema, std::move(rules));
}

TEST(RedundancyDifferential, EveryEntryPointMatchesItsDefinition) {
  std::size_t redundant_seen = 0;
  std::size_t dead_seen = 0;
  std::size_t gaps_seen = 0;
  for (const Schema& schema : {tiny2(), tiny3()}) {
    const std::vector<Packet> packets = test::all_packets(schema);
    std::mt19937_64 rng(2004);
    for (int trial = 0; trial < 300; ++trial) {
      const Policy p = random_case(schema, trial, rng);
      const std::vector<Rule>& rules = p.rules();
      std::vector<std::size_t> redundant;
      std::vector<std::size_t> dead;
      for (std::size_t i = 0; i < p.size(); ++i) {
        const bool by_definition = redundant_by_definition(rules, packets, i);
        EXPECT_EQ(is_redundant(p, i), by_definition)
            << "trial " << trial << ", rule " << i;
        if (by_definition) {
          redundant.push_back(i);
        }
        if (dead_by_definition(p, packets, i)) {
          dead.push_back(i);
        }
      }
      EXPECT_EQ(redundant_rules(p), redundant) << "trial " << trial;
      EXPECT_EQ(dead_rules(p), dead) << "trial " << trial;
      const Policy trimmed = remove_redundant(p);
      EXPECT_EQ(trimmed.rules(), remove_by_definition(rules, packets))
          << "trial " << trial;
      EXPECT_EQ(remove_redundant(trimmed).rules(), trimmed.rules())
          << "trial " << trial << ": remove_redundant is not idempotent";
      redundant_seen += redundant.size();
      dead_seen += dead.size();
      gaps_seen += std::any_of(packets.begin(), packets.end(),
                               [&](const Packet& q) {
                                 return !decide(rules, q).has_value();
                               });
    }
  }
  // The corpus exercises every branch of the contract.
  EXPECT_GT(redundant_seen, 100u);
  EXPECT_GT(dead_seen, 100u);
  EXPECT_GT(gaps_seen, 10u);
}

// ---------------------------------------------------------------------------
// Versions of one policy analysed in one shared arena.

// A random rule over the schema: random conjuncts and decision.
Rule random_rule(const Schema& schema, std::mt19937_64& rng) {
  std::vector<IntervalSet> conjuncts;
  for (std::size_t f = 0; f < schema.field_count(); ++f) {
    conjuncts.push_back(test::random_set(schema.domain(f), rng));
  }
  std::uniform_int_distribution<int> coin(0, 1);
  return Rule(schema, std::move(conjuncts),
              coin(rng) == 0 ? kAccept : kDiscard);
}

// `p` with one rule replaced, inserted or erased.
Policy one_rule_edit(const Policy& p, std::mt19937_64& rng) {
  std::vector<Rule> rules = p.rules();
  std::uniform_int_distribution<std::size_t> at(0, rules.size() - 1);
  const std::size_t i = at(rng);
  std::uniform_int_distribution<int> kind(0, 2);
  switch (rules.size() > 1 ? kind(rng) : 0) {
    case 0:
      rules[i] = random_rule(p.schema(), rng);
      break;
    case 1:
      rules.insert(rules.begin() + static_cast<std::ptrdiff_t>(i),
                   random_rule(p.schema(), rng));
      break;
    default:
      rules.erase(rules.begin() + static_cast<std::ptrdiff_t>(i));
      break;
  }
  return Policy(p.schema(), std::move(rules));
}

// The analysis's chain is the append chain, id for id, in its own arena:
// whatever the prefix-extension memo served is what append_rule builds.
void expect_chain_is_append(const PolicyAnalysis& analysis,
                            const std::string& name) {
  FddArena& arena = analysis.arena();
  const std::vector<ArenaNodeId>& prefix = analysis.prefix_roots();
  ASSERT_EQ(prefix.size(), analysis.policy().size() + 1) << name;
  EXPECT_EQ(prefix.front(), FddArena::kEmpty) << name;
  for (std::size_t k = 0; k < analysis.policy().size(); ++k) {
    EXPECT_EQ(prefix[k + 1],
              arena.append_rule(prefix[k], analysis.policy().rule(k)))
        << name << ", prefix " << k + 1;
  }
}

TEST(RedundancyDifferential, SharedArenaVersionsMatchTheirDefinitions) {
  // A policy, a one-rule edit of it and its simplification, analysed in
  // that order in one arena: every answer read from it is the definition
  // evaluated over every packet, whatever the earlier versions left in the
  // arena and its prefix-extension memo.
  std::size_t memo_hits = 0;
  for (const Schema& schema : {tiny2(), tiny3()}) {
    const std::vector<Packet> packets = test::all_packets(schema);
    std::mt19937_64 rng(1994);
    for (int trial = 0; trial < 300; ++trial) {
      const Policy p = random_case(schema, trial, rng);
      const Policy edited = one_rule_edit(p, rng);
      const Policy simplified = simplify_policy(p).policy;
      const Policy* versions[] = {&p, &edited, &simplified};
      auto shared = std::make_shared<AnalysisArena>(schema);
      for (std::size_t v = 0; v < 3; ++v) {
        const Policy* version = versions[v];
        const std::string name = "trial " + std::to_string(trial) +
                                 ", version " + std::to_string(v);
        const std::size_t appends = shared->arena.stats().append_cache_misses;
        PolicyAnalysis analysis(shared, *version);
        memo_hits += shared->arena.stats().append_cache_misses == appends;
        const std::vector<Rule>& rules = version->rules();
        std::vector<std::size_t> dead;
        std::vector<std::size_t> redundant;
        for (std::size_t i = 0; i < rules.size(); ++i) {
          if (dead_by_definition(*version, packets, i)) {
            dead.push_back(i);
          }
          if (redundant_by_definition(rules, packets, i)) {
            redundant.push_back(i);
          }
        }
        EXPECT_EQ(analysis.dead(), dead) << name;
        EXPECT_EQ(analysis.redundant(), redundant) << name;
        EXPECT_EQ(analysis.without_redundant().rules(),
                  remove_by_definition(rules, packets))
            << name;
        expect_chain_is_append(analysis, name);
      }
    }
  }
  // Some later versions were served by the memo alone.
  EXPECT_GT(memo_hits, 100u);
}

TEST(RedundancyMetamorphic, SharedArenaAnswersAsAFreshOne) {
  // At five-tuple scale: the sets read from the shared arena, after the
  // policy's other versions, equal those a fresh arena gives.
  std::vector<Policy> policies;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SynthConfig config;
    config.num_rules = 200;
    Rng rng(seed);
    policies.push_back(synth_policy(config, rng));
  }
  FleetSynthConfig fleet;
  fleet.sites = 5;
  fleet.base.num_rules = 200;
  for (const Policy& site : make_fleet(fleet)) {
    policies.push_back(site);
  }
  std::mt19937_64 rng(7);
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const Policy& p = policies[i];
    const std::vector<Policy> versions = {p, one_rule_edit(p, rng),
                                          simplify_policy(p).policy};
    auto shared = std::make_shared<AnalysisArena>(p.schema());
    for (std::size_t v = 0; v < versions.size(); ++v) {
      const std::string name =
          "policy " + std::to_string(i) + ", version " + std::to_string(v);
      PolicyAnalysis analysis(shared, versions[v]);
      PolicyAnalysis fresh(versions[v]);
      EXPECT_EQ(analysis.comprehensive(), fresh.comprehensive()) << name;
      EXPECT_EQ(analysis.dead(), fresh.dead()) << name;
      EXPECT_EQ(analysis.redundant(), fresh.redundant()) << name;
      EXPECT_EQ(analysis.without_redundant().rules(),
                fresh.without_redundant().rules())
          << name;
      EXPECT_EQ(fresh.arena().import(analysis.arena(), analysis.root()),
                fresh.root())
          << name;
      expect_chain_is_append(analysis, name);
    }
  }
}

}  // namespace
}  // namespace dfw
