// Resolution-phase tests: both methods must realise the agreed mapping
// exactly, for arbitrary plans, any base team, and N >= 2 teams.

#include <gtest/gtest.h>

#include "diverse/resolve.hpp"
#include "fdd/arena.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::all_packets;
using test::tiny3;

// Applies a plan's semantics by brute force: for packets in discrepancy i
// the agreed decision; elsewhere the (unanimous) team decision.
Decision expected_decision(const std::vector<Policy>& teams,
                           const std::vector<Discrepancy>& diffs,
                           const ResolutionPlan& plan, const Packet& pkt) {
  for (const Resolution& r : plan) {
    const Discrepancy& d = diffs[r.discrepancy_index];
    bool inside = true;
    for (std::size_t f = 0; f < pkt.size(); ++f) {
      inside = inside && d.conjuncts[f].contains(pkt[f]);
    }
    if (inside) {
      return r.agreed;
    }
  }
  return teams[0].evaluate(pkt);
}

class ResolveProperty : public ::testing::TestWithParam<int> {};

TEST_P(ResolveProperty, BothMethodsRealiseTheAgreedMapping) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<Policy> teams;
  for (int i = 0; i < 2; ++i) {
    teams.push_back(test::random_policy(tiny3(), 5, rng));
  }
  const std::vector<Discrepancy> diffs = discrepancies_many(teams);
  // Random plan: agree with a random team per discrepancy.
  ResolutionPlan plan;
  std::uniform_int_distribution<std::size_t> team_pick(0, teams.size() - 1);
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    plan.push_back(adopt(i, diffs[i], team_pick(rng)));
  }
  const Policy via_fdd = resolve_via_fdd(teams, plan);
  for (std::size_t base = 0; base < teams.size(); ++base) {
    const Policy via_corr = resolve_via_corrections(teams, plan, base);
    for (const Packet& pkt : all_packets(tiny3())) {
      const Decision want = expected_decision(teams, diffs, plan, pkt);
      EXPECT_EQ(via_fdd.evaluate(pkt), want) << "method 1";
      EXPECT_EQ(via_corr.evaluate(pkt), want) << "method 2, base " << base;
    }
  }
}

TEST_P(ResolveProperty, ThreeTeamsResolveConsistently) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 500);
  std::vector<Policy> teams;
  for (int i = 0; i < 3; ++i) {
    teams.push_back(test::random_policy(tiny3(), 4, rng));
  }
  const std::vector<Discrepancy> diffs = discrepancies_many(teams);
  ResolutionPlan plan;
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    plan.push_back(adopt(i, diffs[i], i % teams.size()));
  }
  const Policy m1 = resolve_via_fdd(teams, plan);
  const Policy m2 = resolve_via_corrections(teams, plan, 2);
  for (const Packet& pkt : all_packets(tiny3())) {
    EXPECT_EQ(m1.evaluate(pkt),
              expected_decision(teams, diffs, plan, pkt));
    EXPECT_EQ(m2.evaluate(pkt), m1.evaluate(pkt));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResolveProperty, ::testing::Range(0, 10));

TEST(Resolve, AdoptValidatesTeamIndex) {
  Discrepancy d;
  d.decisions = {kAccept, kDiscard};
  EXPECT_EQ(adopt(0, d, 1).agreed, kDiscard);
  EXPECT_THROW(adopt(0, d, 2), std::invalid_argument);
}

TEST(Resolve, PlanValidationCatchesGaps) {
  std::mt19937_64 rng(9);
  std::vector<Policy> teams = {test::random_policy(tiny3(), 5, rng),
                               test::random_policy(tiny3(), 5, rng)};
  const std::vector<Discrepancy> diffs = discrepancies_many(teams);
  if (diffs.empty()) {
    GTEST_SKIP() << "seed produced equivalent policies";
  }
  // Missing resolutions.
  EXPECT_THROW(resolve_via_fdd(teams, {}), std::invalid_argument);
  // Duplicate resolution.
  ResolutionPlan dup;
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    dup.push_back({i, kAccept});
  }
  dup.push_back({0, kDiscard});
  EXPECT_THROW(resolve_via_fdd(teams, dup), std::invalid_argument);
  // Out-of-range index.
  ResolutionPlan bad;
  bad.push_back({diffs.size(), kAccept});
  EXPECT_THROW(resolve_via_corrections(teams, bad, 0),
               std::invalid_argument);
}

TEST(Resolve, MajorityVotePlan) {
  Discrepancy two_one;
  two_one.decisions = {kAccept, kDiscard, kAccept};
  Discrepancy all_differ;
  all_differ.decisions = {kAccept, kDiscard, 2};
  const ResolutionPlan plan =
      plan_by_majority({two_one, all_differ}, /*arbiter_team=*/1);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].agreed, kAccept);   // 2:1 majority beats the arbiter
  EXPECT_EQ(plan[1].agreed, kDiscard);  // three-way tie: arbiter decides
  EXPECT_THROW(plan_by_majority({two_one}, 5), std::invalid_argument);
}

TEST(Resolve, MajorityVoteEndToEnd) {
  // Three teams, two agreeing: the majority plan makes the final firewall
  // equivalent to the two-team consensus wherever they agree.
  std::mt19937_64 rng(12);
  const Policy consensus = test::random_policy(tiny3(), 5, rng);
  const Policy outlier = test::random_policy(tiny3(), 5, rng);
  const std::vector<Policy> teams = {consensus, outlier, consensus};
  const std::vector<Discrepancy> diffs = discrepancies_many(teams);
  const Policy final_policy =
      resolve_via_fdd(teams, plan_by_majority(diffs, 1));
  for (const Packet& pkt : all_packets(tiny3())) {
    EXPECT_EQ(final_policy.evaluate(pkt), consensus.evaluate(pkt));
  }
}

TEST(Resolve, RejectsSingleTeam) {
  std::mt19937_64 rng(10);
  std::vector<Policy> one = {test::random_policy(tiny3(), 4, rng)};
  EXPECT_THROW(resolve_via_fdd(one, {}), std::invalid_argument);
}

TEST(Resolve, RejectsUnknownBaseTeam) {
  // Only method 2 takes a base team.
  std::mt19937_64 rng(11);
  std::vector<Policy> teams = {test::random_policy(tiny3(), 4, rng),
                               test::random_policy(tiny3(), 4, rng)};
  EXPECT_THROW(resolve_via_corrections(teams, {}, 5),
               std::invalid_argument);
}

// Method 1 overlays the corrections a team got wrong on that team's
// canonical diagram. The result is the canonical diagram of the resolved
// function, so starting from any team reaches the same id, and it is the
// diagram of method 2's policy for any base team.
TEST(Resolve, MethodOneIsTheCanonicalDiagramOfThePlan) {
  std::mt19937_64 rng(41);
  for (int round = 0; round < 120; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    const Schema schema = round % 2 == 0 ? test::tiny2() : tiny3();
    std::uniform_int_distribution<std::size_t> rules(1, 6);
    std::vector<Policy> teams;
    for (int t = 0; t < 2 + round % 3; ++t) {
      teams.push_back(test::random_policy(schema, rules(rng), rng));
    }
    const std::vector<Discrepancy> diffs = discrepancies_many(teams);
    ResolutionPlan plan;
    std::uniform_int_distribution<std::size_t> team_pick(0, teams.size() - 1);
    for (std::size_t i = 0; i < diffs.size(); ++i) {
      plan.push_back(adopt(i, diffs[i], team_pick(rng)));
    }
    const Policy resolved = resolve_via_fdd(teams, plan);
    for (const Packet& pkt : all_packets(schema)) {
      ASSERT_EQ(resolved.evaluate(pkt),
                expected_decision(teams, diffs, plan, pkt));
    }

    FddArena arena(schema);
    std::vector<ArenaNodeId> roots;
    for (const Policy& team : teams) {
      roots.push_back(arena.build_reduced(team));
    }
    for (std::size_t t = 0; t < teams.size(); ++t) {
      ArenaNodeId fix = FddArena::kEmpty;
      for (const Resolution& r : plan) {
        const Discrepancy& d = diffs[r.discrepancy_index];
        if (d.decisions[t] != r.agreed) {
          fix = arena.append_rule(fix, Rule(schema, d.conjuncts, r.agreed));
        }
      }
      EXPECT_EQ(arena.generate(arena.overlay(fix, roots[t])).rules(),
                resolved.rules())
          << "from team " << t;
    }
    for (std::size_t base = 0; base < teams.size(); ++base) {
      FddArena fresh(schema);
      const Policy method2 = resolve_via_corrections(teams, plan, base);
      EXPECT_EQ(fresh.generate(fresh.build_reduced(method2)).rules(),
                resolved.rules())
          << "method 2 from base " << base;
    }
  }
}

}  // namespace
}  // namespace dfw
