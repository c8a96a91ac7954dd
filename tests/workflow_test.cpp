// DiverseDesign session tests: submission gating, comparison phases,
// end-to-end resolution, and a differential check that a session, which
// builds each team's diagram once and keeps its comparison, answers every
// call exactly as the free pipelines do.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "diverse/discrepancy.hpp"
#include "diverse/workflow.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::tiny2;
using test::tiny3;

TEST(Workflow, SubmitValidatesComprehensiveness) {
  DiverseDesign session((DecisionSet()));
  const Schema s = tiny2();
  const Policy partial(
      s, {Rule(s, {IntervalSet(Interval(0, 3)), IntervalSet(Interval(0, 7))},
               kAccept)});
  EXPECT_THROW(session.submit("team", partial), std::logic_error);
  EXPECT_EQ(session.team_count(), 0u);
}

TEST(Workflow, SubmitRejectsSchemaMismatch) {
  std::mt19937_64 rng(1);
  DiverseDesign session((DecisionSet()));
  session.submit("a", test::random_policy(tiny2(), 3, rng));
  EXPECT_THROW(session.submit("b", test::random_policy(tiny3(), 3, rng)),
               std::invalid_argument);
}

TEST(Workflow, CompareNeedsTwoTeams) {
  std::mt19937_64 rng(2);
  DiverseDesign session((DecisionSet()));
  EXPECT_THROW(session.compare(), std::logic_error);
  session.submit("a", test::random_policy(tiny2(), 3, rng));
  EXPECT_THROW(session.compare(), std::logic_error);
  EXPECT_THROW(session.cross_compare(), std::logic_error);
}

TEST(Workflow, CrossCompareCoversAllPairs) {
  std::mt19937_64 rng(3);
  DiverseDesign session((DecisionSet()));
  for (int i = 0; i < 3; ++i) {
    session.submit("t" + std::to_string(i),
                   test::random_policy(tiny3(), 4, rng));
  }
  const std::vector<PairwiseReport> reports = session.cross_compare();
  ASSERT_EQ(reports.size(), 3u);  // (0,1), (0,2), (1,2)
  EXPECT_EQ(reports[0].team_a, 0u);
  EXPECT_EQ(reports[0].team_b, 1u);
  EXPECT_EQ(reports[2].team_a, 1u);
  EXPECT_EQ(reports[2].team_b, 2u);
}

TEST(Workflow, PairwiseUnionMatchesDirectComparison) {
  std::mt19937_64 rng(4);
  DiverseDesign session((DecisionSet()));
  for (int i = 0; i < 3; ++i) {
    session.submit("t" + std::to_string(i),
                   test::random_policy(tiny3(), 4, rng));
  }
  const std::vector<Discrepancy> direct = session.compare();
  const std::vector<PairwiseReport> pairs = session.cross_compare();
  // A packet is in some direct discrepancy iff it is in some pairwise one.
  for (const Packet& pkt : test::all_packets(tiny3())) {
    const auto in_any = [&](const std::vector<Discrepancy>& diffs) {
      for (const Discrepancy& d : diffs) {
        bool inside = true;
        for (std::size_t f = 0; f < pkt.size(); ++f) {
          inside = inside && d.conjuncts[f].contains(pkt[f]);
        }
        if (inside) {
          return true;
        }
      }
      return false;
    };
    bool in_pairwise = false;
    for (const PairwiseReport& r : pairs) {
      in_pairwise = in_pairwise || in_any(r.discrepancies);
    }
    EXPECT_EQ(in_any(direct), in_pairwise);
  }
}

TEST(Workflow, ResolveInFavourOfWinnerIsEquivalentToWinner) {
  std::mt19937_64 rng(5);
  DiverseDesign session((DecisionSet()));
  session.submit("a", test::random_policy(tiny3(), 5, rng));
  session.submit("b", test::random_policy(tiny3(), 5, rng));
  for (const ResolutionMethod method :
       {ResolutionMethod::kCorrectedFdd, ResolutionMethod::kPrependAndTrim}) {
    const Policy final_policy = session.resolve_in_favour_of(1, method, 0);
    EXPECT_TRUE(equivalent(final_policy, session.policy(1)));
  }
}

TEST(Workflow, MajorityVoteThroughTheSession) {
  // Two of three teams share a design; majority resolution reproduces it
  // through either method regardless of the base team.
  std::mt19937_64 rng(7);
  const Policy consensus = test::random_policy(tiny3(), 4, rng);
  const Policy outlier = test::random_policy(tiny3(), 4, rng);
  DiverseDesign session((DecisionSet()));
  session.submit("a", consensus);
  session.submit("b", outlier);
  session.submit("c", consensus);
  const ResolutionPlan plan = plan_by_majority(session.compare(), 0);
  for (const ResolutionMethod method :
       {ResolutionMethod::kCorrectedFdd, ResolutionMethod::kPrependAndTrim}) {
    const Policy final_policy = session.resolve(plan, method, 1);
    EXPECT_TRUE(equivalent(final_policy, consensus));
  }
}

TEST(Workflow, PolicyAccessorBounds) {
  DiverseDesign session((DecisionSet()));
  EXPECT_THROW(session.policy(0), std::out_of_range);
}

TEST(Workflow, ReportOnEquivalentTeamsSaysSo) {
  std::mt19937_64 rng(6);
  DiverseDesign session((DecisionSet()));
  const Policy p = test::random_policy(tiny2(), 4, rng);
  session.submit("a", p);
  session.submit("b", p);
  EXPECT_NE(session.report().find("equivalent"), std::string::npos);
}

// -- Differential: the session against the free pipelines -------------------

// K = 2..4 random teams over tiny2 or tiny3; every fifth seed duplicates
// team 0 as the last team.
std::vector<Policy> random_teams(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const Schema schema = seed % 2 == 0 ? tiny2() : tiny3();
  const std::size_t k = 2 + seed % 3;
  std::vector<Policy> teams;
  for (std::size_t i = 0; i < k; ++i) {
    teams.push_back(test::random_policy(schema, 2 + rng() % 5, rng));
  }
  if (seed % 5 == 0) {
    teams.back() = teams.front();
  }
  return teams;
}

std::vector<std::string> team_names(std::size_t k) {
  std::vector<std::string> names(k, "t");
  for (std::size_t i = 0; i < k; ++i) {
    names[i] += std::to_string(i);
  }
  return names;
}

DiverseDesign session_of(const std::vector<Policy>& teams) {
  DiverseDesign session((DecisionSet()));
  const std::vector<std::string> names = team_names(teams.size());
  for (std::size_t i = 0; i < teams.size(); ++i) {
    session.submit(names[i], teams[i]);
  }
  return session;
}

constexpr ResolutionMethod kMethods[] = {ResolutionMethod::kCorrectedFdd,
                                         ResolutionMethod::kPrependAndTrim};

// Majority of the teams' decisions, ties to team 0 (plan_by_majority's
// rule with arbiter 0), from the votes alone.
Decision majority(const std::vector<Decision>& votes) {
  const auto count = [&](Decision d) {
    return std::count(votes.begin(), votes.end(), d);
  };
  Decision best = votes[0];
  for (const Decision d : votes) {
    if (count(d) > count(best)) {
      best = d;
    }
  }
  return best;
}

// Everything a session answers, in one place so call orders can be
// compared.
struct Answers {
  std::vector<Discrepancy> compare;
  std::string report;
  std::vector<PairwiseReport> cross;
  std::vector<std::vector<Rule>> resolved;  // per method, per base team

  friend bool operator==(const Answers&, const Answers&) = default;
};

// Asks every question, starting at step `first` of the fixed order and
// wrapping around, so each rotation is a different call order.
Answers ask(const DiverseDesign& session, const ResolutionPlan& plan,
            std::size_t first) {
  Answers out;
  const std::size_t k = session.team_count();
  out.resolved.resize(2 * k);
  for (std::size_t step = 0; step < 4; ++step) {
    switch ((first + step) % 4) {
      case 0:
        out.compare = session.compare();
        break;
      case 1:
        out.report = session.report();
        break;
      case 2:
        out.cross = session.cross_compare();
        break;
      case 3:
        for (std::size_t m = 0; m < 2; ++m) {
          for (std::size_t base = 0; base < k; ++base) {
            out.resolved[m * k + base] =
                session.resolve(plan, kMethods[m], base).rules();
          }
        }
        break;
    }
  }
  return out;
}

// What the free pipelines answer for the same teams.
Answers expected(const std::vector<Policy>& teams, const ResolutionPlan& plan) {
  Answers out;
  out.compare = discrepancies_many(teams);
  out.report = format_discrepancy_report(teams[0].schema(), DecisionSet(),
                                         out.compare,
                                         team_names(teams.size()));
  for (std::size_t a = 0; a < teams.size(); ++a) {
    for (std::size_t b = a + 1; b < teams.size(); ++b) {
      out.cross.push_back({a, b, discrepancies(teams[a], teams[b])});
    }
  }
  for (const ResolutionMethod method : kMethods) {
    for (std::size_t base = 0; base < teams.size(); ++base) {
      out.resolved.push_back(
          (method == ResolutionMethod::kCorrectedFdd
               ? resolve_via_fdd(teams, plan)
               : resolve_via_corrections(teams, plan, base))
              .rules());
    }
  }
  return out;
}

TEST(WorkflowDifferential, SessionAnswersEqualTheFreePipelines) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const std::vector<Policy> teams = random_teams(seed);
    const ResolutionPlan plan =
        plan_by_majority(discrepancies_many(teams), 0);
    const Answers want = expected(teams, plan);
    const DiverseDesign session = session_of(teams);
    // Each seed starts in a different order, then asks everything again
    // in another: the kept comparison must not show.
    const Answers first = ask(session, plan, seed % 4);
    EXPECT_EQ(first.compare, want.compare);
    EXPECT_EQ(first.report, want.report);
    EXPECT_EQ(first.cross, want.cross);
    EXPECT_EQ(first.resolved, want.resolved);
    EXPECT_EQ(ask(session, plan, (seed + 1) % 4), first);

    // Every resolved policy decides each packet as the majority does.
    for (const std::vector<Rule>& rules : first.resolved) {
      const Policy resolved(teams[0].schema(), rules);
      for (const Packet& p : test::all_packets(teams[0].schema())) {
        std::vector<Decision> votes;
        for (const Policy& team : teams) {
          votes.push_back(team.evaluate(p));
        }
        ASSERT_EQ(resolved.evaluate(p), majority(votes));
      }
    }
  }
}

TEST(WorkflowDifferential, SubmitAfterCompareEqualsAFreshSession) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    std::vector<Policy> teams = random_teams(seed);
    std::mt19937_64 rng(seed + 1000);
    const Policy late = test::random_policy(teams[0].schema(), 4, rng);
    DiverseDesign session = session_of(teams);
    const ResolutionPlan before = plan_by_majority(session.compare(), 0);
    (void)session.resolve(before, ResolutionMethod::kCorrectedFdd, 0);
    session.submit(team_names(teams.size() + 1).back(), late);
    teams.push_back(late);

    const DiverseDesign fresh = session_of(teams);
    const std::vector<Discrepancy> after = session.compare();
    ASSERT_EQ(after, fresh.compare());
    for (const Discrepancy& d : after) {
      EXPECT_EQ(d.decisions.size(), teams.size());
    }
    const ResolutionPlan plan = plan_by_majority(after, 0);
    EXPECT_EQ(ask(session, plan, seed % 4), ask(fresh, plan, 0));
  }
}

}  // namespace
}  // namespace dfw
