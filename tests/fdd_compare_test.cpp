// Comparison algorithm tests (Section 5): the discrepancy set must equal —
// exactly — the set of packets on which the two firewalls disagree, as
// verified by brute force on small universes.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "fdd/shape.hpp"
#include "rt/executor.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::all_packets;
using test::tiny2;
using test::tiny3;

// Returns the packets whose membership in some discrepancy is claimed.
std::vector<bool> covered_mask(const Schema& schema,
                               const std::vector<Discrepancy>& diffs) {
  const std::vector<Packet> packets = all_packets(schema);
  std::vector<bool> mask(packets.size(), false);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    for (const Discrepancy& d : diffs) {
      bool inside = true;
      for (std::size_t f = 0; f < packets[i].size(); ++f) {
        inside = inside && d.conjuncts[f].contains(packets[i][f]);
      }
      if (inside) {
        mask[i] = true;
        break;
      }
    }
  }
  return mask;
}

TEST(FddCompare, EquivalentPoliciesHaveNoDiscrepancies) {
  std::mt19937_64 rng(1);
  const Policy p = test::random_policy(tiny3(), 6, rng);
  EXPECT_TRUE(discrepancies(p, p).empty());
  EXPECT_TRUE(equivalent(p, p));
}

TEST(FddCompare, DiscrepanciesExactlyCoverDisagreeingPackets) {
  std::mt19937_64 rng(2);
  for (int trial = 0; trial < 40; ++trial) {
    const Policy pa = test::random_policy(tiny3(), 5, rng);
    const Policy pb = test::random_policy(tiny3(), 5, rng);
    const std::vector<Discrepancy> diffs = discrepancies(pa, pb);
    const std::vector<Packet> packets = all_packets(tiny3());
    const std::vector<bool> covered = covered_mask(tiny3(), diffs);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const bool disagree =
          pa.evaluate(packets[i]) != pb.evaluate(packets[i]);
      EXPECT_EQ(covered[i], disagree)
          << "trial " << trial << " packet " << i;
    }
  }
}

TEST(FddCompare, ReportedDecisionsMatchThePolicies) {
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Policy pa = test::random_policy(tiny2(), 4, rng);
    const Policy pb = test::random_policy(tiny2(), 4, rng);
    for (const Discrepancy& d : discrepancies(pa, pb)) {
      // Every packet in the class maps to the reported pair.
      for (const Packet& p : all_packets(tiny2())) {
        bool inside = true;
        for (std::size_t f = 0; f < p.size(); ++f) {
          inside = inside && d.conjuncts[f].contains(p[f]);
        }
        if (inside) {
          EXPECT_EQ(pa.evaluate(p), d.decisions[0]);
          EXPECT_EQ(pb.evaluate(p), d.decisions[1]);
        }
      }
    }
  }
}

TEST(FddCompare, DiscrepancyClassesArePairwiseDisjoint) {
  std::mt19937_64 rng(4);
  const Policy pa = test::random_policy(tiny3(), 6, rng);
  const Policy pb = test::random_policy(tiny3(), 6, rng);
  const std::vector<Discrepancy> diffs = discrepancies(pa, pb);
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    for (std::size_t j = i + 1; j < diffs.size(); ++j) {
      bool overlap_all_fields = true;
      for (std::size_t f = 0; f < diffs[i].conjuncts.size(); ++f) {
        overlap_all_fields =
            overlap_all_fields &&
            diffs[i].conjuncts[f].overlaps(diffs[j].conjuncts[f]);
      }
      EXPECT_FALSE(overlap_all_fields)
          << "classes " << i << " and " << j << " overlap";
    }
  }
}

TEST(FddCompare, RequiresSemiIsomorphicInputs) {
  std::mt19937_64 rng(5);
  const Fdd fa = build_fdd(test::random_policy(tiny2(), 4, rng));
  const Fdd fb = build_fdd(test::random_policy(tiny2(), 4, rng));
  // Unshaped diagrams are (almost surely) not semi-isomorphic.
  if (!semi_isomorphic(fa, fb)) {
    EXPECT_THROW(compare_fdds(fa, fb), std::invalid_argument);
  }
}

bool inside(const Discrepancy& d, const Packet& p) {
  for (std::size_t f = 0; f < p.size(); ++f) {
    if (!d.conjuncts[f].contains(p[f])) {
      return false;
    }
  }
  return true;
}

// `policy` with rule i copied in again at position `at` (at > i): the copy
// is shadowed by the original, so the function is unchanged.
Policy with_duplicate(const Policy& policy, std::size_t i, std::size_t at) {
  std::vector<Rule> rules = policy.rules();
  rules.insert(rules.begin() + static_cast<std::ptrdiff_t>(at), rules[i]);
  return Policy(policy.schema(), std::move(rules));
}

TEST(FddCompare, NWayComparisonMatchesPairwise) {
  // K = 2..4 teams, one of them sometimes a duplicate of another, under
  // the inline executor and a pool: every packet on which the teams
  // disagree lies in exactly one discrepancy, which reports the teams'
  // decisions on it; packets they agree on lie in none; and the N-way
  // coverage is the union of the pairwise disagreement sets.
  Executor pool(2);
  for (Executor* executor : {static_cast<Executor*>(nullptr), &pool}) {
    CompareOptions options;
    options.run.executor = executor;
    std::mt19937_64 rng(6);
    for (int seed = 0; seed < 60; ++seed) {
      const Schema schema = seed % 2 == 0 ? tiny2() : tiny3();
      const std::size_t k = 2 + static_cast<std::size_t>(seed % 3);
      std::vector<Policy> teams;
      for (std::size_t i = 0; i < k; ++i) {
        teams.push_back(test::random_policy(schema, 4, rng));
      }
      if (seed % 4 == 0) {
        teams.back() = teams.front();
      }
      const std::vector<Discrepancy> nway = discrepancies_many(teams, options);
      for (const Discrepancy& d : nway) {
        EXPECT_EQ(d.decisions.size(), k);
      }
      std::vector<Discrepancy> pairwise;
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = a + 1; b < k; ++b) {
          const std::vector<Discrepancy> pair =
              discrepancies(teams[a], teams[b], options);
          pairwise.insert(pairwise.end(), pair.begin(), pair.end());
        }
      }
      for (const Packet& p : all_packets(schema)) {
        std::vector<Decision> votes;
        for (const Policy& team : teams) {
          votes.push_back(team.evaluate(p));
        }
        const bool agree = std::all_of(
            votes.begin(), votes.end(),
            [&](Decision d) { return d == votes.front(); });
        std::size_t hits = 0;
        for (const Discrepancy& d : nway) {
          if (inside(d, p)) {
            ++hits;
            EXPECT_EQ(d.decisions, votes) << "seed " << seed;
          }
        }
        EXPECT_EQ(hits, agree ? 0u : 1u) << "seed " << seed;
        const bool in_some_pair =
            std::any_of(pairwise.begin(), pairwise.end(),
                        [&](const Discrepancy& d) { return inside(d, p); });
        EXPECT_EQ(in_some_pair, !agree) << "seed " << seed;
      }
    }
  }
}

TEST(FddCompare, EquivalentHoldsExactlyWhenEveryPacketAgrees) {
  std::mt19937_64 rng(8);
  std::size_t equivalent_pairs = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Schema schema = trial % 2 == 0 ? tiny2() : tiny3();
    const Policy a = test::random_policy(schema, 5, rng);
    const std::size_t pick = static_cast<std::size_t>(trial / 4) % 4;
    Policy b = a;
    switch (trial % 4) {
      case 0:
        b = test::random_policy(schema, 5, rng);
        break;
      case 1:  // duplicate a rule right behind itself
        b = with_duplicate(a, pick, pick + 1);
        break;
      case 2:  // duplicate a rule just before the catch-all
        b = with_duplicate(a, pick, 4);
        break;
      default: {  // flip one decision: usually, not always, a change
        std::vector<Rule> rules = a.rules();
        const std::size_t i = static_cast<std::size_t>(trial) % 5;
        rules[i] = Rule(schema, rules[i].conjuncts(),
                        rules[i].decision() == kAccept ? kDiscard : kAccept);
        b = Policy(schema, std::move(rules));
      }
    }
    bool agree = true;
    for (const Packet& p : all_packets(schema)) {
      agree = agree && a.evaluate(p) == b.evaluate(p);
    }
    EXPECT_EQ(equivalent(a, b), agree) << "trial " << trial;
    EXPECT_EQ(equivalent(b, a), agree) << "trial " << trial;
    equivalent_pairs += agree ? 1 : 0;
  }
  EXPECT_GE(equivalent_pairs, 100u);
  EXPECT_LT(equivalent_pairs, 200u);

  const Schema schema = tiny2();
  const Policy partial(
      schema,
      {Rule(schema, {IntervalSet(Interval(0, 3)), IntervalSet(Interval(0, 7))},
            kAccept)});
  const Policy full(schema, {Rule::catch_all(schema, kDiscard)});
  EXPECT_THROW(equivalent(partial, full), std::logic_error);
  EXPECT_THROW(equivalent(full, partial), std::logic_error);
  const Policy other(tiny3(), {Rule::catch_all(tiny3(), kDiscard)});
  EXPECT_THROW(equivalent(full, other), std::invalid_argument);
}

TEST(FddCompare, NonComprehensiveInputRejected) {
  const Schema schema = tiny2();
  const Policy partial(
      schema,
      {Rule(schema, {IntervalSet(Interval(0, 3)), IntervalSet(Interval(0, 7))},
            kAccept)});
  const Policy full(schema, {Rule::catch_all(schema, kDiscard)});
  EXPECT_THROW(discrepancies(partial, full), std::logic_error);
}

TEST(FddCompare, PacketCountIsExact) {
  Discrepancy d;
  d.conjuncts = {IntervalSet(Interval(0, 3)), IntervalSet(Interval(2, 5))};
  d.decisions = {kAccept, kDiscard};
  EXPECT_EQ(discrepancy_packet_count(d), 16u);
}

TEST(FddCompare, TotalDisagreementReportsWholeSpace) {
  const Schema schema = tiny2();
  const Policy all_accept(schema, {Rule::catch_all(schema, kAccept)});
  const Policy all_discard(schema, {Rule::catch_all(schema, kDiscard)});
  const std::vector<Discrepancy> diffs =
      discrepancies(all_accept, all_discard);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(discrepancy_packet_count(diffs[0]),
            schema.packet_space_size());
}

}  // namespace
}  // namespace dfw
