// Property-based tests on the end-to-end pipeline, parameterized over
// seeds: for every random policy pair over a tiny universe, (1) the
// constructed FDD is semantically equal to the policy, (2) shaping changes
// neither side's semantics, (3) the comparison output is a sound and
// complete description of the disagreement set, and (4) Theorem 1's
// (2n-1)^d bound holds for simple-rule policies.

#include <gtest/gtest.h>

#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "fdd/shape.hpp"
#include "fdd/stats.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::all_packets;
using test::tiny3;

class PipelineProperty : public ::testing::TestWithParam<int> {};

TEST_P(PipelineProperty, ConstructionPreservesFirstMatchSemantics) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const Policy p = test::random_policy(tiny3(), 7, rng);
  const Fdd fdd = build_fdd(p);
  fdd.validate();
  EXPECT_TRUE(test::fdd_matches_policy(fdd, p));
}

TEST_P(PipelineProperty, ShapingPreservesSemantics) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const Policy pa = test::random_policy(tiny3(), 6, rng);
  const Policy pb = test::random_policy(tiny3(), 6, rng);
  Fdd fa = build_fdd(pa);
  Fdd fb = build_fdd(pb);
  shape_pair(fa, fb);
  EXPECT_TRUE(semi_isomorphic(fa, fb));
  EXPECT_TRUE(test::fdd_matches_policy(fa, pa));
  EXPECT_TRUE(test::fdd_matches_policy(fb, pb));
}

TEST_P(PipelineProperty, ComparisonIsSoundAndComplete) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  const Policy pa = test::random_policy(tiny3(), 6, rng);
  const Policy pb = test::random_policy(tiny3(), 6, rng);
  const std::vector<Discrepancy> diffs = discrepancies(pa, pb);
  Value covered = 0;
  for (const Discrepancy& d : diffs) {
    covered += discrepancy_packet_count(d);
    EXPECT_NE(d.decisions[0], d.decisions[1]);
  }
  Value disagreement = 0;
  for (const Packet& pkt : all_packets(tiny3())) {
    if (pa.evaluate(pkt) != pb.evaluate(pkt)) {
      ++disagreement;
    }
  }
  // Classes are disjoint (verified in fdd_compare_test), so the total
  // packet count equals the brute-force disagreement count iff the classes
  // cover exactly the disagreement set.
  EXPECT_EQ(covered, disagreement);
}

TEST_P(PipelineProperty, Theorem1PathBoundHolds) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  // Simple rules only: single-interval conjuncts (the theorem's premise).
  const Schema schema = tiny3();
  std::vector<Rule> rules;
  const std::size_t n = 5;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::vector<IntervalSet> conjuncts;
    for (std::size_t f = 0; f < schema.field_count(); ++f) {
      conjuncts.emplace_back(test::random_interval(schema.domain(f), rng));
    }
    std::uniform_int_distribution<int> coin(0, 1);
    rules.emplace_back(schema, std::move(conjuncts),
                       coin(rng) == 0 ? kAccept : kDiscard);
  }
  rules.push_back(Rule::catch_all(schema, kDiscard));
  const Policy p(schema, std::move(rules));
  const Fdd fdd = build_fdd(p);
  EXPECT_LE(fdd.path_count(),
            theorem1_path_bound(n, schema.field_count()));
}

TEST_P(PipelineProperty, EquivalentRewritesAreDetectedAsEquivalent) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 4000);
  const Policy p = test::random_policy(tiny3(), 5, rng);
  // Swapping two *non-conflicting* adjacent rules preserves semantics:
  // craft it by duplicating a rule with the same decision.
  std::vector<Rule> rules;
  for (std::size_t i = 0; i < p.size(); ++i) {
    rules.push_back(p.rule(i));
    if (i == 1) {
      rules.push_back(p.rule(i));
    }
  }
  const Policy padded(p.schema(), std::move(rules));
  EXPECT_TRUE(equivalent(p, padded));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty, ::testing::Range(0, 24));

TEST(Theorem1Bound, SaturatesInsteadOfOverflowing) {
  EXPECT_EQ(theorem1_path_bound(1, 3), 1u);
  EXPECT_EQ(theorem1_path_bound(2, 2), 9u);
  EXPECT_EQ(theorem1_path_bound(3000, 5), 5999ull * 5999 * 5999 * 5999 * 5999);
  EXPECT_EQ(theorem1_path_bound(SIZE_MAX / 2, 5), SIZE_MAX);
}

}  // namespace
}  // namespace dfw
