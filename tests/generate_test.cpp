// Firewall generation tests (resolution method 1's engine): generated
// policies must be comprehensive, first-match equivalent to the source
// FDD, and compact relative to the raw path enumeration.

#include <gtest/gtest.h>

#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "fdd/reduce.hpp"
#include "gen/generate.hpp"
#include "gen/redundancy.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::tiny2;
using test::tiny3;

TEST(Generate, ConstantFddYieldsSingleCatchAll) {
  const Fdd fdd = Fdd::constant(tiny2(), kDiscard);
  const Policy p = generate_policy(fdd);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_TRUE(p.last_rule_is_catch_all());
  EXPECT_EQ(p.rule(0).decision(), kDiscard);
}

TEST(Generate, RoundTripPreservesSemantics) {
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const Policy original = test::random_policy(tiny3(), 6, rng);
    const Fdd fdd = build_fdd(original);
    const Policy regenerated = generate_policy(fdd);
    EXPECT_TRUE(regenerated.last_rule_is_catch_all());
    for (const Packet& pkt : test::all_packets(tiny3())) {
      EXPECT_EQ(regenerated.evaluate(pkt), original.evaluate(pkt));
    }
  }
}

TEST(Generate, DefaultBranchMakesOutputCompact) {
  // A policy whose FDD has one big default region. The raw generator may
  // emit one intermediate shadow rule ("x=3 -> accept" before the final
  // catch-all); redundancy removal then reaches the 2-rule minimum — the
  // full method-1 pipeline of Section 6.1.
  const Schema schema = tiny2();
  const Policy p(
      schema,
      {Rule(schema, {IntervalSet(Interval(3, 3)), IntervalSet(Interval(3, 3))},
            kDiscard),
       Rule::catch_all(schema, kAccept)});
  const Fdd fdd = build_fdd(p);
  const Policy compact = generate_policy(fdd);
  EXPECT_LE(compact.size(), 3u);
  const Policy minimal = remove_redundant(compact);
  EXPECT_LE(minimal.size(), 3u);
  EXPECT_TRUE(equivalent(minimal, p));
}

TEST(Generate, SingleFieldPolicyRegeneratesMinimally) {
  // "discard y=3; accept" round-trips to exactly its 2-rule minimal form:
  // reduction splices out the untouched x field and the default branch
  // covers the accept region.
  const Schema schema = tiny2();
  const Policy p(
      schema,
      {Rule(schema, {IntervalSet(Interval(0, 7)), IntervalSet(Interval(3, 3))},
            kDiscard),
       Rule::catch_all(schema, kAccept)});
  const Policy regenerated = generate_policy(build_fdd(p));
  EXPECT_EQ(regenerated.size(), 2u);
  EXPECT_TRUE(equivalent(regenerated, p));
}

TEST(Generate, GeneratedRuleCountNeverExceedsPathCount) {
  std::mt19937_64 rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    const Policy original = test::random_policy(tiny3(), 6, rng);
    Fdd fdd = build_fdd(original);
    reduce(fdd);
    const Policy regenerated = generate_policy(fdd);
    EXPECT_LE(regenerated.size(), fdd.path_count());
  }
}

TEST(GenerateDisjoint, EquivalentAndDisjoint) {
  std::mt19937_64 rng(34);
  for (int trial = 0; trial < 15; ++trial) {
    const Policy original = test::random_policy(tiny3(), 6, rng);
    const Fdd fdd = build_fdd(original);
    const Policy carved = generate_disjoint_policy(fdd, kDiscard);
    EXPECT_TRUE(carved.last_rule_is_catch_all());
    EXPECT_EQ(carved.rules().back().decision(), kDiscard);
    for (const Packet& pkt : test::all_packets(tiny3())) {
      EXPECT_EQ(carved.evaluate(pkt), original.evaluate(pkt));
    }
    // Non-default rules are pairwise disjoint: no packet matches two.
    for (const Packet& pkt : test::all_packets(tiny3())) {
      int hits = 0;
      for (std::size_t i = 0; i + 1 < carved.size(); ++i) {
        hits += carved.rule(i).matches(pkt) ? 1 : 0;
      }
      EXPECT_LE(hits, 1);
    }
  }
}

TEST(GenerateDisjoint, OrderOfCarveOutsIsImmaterial) {
  std::mt19937_64 rng(35);
  const Policy original = test::random_policy(tiny3(), 5, rng);
  Policy carved = generate_disjoint_policy(build_fdd(original), kAccept);
  if (carved.size() > 2) {
    carved.move(0, carved.size() - 2);  // shuffle a carve-out
  }
  for (const Packet& pkt : test::all_packets(tiny3())) {
    EXPECT_EQ(carved.evaluate(pkt), original.evaluate(pkt));
  }
}

TEST(GenerateDisjoint, FallbackChoiceTradesRuleCount) {
  // A mostly-accepting policy yields few carve-outs with fallback=accept
  // and many with fallback=discard.
  const Schema schema = tiny2();
  const Policy p(
      schema,
      {Rule(schema, {IntervalSet(Interval(3, 3)), IntervalSet(Interval(3, 3))},
            kDiscard),
       Rule::catch_all(schema, kAccept)});
  const Fdd fdd = build_fdd(p);
  const Policy few = generate_disjoint_policy(fdd, kAccept);
  const Policy many = generate_disjoint_policy(fdd, kDiscard);
  EXPECT_LT(few.size(), many.size());
  EXPECT_TRUE(equivalent(few, many));
}

}  // namespace
}  // namespace dfw
