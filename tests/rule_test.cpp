// Rule unit tests: validation against schemas, matching semantics, the
// simple-rule predicate, and catch-all construction.

#include <gtest/gtest.h>

#include "fw/rule.hpp"

namespace dfw {
namespace {

Schema two_fields() {
  return Schema({{"x", Interval(0, 15), FieldKind::kInteger},
                 {"y", Interval(0, 7), FieldKind::kInteger}});
}

TEST(Rule, ConstructionAndAccessors) {
  const Schema s = two_fields();
  const Rule r(s, {IntervalSet(Interval(1, 5)), IntervalSet(Interval(0, 7))},
               kAccept);
  EXPECT_EQ(r.decision(), kAccept);
  EXPECT_EQ(r.conjunct(0), IntervalSet(Interval(1, 5)));
}

TEST(Rule, RejectsArityMismatch) {
  const Schema s = two_fields();
  EXPECT_THROW(Rule(s, {IntervalSet(Interval(0, 5))}, kAccept),
               std::invalid_argument);
}

TEST(Rule, RejectsEmptyConjunct) {
  const Schema s = two_fields();
  EXPECT_THROW(
      Rule(s, {IntervalSet(), IntervalSet(Interval(0, 7))}, kAccept),
      std::invalid_argument);
}

TEST(Rule, RejectsDomainEscape) {
  const Schema s = two_fields();
  EXPECT_THROW(Rule(s, {IntervalSet(Interval(0, 16)),
                        IntervalSet(Interval(0, 7))},
                    kAccept),
               std::invalid_argument);
  // A multi-run conjunct escapes at its last run.
  EXPECT_THROW(Rule(s, {IntervalSet{Interval(0, 3), Interval(10, 16)},
                        IntervalSet(Interval(0, 7))},
                    kAccept),
               std::invalid_argument);
  EXPECT_NO_THROW(Rule(s, {IntervalSet{Interval(0, 3), Interval(10, 15)},
                           IntervalSet(Interval(0, 7))},
                       kAccept));
  // No conjunct can escape below its domain: a field whose domain starts
  // above zero is refused by the schema, and values are unsigned.
  EXPECT_THROW(Schema({{"port", Interval(1024, 65535), FieldKind::kInteger}}),
               std::invalid_argument);
}

TEST(Rule, MatchesConjunction) {
  const Schema s = two_fields();
  const Rule r(s, {IntervalSet(Interval(1, 5)), IntervalSet(Interval(2, 4))},
               kDiscard);
  EXPECT_TRUE(r.matches({3, 3}));
  EXPECT_TRUE(r.matches({1, 2}));
  EXPECT_FALSE(r.matches({0, 3}));
  EXPECT_FALSE(r.matches({3, 5}));
  EXPECT_THROW(r.matches({3}), std::invalid_argument);
}

TEST(Rule, MatchesMultiRunConjunct) {
  const Schema s = two_fields();
  const Rule r(
      s,
      {IntervalSet{Interval(0, 1), Interval(10, 15)},
       IntervalSet(Interval(0, 7))},
      kAccept);
  EXPECT_TRUE(r.matches({0, 0}));
  EXPECT_TRUE(r.matches({12, 7}));
  EXPECT_FALSE(r.matches({5, 0}));
}

TEST(Rule, SimplePredicate) {
  const Schema s = two_fields();
  const Rule simple(
      s, {IntervalSet(Interval(1, 5)), IntervalSet(Interval(0, 7))},
      kAccept);
  EXPECT_TRUE(simple.is_simple());
  const Rule not_simple(
      s,
      {IntervalSet{Interval(0, 1), Interval(4, 5)},
       IntervalSet(Interval(0, 7))},
      kAccept);
  EXPECT_FALSE(not_simple.is_simple());
}

TEST(Rule, CatchAllCoversDomain) {
  const Schema s = two_fields();
  const Rule r = Rule::catch_all(s, kDiscard);
  EXPECT_TRUE(r.is_simple());
  EXPECT_TRUE(r.matches({0, 0}));
  EXPECT_TRUE(r.matches({15, 7}));
  EXPECT_EQ(r.decision(), kDiscard);
}

TEST(Rule, SetDecision) {
  const Schema s = two_fields();
  Rule r = Rule::catch_all(s, kAccept);
  r.set_decision(kDiscard);
  EXPECT_EQ(r.decision(), kDiscard);
}

}  // namespace
}  // namespace dfw
