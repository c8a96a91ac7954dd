// IntervalSet unit tests: canonical form, set algebra against brute force,
// and the edge cases (adjacency coalescing, empty results, saturation).

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "net/interval_set.hpp"

namespace dfw {
namespace {

// Brute-force model over a small universe for randomized algebra checks.
std::set<Value> model(const IntervalSet& s, Value universe_hi) {
  std::set<Value> values;
  for (Value v = 0; v <= universe_hi; ++v) {
    if (s.contains(v)) {
      values.insert(v);
    }
  }
  return values;
}

IntervalSet random_small_set(std::mt19937_64& rng, Value universe_hi) {
  IntervalSet s;
  std::uniform_int_distribution<int> count(0, 4);
  std::uniform_int_distribution<Value> point(0, universe_hi);
  const int n = count(rng);
  for (int i = 0; i < n; ++i) {
    const Value a = point(rng);
    const Value b = point(rng);
    s.add(Interval(std::min(a, b), std::max(a, b)));
  }
  return s;
}

TEST(IntervalSet, EmptyByDefault) {
  const IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(0));
}

TEST(IntervalSet, AddCoalescesAdjacentRuns) {
  IntervalSet s;
  s.add(Interval(0, 4));
  s.add(Interval(5, 9));  // adjacent: must merge into one run
  EXPECT_EQ(s.run_count(), 1u);
  EXPECT_EQ(s.intervals().front(), Interval(0, 9));
}

TEST(IntervalSet, AddKeepsDisjointRunsSorted) {
  IntervalSet s;
  s.add(Interval(10, 20));
  s.add(Interval(0, 3));
  s.add(Interval(30, 35));
  ASSERT_EQ(s.run_count(), 3u);
  EXPECT_EQ(s.intervals()[0], Interval(0, 3));
  EXPECT_EQ(s.intervals()[1], Interval(10, 20));
  EXPECT_EQ(s.intervals()[2], Interval(30, 35));
  EXPECT_EQ(s.min(), 0u);
  EXPECT_EQ(s.max(), 35u);
}

TEST(IntervalSet, AddBridgingRunCollapsesNeighbours) {
  IntervalSet s;
  s.add(Interval(0, 3));
  s.add(Interval(8, 10));
  s.add(Interval(2, 9));  // bridges both runs
  EXPECT_EQ(s.run_count(), 1u);
  EXPECT_EQ(s.intervals().front(), Interval(0, 10));
}

TEST(IntervalSet, InitializerListAndEquality) {
  const IntervalSet a{Interval(0, 3), Interval(5, 9)};
  IntervalSet b;
  b.add(Interval(5, 9));
  b.add(Interval(0, 3));
  EXPECT_EQ(a, b);
}

TEST(IntervalSet, SizeSumsRuns) {
  const IntervalSet s{Interval(0, 3), Interval(10, 11)};
  EXPECT_EQ(s.size(), 6u);
}

TEST(IntervalSet, SizeSaturates) {
  const IntervalSet s{Interval(0, UINT64_MAX)};
  EXPECT_EQ(s.size(), UINT64_MAX);
}

TEST(IntervalSet, ContainsUsesBinarySearch) {
  IntervalSet s;
  for (Value base = 0; base < 1000; base += 10) {
    s.add(Interval(base, base + 4));
  }
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(994));
  EXPECT_FALSE(s.contains(995));
  EXPECT_FALSE(s.contains(7));
}

TEST(IntervalSet, SubsetContainment) {
  const IntervalSet big{Interval(0, 100)};
  const IntervalSet small{Interval(5, 6), Interval(50, 60)};
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(small.contains(IntervalSet{}));
}

TEST(IntervalSet, MinMaxOnEmptyThrow) {
  const IntervalSet s;
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.max(), std::logic_error);
}

TEST(IntervalSet, UniteIntersectSubtractAgainstBruteForce) {
  std::mt19937_64 rng(77);
  constexpr Value kUniverse = 40;
  for (int trial = 0; trial < 200; ++trial) {
    const IntervalSet a = random_small_set(rng, kUniverse);
    const IntervalSet b = random_small_set(rng, kUniverse);
    const auto ma = model(a, kUniverse);
    const auto mb = model(b, kUniverse);

    const auto mu = model(a.unite(b), kUniverse);
    const auto mi = model(a.intersect(b), kUniverse);
    const auto md = model(a.subtract(b), kUniverse);

    for (Value v = 0; v <= kUniverse; ++v) {
      const bool in_a = ma.count(v) > 0;
      const bool in_b = mb.count(v) > 0;
      EXPECT_EQ(mu.count(v) > 0, in_a || in_b) << "unite at " << v;
      EXPECT_EQ(mi.count(v) > 0, in_a && in_b) << "intersect at " << v;
      EXPECT_EQ(md.count(v) > 0, in_a && !in_b) << "subtract at " << v;
    }
  }
}

// The canonical runs of the values v in [base, base + 7] whose bit
// (v - base) is set in `mask`.
std::vector<Interval> runs_of(unsigned mask, Value base) {
  std::vector<Interval> runs;
  for (unsigned bit = 0; bit < 8;) {
    if ((mask >> bit & 1u) == 0) {
      ++bit;
      continue;
    }
    unsigned end = bit;
    while (end + 1 < 8 && (mask >> (end + 1) & 1u) != 0) {
      ++end;
    }
    runs.emplace_back(base + bit, base + end);
    bit = end + 1;
  }
  return runs;
}

TEST(IntervalSet, SpanKernelsAgainstBitmaskModel) {
  // Every pair of subsets of an 8-value universe, once near 0 and once
  // ending at UINT64_MAX, where a careless `hi + 1` overflows.
  std::vector<Interval> out;
  for (const Value base : {Value{0}, UINT64_MAX - 7}) {
    for (unsigned a = 0; a < 256; ++a) {
      const std::vector<Interval> ra = runs_of(a, base);
      const IntervalSet sa = IntervalSet::from_runs(ra);
      for (unsigned b = 0; b < 256; ++b) {
        const std::vector<Interval> rb = runs_of(b, base);
        const IntervalSet sb = IntervalSet::from_runs(rb);
        const Relation expected = (a & b) == 0    ? Relation::kDisjoint
                                  : (a & ~b) == 0 ? Relation::kInside
                                                  : Relation::kSplit;
        ASSERT_EQ(relate(ra, rb), expected) << a << " vs " << b;
        // Compared with the model's canonical runs, so canonical too.
        intersect_into(ra, rb, out);
        ASSERT_EQ(out, runs_of(a & b, base)) << a << " & " << b;
        subtract_into(ra, rb, out);
        ASSERT_EQ(out, runs_of(a & ~b, base)) << a << " - " << b;
        unite_into(ra, rb, out);
        ASSERT_EQ(out, runs_of(a | b, base)) << a << " | " << b;
        ASSERT_EQ(sa.overlaps(sb), (a & b) != 0) << a << " vs " << b;
        ASSERT_EQ(sa.contains(sb), (b & ~a) == 0) << a << " vs " << b;
      }
    }
  }
}

TEST(IntervalSet, FromRunsRejectsNonCanonicalRuns) {
  const std::vector<Interval> adjacent{Interval(0, 3), Interval(4, 6)};
  const std::vector<Interval> unsorted{Interval(5, 6), Interval(0, 3)};
  EXPECT_THROW(IntervalSet::from_runs(adjacent), std::invalid_argument);
  EXPECT_THROW(IntervalSet::from_runs(unsorted), std::invalid_argument);
  const std::vector<Interval> runs{Interval(0, 3), Interval(5, 6)};
  EXPECT_EQ(IntervalSet::from_runs(runs),
            (IntervalSet{Interval(0, 3), Interval(5, 6)}));
}

TEST(IntervalSet, ResultsAreCanonical) {
  std::mt19937_64 rng(78);
  for (int trial = 0; trial < 100; ++trial) {
    const IntervalSet a = random_small_set(rng, 30);
    const IntervalSet b = random_small_set(rng, 30);
    for (const IntervalSet& s :
         {a.unite(b), a.intersect(b), a.subtract(b)}) {
      // Canonical: sorted, disjoint, non-adjacent runs.
      for (std::size_t i = 0; i + 1 < s.intervals().size(); ++i) {
        EXPECT_LT(s.intervals()[i].hi() + 1, s.intervals()[i + 1].lo());
      }
    }
  }
}

TEST(IntervalSet, SubtractSplitsAroundHole) {
  const IntervalSet a{Interval(0, 10)};
  const IntervalSet hole{Interval(4, 6)};
  const IntervalSet diff = a.subtract(hole);
  ASSERT_EQ(diff.run_count(), 2u);
  EXPECT_EQ(diff.intervals()[0], Interval(0, 3));
  EXPECT_EQ(diff.intervals()[1], Interval(7, 10));
}

TEST(IntervalSet, OverlapsDetectsSharedValues) {
  const IntervalSet a{Interval(0, 4), Interval(10, 14)};
  EXPECT_TRUE(a.overlaps(IntervalSet{Interval(4, 5)}));
  EXPECT_FALSE(a.overlaps(IntervalSet{Interval(5, 9)}));
  EXPECT_FALSE(a.overlaps(IntervalSet{}));
}

TEST(IntervalSet, ToString) {
  const IntervalSet s{Interval(0, 3), Interval::point(9)};
  EXPECT_EQ(s.to_string(), "{[0, 3], [9]}");
  EXPECT_EQ(IntervalSet{}.to_string(), "{}");
}

}  // namespace
}  // namespace dfw
