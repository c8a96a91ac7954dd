// IntervalSet unit tests: canonical form, set algebra against brute force,
// the edge cases (adjacency coalescing, empty results, saturation), and the
// storage (two runs inline, a heap block beyond) against a vector model.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <utility>
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

// -- Storage -----------------------------------------------------------------
//
// A set keeps up to two runs inline and spills to one heap block beyond.
// The model is a plain vector of runs whose operations are the obvious ones
// (append, sort, merge), independent of the set's sweeps. Every count
// crosses or sits at the inline limit.

using Runs = std::vector<Interval>;

constexpr std::size_t kRunCounts[] = {0, 1, 2, 3, 40};

Runs normalized(Runs runs) {
  std::sort(runs.begin(), runs.end());
  Runs out;
  for (const Interval& iv : runs) {
    if (!out.empty() && out.back().mergeable(iv)) {
      out.back() = out.back().merge(iv);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

Runs model_unite(Runs a, const Runs& b) {
  a.insert(a.end(), b.begin(), b.end());
  return normalized(std::move(a));
}

Runs model_intersect(const Runs& a, const Runs& b) {
  Runs out;
  for (const Interval& x : a) {
    for (const Interval& y : b) {
      if (const auto common = x.intersect(y)) {
        out.push_back(*common);
      }
    }
  }
  return normalized(std::move(out));
}

Runs model_subtract(const Runs& a, const Runs& b) {
  Runs outside_b;  // b's complement over all of uint64_t
  Value next = 0;
  bool open = true;
  for (const Interval& iv : b) {
    if (iv.lo() > next) {
      outside_b.emplace_back(next, iv.lo() - 1);
    }
    if (iv.hi() == UINT64_MAX) {
      open = false;
      break;
    }
    next = iv.hi() + 1;
  }
  if (open) {
    outside_b.emplace_back(next, UINT64_MAX);
  }
  return model_intersect(a, outside_b);
}

Runs stored_runs(const IntervalSet& s) {
  return Runs(s.intervals().begin(), s.intervals().end());
}

// `count` disjoint, non-adjacent runs in order, starting near `base`.
Runs spread_runs(std::size_t count, Value base, std::mt19937_64& rng) {
  Runs runs;
  Value lo = base + rng() % 5;
  for (std::size_t i = 0; i < count; ++i) {
    const Value length = rng() % 4;
    runs.emplace_back(lo, lo + length);
    lo += length + 2 + rng() % 6;
  }
  return runs;
}

// The set of `runs`, added one at a time in a random order.
IntervalSet added_in_any_order(Runs runs, std::mt19937_64& rng) {
  std::shuffle(runs.begin(), runs.end(), rng);
  IntervalSet s;
  for (const Interval& iv : runs) {
    s.add(iv);
  }
  return s;
}

TEST(IntervalSetStorage, AddMatchesVectorModel) {
  std::mt19937_64 rng(29);
  for (const std::size_t count : kRunCounts) {
    for (int trial = 0; trial < 20; ++trial) {
      Runs runs = spread_runs(count, 0, rng);
      std::shuffle(runs.begin(), runs.end(), rng);
      IntervalSet s;
      Runs model;
      for (const Interval& iv : runs) {
        s.add(iv);
        model = model_unite(model, {iv});
        ASSERT_EQ(stored_runs(s), model) << "adding " << iv.to_string();
      }
      ASSERT_EQ(s.run_count(), count);
      // Then runs that bridge, extend or land between the existing ones.
      for (int extra = 0; extra < 6; ++extra) {
        const Value lo = rng() % (10 * count + 10);
        const Interval iv(lo, lo + rng() % 12);
        s.add(iv);
        model = model_unite(model, {iv});
        ASSERT_EQ(stored_runs(s), model) << "adding " << iv.to_string();
      }
    }
  }
}

TEST(IntervalSetStorage, AlgebraMatchesVectorModel) {
  std::mt19937_64 rng(30);
  for (const std::size_t count_a : kRunCounts) {
    for (const std::size_t count_b : kRunCounts) {
      for (int trial = 0; trial < 10; ++trial) {
        const Runs ra = spread_runs(count_a, 0, rng);
        const Runs rb = spread_runs(count_b, rng() % 20, rng);
        const IntervalSet a = added_in_any_order(ra, rng);
        const IntervalSet b = added_in_any_order(rb, rng);
        ASSERT_EQ(stored_runs(a.unite(b)), model_unite(ra, rb));
        ASSERT_EQ(stored_runs(a.intersect(b)), model_intersect(ra, rb));
        ASSERT_EQ(stored_runs(a.subtract(b)), model_subtract(ra, rb));
        ASSERT_EQ(a.unite(b), IntervalSet::from_runs(model_unite(ra, rb)));
      }
    }
  }
}

TEST(IntervalSetStorage, CopyMoveAndSelfAssignment) {
  std::mt19937_64 rng(31);
  for (const std::size_t count_a : kRunCounts) {
    for (const std::size_t count_b : kRunCounts) {
      const Runs ra = spread_runs(count_a, 0, rng);
      const Runs rb = spread_runs(count_b, 3, rng);
      const IntervalSet a = added_in_any_order(ra, rng);

      // A copy is deep: growing it leaves the source alone.
      IntervalSet copy(a);
      ASSERT_EQ(stored_runs(copy), ra);
      copy.add(Interval(1000, 1001));
      ASSERT_EQ(stored_runs(a), ra);
      ASSERT_EQ(stored_runs(copy), model_unite(ra, {Interval(1000, 1001)}));

      IntervalSet target = added_in_any_order(rb, rng);
      target = a;
      ASSERT_EQ(stored_runs(target), ra);
      ASSERT_EQ(stored_runs(a), ra);

      // A move takes the runs and leaves the source empty and reusable.
      IntervalSet moved(std::move(copy));
      ASSERT_EQ(stored_runs(moved), model_unite(ra, {Interval(1000, 1001)}));
      ASSERT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
      copy.add(Interval(5, 6));
      ASSERT_EQ(stored_runs(copy), Runs{Interval(5, 6)});
      copy = a;
      ASSERT_EQ(stored_runs(copy), ra);

      IntervalSet assigned = added_in_any_order(rb, rng);
      assigned = std::move(target);
      ASSERT_EQ(stored_runs(assigned), ra);
      ASSERT_TRUE(target.empty());  // NOLINT(bugprone-use-after-move)
      target = added_in_any_order(rb, rng);
      ASSERT_EQ(stored_runs(target), rb);

      // Self-assignment, by copy and by move, changes nothing.
      IntervalSet& alias = assigned;
      assigned = alias;
      ASSERT_EQ(stored_runs(assigned), ra);
      assigned = std::move(alias);
      ASSERT_EQ(stored_runs(assigned), ra);
    }
  }
}

TEST(IntervalSetStorage, HeapSetTrimmedToTwoRunsEqualsInline) {
  std::mt19937_64 rng(32);
  const Runs runs = spread_runs(40, 0, rng);
  // One run bridging the first 39 leaves two: the set keeps its heap block.
  IntervalSet grown = added_in_any_order(runs, rng);
  grown.add(Interval(runs[0].lo(), runs[38].hi()));
  const IntervalSet two{Interval(runs[0].lo(), runs[38].hi()), runs[39]};
  EXPECT_EQ(grown.run_count(), 2u);
  EXPECT_EQ(grown, two);
  EXPECT_EQ(two, grown);
  EXPECT_EQ(grown.to_string(), two.to_string());
  EXPECT_EQ(grown.min(), two.min());
  EXPECT_EQ(grown.max(), two.max());
  EXPECT_EQ(IntervalSet(grown), two);
  EXPECT_NE(grown, (IntervalSet{Interval(runs[0].lo(), runs[38].hi())}));

  // Assigning a short set into a grown one keeps its block, not its runs.
  IntervalSet reused = added_in_any_order(runs, rng);
  reused = two;
  EXPECT_EQ(reused, two);
  reused.add(Interval(runs[39].hi() + 2, runs[39].hi() + 2));
  EXPECT_EQ(reused.run_count(), 3u);
  EXPECT_NE(reused, two);
}

}  // namespace
}  // namespace dfw
