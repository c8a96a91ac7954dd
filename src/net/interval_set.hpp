// Normalized sets of disjoint intervals.
//
// FDD edge labels are "nonempty sets of integers" (paper, Section 2,
// property 3). We represent such a set canonically as a sorted vector of
// pairwise-disjoint, non-adjacent intervals, so that structural equality of
// labels coincides with set equality — the property both the shaping and the
// comparison algorithms rely on.
//
// The set algebra lives in span kernels over such canonical runs: one sweep
// per operation, writing into a caller-owned vector. IntervalSet's own
// operations are thin wrappers over them; the FDD arena's construction walk
// calls them directly on interned labels with reused buffers, so it does
// its interval algebra without heap traffic.

#pragma once

#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/interval.hpp"

namespace dfw {

/// A (possibly empty) set of uint64_t values stored as a canonical run of
/// disjoint, non-adjacent, sorted intervals.
///
/// Invariant: for consecutive members a, b: a.hi() + 1 < b.lo().
class IntervalSet {
 public:
  IntervalSet() = default;
  /*implicit*/ IntervalSet(Interval iv) { add(iv); }
  IntervalSet(std::initializer_list<Interval> ivs) {
    for (const Interval& iv : ivs) {
      add(iv);
    }
  }

  /// The set of already canonical runs (as the span kernels write them);
  /// throws std::invalid_argument when `runs` are not sorted, disjoint
  /// and non-adjacent.
  static IntervalSet from_runs(std::span<const Interval> runs);

  bool empty() const { return intervals_.empty(); }

  /// Number of maximal runs (not the number of values).
  std::size_t run_count() const { return intervals_.size(); }

  /// Number of values, saturating at UINT64_MAX.
  Value size() const;

  const std::vector<Interval>& intervals() const { return intervals_; }

  bool contains(Value v) const;
  bool contains(const IntervalSet& other) const;

  /// Smallest member; requires !empty().
  Value min() const {
    if (empty()) {
      throw std::logic_error("IntervalSet::min on empty set");
    }
    return intervals_.front().lo();
  }
  /// Largest member; requires !empty().
  Value max() const {
    if (empty()) {
      throw std::logic_error("IntervalSet::max on empty set");
    }
    return intervals_.back().hi();
  }

  /// Inserts every value of `iv`, merging runs as needed.
  void add(Interval iv);

  IntervalSet unite(const IntervalSet& other) const;
  IntervalSet intersect(const IntervalSet& other) const;
  /// Set difference this \ other.
  IntervalSet subtract(const IntervalSet& other) const;

  bool overlaps(const IntervalSet& other) const;

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

  /// Renders "{[a, b], [c], ...}".
  std::string to_string() const;

 private:
  std::vector<Interval> intervals_;
};

// -- Span kernels -------------------------------------------------------------
//
// Each takes canonical runs and makes one sweep over them. The *_into
// kernels overwrite `out`, which must not alias an input, with the
// canonical result and reuse its storage.

/// How a set lies against another, seen from the first.
enum class Relation {
  kDisjoint,  ///< no shared value (always so for an empty first set)
  kInside,    ///< nonempty and wholly inside the second
  kSplit,     ///< partly inside the second, partly outside it
};

/// Classifies `label` against `conjunct` without materialising anything.
Relation relate(std::span<const Interval> label,
                std::span<const Interval> conjunct);

/// out = a ∪ b.
void unite_into(std::span<const Interval> a, std::span<const Interval> b,
                std::vector<Interval>& out);
/// out = a ∩ b.
void intersect_into(std::span<const Interval> a, std::span<const Interval> b,
                    std::vector<Interval>& out);
/// out = a \ b.
void subtract_into(std::span<const Interval> a, std::span<const Interval> b,
                   std::vector<Interval>& out);

}  // namespace dfw
