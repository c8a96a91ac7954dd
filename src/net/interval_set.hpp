// Normalized sets of disjoint intervals.
//
// FDD edge labels are "nonempty sets of integers" (paper, Section 2,
// property 3). We represent such a set canonically as a sorted array of
// pairwise-disjoint, non-adjacent intervals, so that structural equality of
// labels coincides with set equality — the property both the shaping and the
// comparison algorithms rely on.
//
// Most sets are one or two runs (a rule's conjunct, a field's domain, a
// witness), so a set keeps up to two runs inline and spills to one heap
// block beyond that: copying or building a short set does not allocate.
//
// The set algebra lives in span kernels over such canonical runs: one sweep
// per operation, writing into a caller-owned vector. IntervalSet's own
// operations share the sweeps; the FDD arena's construction walk calls the
// kernels directly on interned labels with reused buffers, so it does its
// interval algebra without heap traffic.

#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
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
  /*implicit*/ IntervalSet(Interval iv) { push_back(iv); }
  IntervalSet(std::initializer_list<Interval> ivs) {
    for (const Interval& iv : ivs) {
      add(iv);
    }
  }

  IntervalSet(const IntervalSet& other) { assign(other.intervals()); }
  IntervalSet(IntervalSet&& other) noexcept { take(other); }
  IntervalSet& operator=(const IntervalSet& other) {
    if (this != &other) {
      assign(other.intervals());
    }
    return *this;
  }
  IntervalSet& operator=(IntervalSet&& other) noexcept {
    if (this != &other) {
      free_heap();
      take(other);
    }
    return *this;
  }
  ~IntervalSet() { free_heap(); }

  /// The set of already canonical runs (as the span kernels write them);
  /// throws std::invalid_argument when `runs` are not sorted, disjoint
  /// and non-adjacent.
  static IntervalSet from_runs(std::span<const Interval> runs);

  bool empty() const { return size_ == 0; }

  /// Number of maximal runs (not the number of values).
  std::size_t run_count() const { return size_; }

  /// Number of values, saturating at UINT64_MAX.
  Value size() const;

  /// The runs, in order. Valid until the set is next modified.
  std::span<const Interval> intervals() const { return {data(), size_}; }

  bool contains(Value v) const;
  bool contains(const IntervalSet& other) const;

  /// Smallest member; requires !empty().
  Value min() const {
    if (empty()) {
      throw std::logic_error("IntervalSet::min on empty set");
    }
    return data()[0].lo();
  }
  /// Largest member; requires !empty().
  Value max() const {
    if (empty()) {
      throw std::logic_error("IntervalSet::max on empty set");
    }
    return data()[size_ - 1].hi();
  }

  /// Inserts every value of `iv`, merging runs as needed.
  void add(Interval iv);

  IntervalSet unite(const IntervalSet& other) const;
  IntervalSet intersect(const IntervalSet& other) const;
  /// Set difference this \ other.
  IntervalSet subtract(const IntervalSet& other) const;

  bool overlaps(const IntervalSet& other) const;

  /// Set equality: the same runs, wherever each set stores them.
  friend bool operator==(const IntervalSet& a, const IntervalSet& b) {
    return std::ranges::equal(a.intervals(), b.intervals());
  }

  /// Renders "{[a, b], [c], ...}".
  std::string to_string() const;

 private:
  static constexpr std::uint32_t kInline = 2;

  bool on_heap() const { return capacity_ > kInline; }
  Interval* data() {
    return on_heap() ? heap_ : reinterpret_cast<Interval*>(local_);
  }
  const Interval* data() const {
    return on_heap() ? heap_ : reinterpret_cast<const Interval*>(local_);
  }

  // Moves the runs to one heap block of at least `n` runs.
  void grow(std::size_t n);
  void push_back(Interval iv) {
    if (size_ == capacity_) {
      grow(size_ + std::size_t{1});
    }
    data()[size_++] = iv;
  }
  void assign(std::span<const Interval> runs) {
    size_ = 0;
    if (runs.size() > capacity_) {
      grow(runs.size());
    }
    std::copy(runs.begin(), runs.end(), data());
    size_ = static_cast<std::uint32_t>(runs.size());
  }
  // Takes `other`'s runs, leaving it empty and inline; any block this set
  // held must already be freed.
  void take(IntervalSet& other) noexcept {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.on_heap()) {
      heap_ = other.heap_;
    } else {
      std::copy_n(other.data(), other.size_, data());
    }
    other.size_ = 0;
    other.capacity_ = kInline;
  }
  void free_heap() {
    if (on_heap()) {
      std::allocator<Interval>().deallocate(heap_, capacity_);
    }
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInline;  // kInline while the runs are local_
  // heap_ starts initialised: data() may load it even while the runs are
  // local, and GCC warns about that load when it is not.
  union {
    Interval* heap_ = nullptr;
    alignas(Interval) unsigned char local_[kInline * sizeof(Interval)];
  };
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
