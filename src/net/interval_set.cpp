#include "net/interval_set.hpp"

#include <algorithm>

namespace dfw {

IntervalSet IntervalSet::from_runs(std::span<const Interval> runs) {
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i - 1].hi() == UINT64_MAX ||
        runs[i - 1].hi() + 1 >= runs[i].lo()) {
      throw std::invalid_argument("IntervalSet::from_runs: runs not canonical");
    }
  }
  IntervalSet result;
  result.intervals_.assign(runs.begin(), runs.end());
  return result;
}

Value IntervalSet::size() const {
  Value total = 0;
  for (const Interval& iv : intervals_) {
    const Value n = iv.size();
    if (total > UINT64_MAX - n) {
      return UINT64_MAX;
    }
    total += n;
  }
  return total;
}

bool IntervalSet::contains(Value v) const {
  // Binary search over the sorted runs: find the first run ending >= v.
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), v,
      [](const Interval& iv, Value x) { return iv.hi() < x; });
  return it != intervals_.end() && it->contains(v);
}

bool IntervalSet::contains(const IntervalSet& other) const {
  return other.empty() ||
         relate(other.intervals_, intervals_) == Relation::kInside;
}

bool IntervalSet::overlaps(const IntervalSet& other) const {
  return relate(intervals_, other.intervals_) != Relation::kDisjoint;
}

void IntervalSet::add(Interval iv) {
  // Find the span of existing runs mergeable with iv and collapse them.
  auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv,
      [](const Interval& a, const Interval& b) {
        return a.hi() < b.lo() && !a.mergeable(b);
      });
  auto last = first;
  Interval merged = iv;
  while (last != intervals_.end() && merged.mergeable(*last)) {
    merged = merged.merge(*last);
    ++last;
  }
  if (first == last) {
    intervals_.insert(first, merged);
  } else {
    *first = merged;
    intervals_.erase(first + 1, last);
  }
}

IntervalSet IntervalSet::unite(const IntervalSet& other) const {
  IntervalSet result;
  result.intervals_.reserve(intervals_.size() + other.intervals_.size());
  unite_into(intervals_, other.intervals_, result.intervals_);
  return result;
}

IntervalSet IntervalSet::intersect(const IntervalSet& other) const {
  IntervalSet result;
  intersect_into(intervals_, other.intervals_, result.intervals_);
  return result;
}

IntervalSet IntervalSet::subtract(const IntervalSet& other) const {
  IntervalSet result;
  subtract_into(intervals_, other.intervals_, result.intervals_);
  return result;
}

std::string IntervalSet::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += intervals_[i].to_string();
  }
  out += "}";
  return out;
}

Relation relate(std::span<const Interval> label,
                std::span<const Interval> conjunct) {
  bool inside = false;   // some value of `label` lies in `conjunct`
  bool outside = false;  // some value of `label` lies outside it
  std::size_t j = 0;
  for (const Interval& a : label) {
    Value pos = a.lo();  // first value of `a` not yet classified
    while (j < conjunct.size() && conjunct[j].hi() < pos) {
      ++j;
    }
    if (j == conjunct.size()) {
      // This run and every later one lie beyond the conjunct.
      return inside ? Relation::kSplit : Relation::kDisjoint;
    }
    // Invariant: conjunct[j] ends at or after pos.
    while (true) {
      if (j == conjunct.size() || conjunct[j].lo() > a.hi()) {
        outside = true;  // [pos, a.hi()] is uncovered
        break;
      }
      if (conjunct[j].lo() > pos) {
        outside = true;  // a gap of the conjunct before conjunct[j]
      }
      inside = true;
      if (conjunct[j].hi() >= a.hi()) {
        break;  // the rest of `a` is covered
      }
      pos = conjunct[j].hi() + 1;
      ++j;
    }
    if (inside && outside) {
      return Relation::kSplit;
    }
  }
  if (!inside) {
    return Relation::kDisjoint;
  }
  return outside ? Relation::kSplit : Relation::kInside;
}

void unite_into(std::span<const Interval> a, std::span<const Interval> b,
                std::vector<Interval>& out) {
  out.clear();
  // Merge by lower bound; a run reaching or touching the last output run
  // extends it.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const Interval& next =
        j == b.size() || (i < a.size() && a[i].lo() < b[j].lo()) ? a[i++]
                                                                   : b[j++];
    if (!out.empty() &&
        (out.back().hi() == UINT64_MAX || out.back().hi() + 1 >= next.lo())) {
      if (next.hi() > out.back().hi()) {
        out.back() = Interval(out.back().lo(), next.hi());
      }
    } else {
      out.push_back(next);
    }
  }
}

void intersect_into(std::span<const Interval> a, std::span<const Interval> b,
                    std::vector<Interval>& out) {
  out.clear();
  // Classic two-pointer sweep over two sorted disjoint runs.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const Value lo = std::max(a[i].lo(), b[j].lo());
    const Value hi = std::min(a[i].hi(), b[j].hi());
    if (lo <= hi) {
      out.emplace_back(lo, hi);
    }
    if (a[i].hi() < b[j].hi()) {
      ++i;
    } else {
      ++j;
    }
  }
}

void subtract_into(std::span<const Interval> a, std::span<const Interval> b,
                   std::vector<Interval>& out) {
  out.clear();
  std::size_t j = 0;
  for (const Interval& run : a) {
    Value lo = run.lo();
    bool open = true;  // [lo, run.hi()] still pending output
    while (j < b.size() && b[j].hi() < run.lo()) {
      ++j;
    }
    for (std::size_t k = j; open && k < b.size() && b[k].lo() <= run.hi();
         ++k) {
      if (b[k].lo() > lo) {
        out.emplace_back(lo, b[k].lo() - 1);
      }
      if (b[k].hi() >= run.hi()) {
        open = false;
      } else {
        lo = std::max(lo, b[k].hi() + 1);
      }
    }
    if (open) {
      out.emplace_back(lo, run.hi());
    }
  }
}

}  // namespace dfw
