#include "net/interval_set.hpp"

#include <algorithm>

namespace dfw {
namespace {

// The sweeps behind both the set operations and the *_into kernels: each
// hands the canonical result's runs, in order, to `emit`.

template <class Emit>
void unite_runs(std::span<const Interval> a, std::span<const Interval> b,
                Emit emit) {
  // Merge by lower bound; a run reaching or touching the pending run
  // extends it.
  std::size_t i = 0;
  std::size_t j = 0;
  const auto next = [&]() -> const Interval& {
    return j == b.size() || (i < a.size() && a[i].lo() < b[j].lo()) ? a[i++]
                                                                     : b[j++];
  };
  if (a.empty() && b.empty()) {
    return;
  }
  Interval pending = next();
  while (i < a.size() || j < b.size()) {
    const Interval& run = next();
    if (pending.hi() == UINT64_MAX || pending.hi() + 1 >= run.lo()) {
      if (run.hi() > pending.hi()) {
        pending = Interval(pending.lo(), run.hi());
      }
    } else {
      emit(pending);
      pending = run;
    }
  }
  emit(pending);
}

template <class Emit>
void intersect_runs(std::span<const Interval> a, std::span<const Interval> b,
                    Emit emit) {
  // Classic two-pointer sweep over two sorted disjoint runs.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const Value lo = std::max(a[i].lo(), b[j].lo());
    const Value hi = std::min(a[i].hi(), b[j].hi());
    if (lo <= hi) {
      emit(Interval(lo, hi));
    }
    if (a[i].hi() < b[j].hi()) {
      ++i;
    } else {
      ++j;
    }
  }
}

template <class Emit>
void subtract_runs(std::span<const Interval> a, std::span<const Interval> b,
                   Emit emit) {
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
        emit(Interval(lo, b[k].lo() - 1));
      }
      if (b[k].hi() >= run.hi()) {
        open = false;
      } else {
        lo = std::max(lo, b[k].hi() + 1);
      }
    }
    if (open) {
      emit(Interval(lo, run.hi()));
    }
  }
}

}  // namespace

IntervalSet IntervalSet::from_runs(std::span<const Interval> runs) {
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i - 1].hi() == UINT64_MAX ||
        runs[i - 1].hi() + 1 >= runs[i].lo()) {
      throw std::invalid_argument("IntervalSet::from_runs: runs not canonical");
    }
  }
  IntervalSet result;
  result.assign(runs);
  return result;
}

void IntervalSet::grow(std::size_t n) {
  if (n > UINT32_MAX) {
    throw std::length_error("IntervalSet: too many runs");
  }
  const std::size_t capacity = std::min<std::size_t>(
      UINT32_MAX, std::max<std::size_t>(n, std::size_t{2} * capacity_));
  Interval* block = std::allocator<Interval>().allocate(capacity);
  std::uninitialized_copy_n(data(), size_, block);
  free_heap();
  heap_ = block;
  capacity_ = static_cast<std::uint32_t>(capacity);
}

Value IntervalSet::size() const {
  Value total = 0;
  for (const Interval& iv : intervals()) {
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
  const std::span<const Interval> runs = intervals();
  auto it = std::lower_bound(
      runs.begin(), runs.end(), v,
      [](const Interval& iv, Value x) { return iv.hi() < x; });
  return it != runs.end() && it->contains(v);
}

bool IntervalSet::contains(const IntervalSet& other) const {
  return other.empty() ||
         relate(other.intervals(), intervals()) == Relation::kInside;
}

bool IntervalSet::overlaps(const IntervalSet& other) const {
  return relate(intervals(), other.intervals()) != Relation::kDisjoint;
}

void IntervalSet::add(Interval iv) {
  // Find the span [first, last) of existing runs mergeable with iv and
  // collapse them into one.
  Interval* runs = data();
  const std::size_t first = static_cast<std::size_t>(
      std::lower_bound(runs, runs + size_, iv,
                       [](const Interval& a, const Interval& b) {
                         return a.hi() < b.lo() && !a.mergeable(b);
                       }) -
      runs);
  std::size_t last = first;
  Interval merged = iv;
  while (last < size_ && merged.mergeable(runs[last])) {
    merged = merged.merge(runs[last]);
    ++last;
  }
  if (first == last) {
    if (size_ == capacity_) {
      grow(size_ + std::size_t{1});
      runs = data();
    }
    std::copy_backward(runs + first, runs + size_, runs + size_ + 1);
    runs[first] = merged;
    ++size_;
  } else {
    runs[first] = merged;
    if (last > first + 1) {
      std::copy(runs + last, runs + size_, runs + first + 1);
      size_ -= static_cast<std::uint32_t>(last - first - 1);
    }
  }
}

IntervalSet IntervalSet::unite(const IntervalSet& other) const {
  IntervalSet result;
  unite_runs(intervals(), other.intervals(),
             [&](const Interval& iv) { result.push_back(iv); });
  return result;
}

IntervalSet IntervalSet::intersect(const IntervalSet& other) const {
  IntervalSet result;
  intersect_runs(intervals(), other.intervals(),
                 [&](const Interval& iv) { result.push_back(iv); });
  return result;
}

IntervalSet IntervalSet::subtract(const IntervalSet& other) const {
  IntervalSet result;
  subtract_runs(intervals(), other.intervals(),
                [&](const Interval& iv) { result.push_back(iv); });
  return result;
}

std::string IntervalSet::to_string() const {
  std::string out = "{";
  const std::span<const Interval> runs = intervals();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += runs[i].to_string();
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
  unite_runs(a, b, [&](const Interval& iv) { out.push_back(iv); });
}

void intersect_into(std::span<const Interval> a, std::span<const Interval> b,
                    std::vector<Interval>& out) {
  out.clear();
  intersect_runs(a, b, [&](const Interval& iv) { out.push_back(iv); });
}

void subtract_into(std::span<const Interval> a, std::span<const Interval> b,
                   std::vector<Interval>& out) {
  out.clear();
  subtract_runs(a, b, [&](const Interval& iv) { out.push_back(iv); });
}

}  // namespace dfw
