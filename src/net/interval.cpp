#include "net/interval.hpp"

#include <algorithm>

namespace dfw {

std::optional<Interval> Interval::intersect(const Interval& other) const {
  const Value lo = std::max(lo_, other.lo_);
  const Value hi = std::min(hi_, other.hi_);
  if (lo > hi) {
    return std::nullopt;
  }
  return Interval(lo, hi);
}

bool Interval::mergeable(const Interval& other) const {
  if (overlaps(other)) {
    return true;
  }
  // Adjacent: one ends exactly where the other begins, minding overflow.
  if (hi_ != UINT64_MAX && hi_ + 1 == other.lo_) {
    return true;
  }
  if (other.hi_ != UINT64_MAX && other.hi_ + 1 == lo_) {
    return true;
  }
  return false;
}

Interval Interval::merge(const Interval& other) const {
  if (!mergeable(other)) {
    throw std::invalid_argument("Interval::merge: intervals not mergeable");
  }
  return Interval(std::min(lo_, other.lo_), std::max(hi_, other.hi_));
}

std::string Interval::to_string() const {
  // Built by appends: GCC 12's -Wrestrict misfires on "literal" + string.
  std::string out = "[";
  out += std::to_string(lo_);
  if (lo_ != hi_) {
    out += ", ";
    out += std::to_string(hi_);
  }
  out += "]";
  return out;
}

}  // namespace dfw
