#include "fw/rule.hpp"

#include <stdexcept>

namespace dfw {

Rule::Rule(const Schema& schema, std::vector<IntervalSet> conjuncts,
           Decision decision)
    : conjuncts_(std::move(conjuncts)), decision_(decision) {
  if (conjuncts_.size() != schema.field_count()) {
    throw std::invalid_argument("Rule: conjunct count != field count");
  }
  for (std::size_t i = 0; i < conjuncts_.size(); ++i) {
    if (conjuncts_[i].empty()) {
      throw std::invalid_argument("Rule: empty conjunct for field " +
                                  schema.field(i).name);
    }
    const Interval& domain = schema.domain(i);
    if (conjuncts_[i].min() < domain.lo() ||
        conjuncts_[i].max() > domain.hi()) {
      throw std::invalid_argument("Rule: conjunct exceeds domain of field " +
                                  schema.field(i).name);
    }
  }
}

Rule Rule::catch_all(const Schema& schema, Decision decision) {
  std::vector<IntervalSet> conjuncts;
  conjuncts.reserve(schema.field_count());
  for (std::size_t i = 0; i < schema.field_count(); ++i) {
    conjuncts.emplace_back(schema.domain(i));
  }
  return Rule(schema, std::move(conjuncts), decision);
}

bool Rule::matches(const Packet& p) const {
  if (p.size() != conjuncts_.size()) {
    throw std::invalid_argument("Rule::matches: packet arity mismatch");
  }
  for (std::size_t i = 0; i < conjuncts_.size(); ++i) {
    if (!conjuncts_[i].contains(p[i])) {
      return false;
    }
  }
  return true;
}

bool Rule::is_simple() const {
  for (const IntervalSet& s : conjuncts_) {
    if (s.run_count() != 1) {
      return false;
    }
  }
  return true;
}

}  // namespace dfw
