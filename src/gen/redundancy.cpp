#include "gen/redundancy.hpp"

#include <span>
#include <stdexcept>

#include "fdd/arena.hpp"
#include "rt/govern.hpp"

namespace dfw {
namespace {

/// The prefix roots of a rule sequence in one arena. memos_[k] is the
/// sequence's k-th rule with its append memo; prefix_[k] is the canonical
/// partial diagram of rules [0, k), prefix_[0] the empty one. The rules
/// are borrowed from the policy the oracle was built from.
class PrefixRoots {
 public:
  PrefixRoots(const Policy& policy, RunContext* context)
      : arena_(policy.schema()) {
    arena_.set_context(context);
    memos_.reserve(policy.size());
    for (const Rule& rule : policy.rules()) {
      memos_.emplace_back(rule);
    }
    prefix_.push_back(FddArena::kEmpty);
    extend_prefixes();
  }

  std::size_t size() const { return memos_.size(); }

  bool comprehensive() const {
    try {
      arena_.validate(prefix_.back());
      return true;
    } catch (const std::logic_error&) {
      return false;  // some packet falls through
    }
  }

  /// True iff dropping rule k leaves the whole sequence's mapping
  /// unchanged. The candidate is rules [0, j) without rule k, grown one
  /// rule at a time from prefix_[k]; once it equals prefix_[j], appending
  /// the same rules to both keeps them equal, so the answer is in.
  bool redundant(std::size_t k) {
    ArenaNodeId candidate = prefix_[k];
    std::size_t j = k + 1;
    for (; candidate != prefix_[j] && j < size(); ++j) {
      candidate = arena_.append_rule(candidate, memos_[j]);
    }
    const bool equal = candidate == prefix_[j];
    // No later test reads the candidate's nodes: drop them, so the oracle
    // holds the prefixes and one candidate, not every candidate so far.
    arena_.rollback(mark_, std::span(memos_).subspan(k + 1, j - k - 1));
    return equal;
  }

  /// Frees rule k's memo once no candidate will append rule k again.
  void release(std::size_t k) { memos_[k] = AppendMemo(memos_[k].rule()); }

  /// Drops rule k from the sequence. The prefixes up to k stay; the later
  /// ones are rebuilt, mostly from the memos.
  void erase(std::size_t k) {
    memos_.erase(memos_.begin() + static_cast<std::ptrdiff_t>(k));
    prefix_.resize(k + 1);
    extend_prefixes();
  }

  Policy policy() const {
    std::vector<Rule> rules;
    rules.reserve(size());
    for (const AppendMemo& memo : memos_) {
      rules.push_back(memo.rule());
    }
    return Policy(arena_.schema(), std::move(rules));
  }

 private:
  // build_reduced's append loop, keeping every intermediate root.
  void extend_prefixes() {
    for (std::size_t k = prefix_.size() - 1; k < size(); ++k) {
      prefix_.push_back(arena_.append_rule(prefix_[k], memos_[k]));
    }
    mark_ = arena_.mark();
  }

  FddArena arena_;
  std::vector<AppendMemo> memos_;
  std::vector<ArenaNodeId> prefix_;
  FddArena::Mark mark_;  // the arena holding the prefixes and no candidate
};

}  // namespace

bool is_redundant(const Policy& policy, std::size_t index,
                  RunContext* context) {
  if (index >= policy.size()) {
    throw std::out_of_range("is_redundant: index out of range");
  }
  PrefixRoots roots(policy, context);
  return roots.comprehensive() && roots.redundant(index);
}

std::vector<std::size_t> redundant_rules(const Policy& policy,
                                         RunContext* context) {
  std::vector<std::size_t> result;
  PrefixRoots roots(policy, context);
  if (!roots.comprehensive()) {
    return result;
  }
  for (std::size_t i = 0; i < roots.size(); ++i) {
    govern::checkpoint(context);
    if (roots.redundant(i)) {
      result.push_back(i);
    }
    // No later candidate appends rule i + 1: candidate i + 1 starts past it.
    if (i + 1 < roots.size()) {
      roots.release(i + 1);
    }
  }
  return result;
}

Policy remove_redundant(const Policy& policy) {
  PrefixRoots roots(policy, nullptr);
  if (!roots.comprehensive()) {
    return policy;
  }
  bool removed = true;
  while (removed) {
    removed = false;
    for (std::size_t i = roots.size(); i-- > 0;) {
      if (roots.redundant(i)) {
        roots.erase(i);
        removed = true;
      }
    }
  }
  return roots.policy();
}

}  // namespace dfw
