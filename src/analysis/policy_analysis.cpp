#include "analysis/policy_analysis.hpp"

#include <algorithm>
#include <stdexcept>

#include "rt/govern.hpp"

namespace dfw {
namespace {

std::shared_ptr<AnalysisArena> fresh_arena(const Schema& schema,
                                           RunContext* context) {
  auto shared = std::make_shared<AnalysisArena>(schema);
  shared->arena.set_context(context);
  return shared;
}

}  // namespace

PolicyAnalysis::PolicyAnalysis(std::shared_ptr<AnalysisArena> shared,
                               Policy policy, const ObsOptions& obs)
    : shared_(std::move(shared)), policy_(std::move(policy)) {
  FddArena& arena = shared_->arena;
  if (!(policy_.schema() == arena.schema())) {
    throw std::invalid_argument("PolicyAnalysis: schema mismatch");
  }
  PhaseSpan span(obs, "prefix_roots", "rules",
                 static_cast<std::uint64_t>(policy_.size()));
  prefix_.reserve(policy_.size() + 1);
  paths_.reserve(policy_.size());
  prefix_.push_back(FddArena::kEmpty);
  for (const Rule& rule : policy_.rules()) {
    govern::checkpoint(arena.context());
    const ArenaNodeId path = arena.append_rule(FddArena::kEmpty, rule);
    paths_.push_back(path);
    const ArenaNodeId prefix = prefix_.back();
    if (prefix == FddArena::kEmpty) {
      prefix_.push_back(path);
      continue;
    }
    const std::uint64_t key = IdPairMemo::key(prefix, path);
    ArenaNodeId next;
    if (!shared_->extensions.find(key, next)) {
      next = arena.append_rule(prefix, rule);
      shared_->extensions.insert(key, next);
    }
    prefix_.push_back(next);
  }
}

PolicyAnalysis::PolicyAnalysis(const Policy& policy, RunContext* context,
                               const ObsOptions& obs)
    : PolicyAnalysis(fresh_arena(policy.schema(), context), policy, obs) {}

ArenaDiagram PolicyAnalysis::diagram() const {
  // Aliasing: the handle shares ownership of the whole AnalysisArena.
  return {std::shared_ptr<const FddArena>(shared_, &shared_->arena), root()};
}

bool PolicyAnalysis::comprehensive() const {
  return root() != FddArena::kEmpty && arena().is_complete(root());
}

std::vector<std::size_t> PolicyAnalysis::dead() const {
  std::vector<std::size_t> dead;
  for (std::size_t k = 0; k < policy_.size(); ++k) {
    if (prefix_[k + 1] == prefix_[k]) {
      dead.push_back(k);
    }
  }
  return dead;
}

bool PolicyAnalysis::redundant_at(std::size_t k, ArenaNodeId with,
                                  ArenaNodeId without) {
  // Dead (upward redundant) is O(1) and implies downward redundancy.
  return prefix_[k + 1] == prefix_[k] ||
         arena().agree_outside(prefix_[k], with, without);
}

bool PolicyAnalysis::is_redundant(std::size_t index) {
  if (index >= policy_.size()) {
    throw std::out_of_range("is_redundant: index out of range");
  }
  if (!comprehensive()) {
    return false;
  }
  ArenaNodeId suffix = FddArena::kEmpty;
  for (std::size_t k = policy_.size(); k-- > index + 1;) {
    suffix = arena().overlay(paths_[k], suffix);
  }
  return redundant_at(index, arena().overlay(paths_[index], suffix), suffix);
}

std::vector<std::size_t> PolicyAnalysis::redundant() {
  std::vector<std::size_t> result;
  if (!comprehensive()) {
    return result;
  }
  ArenaNodeId suffix = FddArena::kEmpty;  // S_{k+1}, the rules (k, n)
  for (std::size_t k = policy_.size(); k-- > 0;) {
    govern::checkpoint(arena().context());
    const ArenaNodeId with = arena().overlay(paths_[k], suffix);  // S_k
    if (redundant_at(k, with, suffix)) {
      result.push_back(k);
    }
    suffix = with;
  }
  std::reverse(result.begin(), result.end());
  return result;
}

Policy PolicyAnalysis::without_redundant() {
  if (!comprehensive()) {
    return policy_;
  }
  // Because p_k does not change when a later rule goes, each test is
  // against the rules still kept: the kept suffix keeps
  // p_n = overlay(p_k, overlay(path(r_k), kept)). And dropping an earlier
  // rule never makes a kept one redundant (the packet that needed it
  // still first-matches it), so the one pass leaves no redundant rule.
  std::vector<Rule> kept;
  ArenaNodeId suffix = FddArena::kEmpty;  // the kept rules of (k, n)
  for (std::size_t k = policy_.size(); k-- > 0;) {
    govern::checkpoint(arena().context());
    if (prefix_[k + 1] == prefix_[k]) {
      continue;  // dead, so redundant without building anything
    }
    const ArenaNodeId with = arena().overlay(paths_[k], suffix);
    if (!arena().agree_outside(prefix_[k], with, suffix)) {
      kept.push_back(policy_.rule(k));
      suffix = with;
    }
  }
  std::reverse(kept.begin(), kept.end());
  return Policy(policy_.schema(), std::move(kept));
}

}  // namespace dfw
