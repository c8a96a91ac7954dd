// One policy version's canonical prefix roots, in an arena the versions of
// one policy share.
//
// The exact per-rule analyses all read the same chain: the canonical
// prefix roots p_0..p_n of a policy, p_k deciding like rules [0, k), p_0
// the empty diagram and p_n the policy's reduced diagram, each built from
// the last by FddArena::append_rule. In a hash-consed arena, canonical
// roots are equal iff the (partial) functions are, so
//
//   * rule k is dead iff p_{k+1} == p_k (no packet first-matches it);
//   * rule k is redundant (the paper's ref [19]) iff the rules around it
//     decide like the whole policy: overlay(p_k, S_{k+1}) == p_n, with the
//     suffix roots S_k = overlay(path(r_k), S_{k+1}) grown back to front,
//     path(r) being the rule's lone decision path and S_n the empty
//     diagram (Hazelhurst's reading of an access list as nested
//     if-then-else). Since p_n = overlay(p_k, S_k), that holds iff S_k and
//     S_{k+1} decide alike, undecided included, on every packet p_k
//     leaves undecided, which FddArena::agree_outside decides without
//     building overlay(p_k, S_{k+1});
//   * two versions are equivalent iff their p_n are the same id.
//
// A PolicyAnalysis builds that chain once per policy version and answers
// all three. Its arena is an AnalysisArena that several versions can
// share: simplify's rounds, its proof and the lint run after it read one
// arena (Hazelhurst's BDD analyses get their speed the same way, one
// unique table and memo serving every query on a rule set). Beside the
// arena sits the prefix-extension memo, (p, path(r)) -> append_rule(p, r).
// It is exact because a rule's path id is its canonical match set plus
// its decision, and appending depends on nothing else; so a later
// version's chain reuses every prefix its edits left alone, and removing
// a dead rule or merging two rules leaves the later prefix ids unchanged.
//
// An AnalysisArena is single-threaded like the FddArena in it: the
// analyses sharing it run on one thread at a time.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "fdd/arena.hpp"
#include "fw/policy.hpp"
#include "obs/obs.hpp"

namespace dfw {

class RunContext;

/// The arena the analyses of one policy's versions share, and the
/// prefix-extension memo over its ids: (prefix id, rule path id) -> the
/// next prefix id. The memo records only completed appends, so a breach
/// mid-append leaves it exact. Attach governance and faults to `arena`.
struct AnalysisArena {
  explicit AnalysisArena(Schema schema) : arena(std::move(schema)) {}

  FddArena arena;
  IdPairMemo extensions;
};

class PolicyAnalysis {
 public:
  /// Builds the prefix roots of `policy` in `shared` (same schema, else
  /// std::invalid_argument) under one "prefix_roots" phase span of `obs`.
  /// The context attached to the arena is checkpointed once per rule and
  /// charged for every node and label the chain materialises; a breach
  /// throws dfw::Error and leaves the arena valid.
  PolicyAnalysis(std::shared_ptr<AnalysisArena> shared, Policy policy,
                 const ObsOptions& obs = {});

  /// The same in a fresh arena governed by `context`.
  explicit PolicyAnalysis(const Policy& policy, RunContext* context = nullptr,
                          const ObsOptions& obs = {});

  const Policy& policy() const { return policy_; }
  const std::shared_ptr<AnalysisArena>& shared() const { return shared_; }
  FddArena& arena() const { return shared_->arena; }

  /// p_0..p_n; p_0 is FddArena::kEmpty.
  const std::vector<ArenaNodeId>& prefix_roots() const { return prefix_; }
  /// p_n, the policy's reduced (possibly partial) diagram.
  ArenaNodeId root() const { return prefix_.back(); }

  /// {arena, p_n}. The arena is the shared one, which later analyses may
  /// still append to: read the diagram on the thread that owns the arena.
  ArenaDiagram diagram() const;

  /// Whether p_n decides every packet: its root's completeness bit.
  bool comprehensive() const;

  /// Indices (ascending) of the rules no packet first-matches.
  std::vector<std::size_t> dead() const;

  /// Whether rule `index` is redundant: removing it leaves the mapping
  /// unchanged. False when the policy is not comprehensive; throws
  /// std::out_of_range when index >= size().
  bool is_redundant(std::size_t index);

  /// Indices (ascending) of the rules redundant in this policy, each
  /// tested on its own, in one back-to-front pass with a checkpoint per
  /// rule. Empty when the policy is not comprehensive.
  std::vector<std::size_t> redundant();

  /// The policy with redundant rules removed greedily, back to front, each
  /// tested against the rules still kept; unchanged when the policy is not
  /// comprehensive.
  Policy without_redundant();

 private:
  /// Whether rule k can go from rules [0, k] followed by the rules whose
  /// diagram is `without`, `with` being overlay(path(r_k), without).
  bool redundant_at(std::size_t k, ArenaNodeId with, ArenaNodeId without);

  std::shared_ptr<AnalysisArena> shared_;
  Policy policy_;
  std::vector<ArenaNodeId> prefix_;  // p_0..p_n
  std::vector<ArenaNodeId> paths_;   // path(r_k), the suffix fold's input
};

}  // namespace dfw
