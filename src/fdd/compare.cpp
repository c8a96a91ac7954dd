#include "fdd/compare.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "fdd/arena.hpp"
#include "rt/fault.hpp"
#include "rt/parallel.hpp"

namespace dfw {
namespace {

// Lockstep walk over N semi-isomorphic subtrees accumulating the common
// path predicate; emits a record at terminals with disagreeing decisions.
void walk(const Schema& schema, const std::vector<const FddNode*>& nodes,
          std::vector<IntervalSet>& conjuncts, std::vector<Discrepancy>& out) {
  const FddNode* first = nodes.front();
  if (first->is_terminal()) {
    const bool all_equal =
        std::all_of(nodes.begin(), nodes.end(), [&](const FddNode* n) {
          return n->decision == first->decision;
        });
    if (!all_equal) {
      Discrepancy d;
      d.conjuncts = conjuncts;
      d.decisions.reserve(nodes.size());
      for (const FddNode* n : nodes) {
        d.decisions.push_back(n->decision);
      }
      out.push_back(std::move(d));
    }
    return;
  }
  for (std::size_t e = 0; e < first->edges.size(); ++e) {
    conjuncts[first->field] = first->edges[e].label;
    std::vector<const FddNode*> children;
    children.reserve(nodes.size());
    for (const FddNode* n : nodes) {
      children.push_back(n->edges[e].target.get());
    }
    walk(schema, children, conjuncts, out);
  }
  conjuncts[first->field] = IntervalSet(schema.domain(first->field));
}

std::vector<Discrepancy> compare_trees(const Schema& schema,
                                       const std::vector<const FddNode*>& roots) {
  std::vector<IntervalSet> conjuncts;
  conjuncts.reserve(schema.field_count());
  for (std::size_t i = 0; i < schema.field_count(); ++i) {
    conjuncts.emplace_back(schema.domain(i));
  }
  std::vector<Discrepancy> out;
  walk(schema, roots, conjuncts, out);
  return out;
}

// Absorbs an arena's lifetime stats into the registry (nullable) when it
// leaves scope, so they land there even when a governance breach unwinds
// mid-phase.
struct StatsFlush {
  const FddArena& arena;
  MetricsRegistry* metrics;
  ~StatsFlush() {
    if (metrics != nullptr) {
      absorb(*metrics, arena.stats());
    }
  }
};

void discrepancies_into(std::span<const ArenaDiagram> diagrams,
                        const CompareOptions& options,
                        std::vector<Discrepancy>& out) {
  if (diagrams.empty()) {
    throw std::invalid_argument("discrepancies: no diagrams");
  }
  FddArena arena(diagrams.front().arena->schema());
  const StatsFlush flush{arena, options.run.obs.metrics};
  compare_diagrams(arena, diagrams, options.run, out);
}

void discrepancies_into(std::span<const Policy* const> policies,
                        const CompareOptions& options,
                        std::vector<Discrepancy>& out) {
  if (policies.empty()) {
    throw std::invalid_argument("discrepancies_many: no policies");
  }
  FddArena arena(policies.front()->schema());
  const StatsFlush flush{arena, options.run.obs.metrics};
  compare_policies(arena, policies, options.run, out);
}

std::vector<const Policy*> addresses(const std::vector<Policy>& policies) {
  std::vector<const Policy*> out;
  out.reserve(policies.size());
  for (const Policy& p : policies) {
    out.push_back(&p);
  }
  return out;
}

CompareOutcome run_governed(
    const std::function<void(std::vector<Discrepancy>&)>& pipeline) {
  CompareOutcome outcome;
  try {
    pipeline(outcome.discrepancies);
  } catch (const Error& e) {
    // Governance cuts (cancel/deadline/budget) become a partial report;
    // anything else — bad inputs, internal faults — is a real error and
    // keeps propagating.
    outcome.complete = false;
    outcome.status = e.code();
    outcome.message = e.what();
  }
  return outcome;
}

}  // namespace

std::vector<Discrepancy> compare_fdds(const Fdd& a, const Fdd& b) {
  if (!semi_isomorphic(a, b)) {
    throw std::invalid_argument("compare_fdds: FDDs are not semi-isomorphic");
  }
  return compare_trees(a.schema(), {&a.root(), &b.root()});
}

std::vector<Discrepancy> compare_fdds_many(const std::vector<Fdd>& fdds) {
  if (fdds.empty()) {
    throw std::invalid_argument("compare_fdds_many: no FDDs");
  }
  std::vector<const FddNode*> roots;
  roots.reserve(fdds.size());
  for (std::size_t i = 1; i < fdds.size(); ++i) {
    if (!semi_isomorphic(fdds[0], fdds[i])) {
      throw std::invalid_argument(
          "compare_fdds_many: FDDs are not pairwise semi-isomorphic");
    }
  }
  for (const Fdd& f : fdds) {
    roots.push_back(&f.root());
  }
  return compare_trees(fdds[0].schema(), roots);
}

ArenaDiagram build_diagram(const Policy& policy, const RunOptions& run) {
  ScopedSpan span(run.obs.tracer, "build_reduced_fdd", "rules",
                  policy.size());
  // Phase-boundary fault site: fires before any construction state
  // exists, modelling a failure at the hand-off into this phase.
  fault::hit(run.faults, fault::sites::kConstructPhase);
  auto arena = std::make_shared<FddArena>(policy.schema());
  arena->set_context(run.context);
  arena->set_faults(run.faults);
  const StatsFlush flush{*arena, run.obs.metrics};
  const ArenaNodeId root = arena->build_reduced(policy);
  return ArenaDiagram{std::move(arena), root};
}

std::vector<ArenaDiagram> build_diagrams(
    std::span<const Policy* const> policies, const RunOptions& run) {
  // Construction dominates the pipeline (Fig. 13) and the diagrams are
  // independent until comparison, so each builds in an arena of its own —
  // a pool task apiece.
  PhaseSpan phase(run.obs, "construct");
  return parallel_map<ArenaDiagram>(
      executor_or_inline(run), policies.size(),
      [&](std::size_t i) { return build_diagram(*policies[i], run); },
      run.context, run.obs);
}

std::vector<ArenaNodeId> compare_diagrams(
    FddArena& arena, std::span<const ArenaDiagram> diagrams,
    const RunOptions& run, std::vector<Discrepancy>& out) {
  arena.set_context(run.context);
  std::vector<ArenaNodeId> roots;
  roots.reserve(diagrams.size());
  {
    PhaseSpan phase(run.obs, "validate");
    for (const ArenaDiagram& d : diagrams) {
      roots.push_back(arena.import(*d.arena, d.root));
    }
    for (const ArenaNodeId root : roots) {
      arena.validate(root);  // rejects non-comprehensive inputs up front
    }
  }
  PhaseSpan phase(run.obs, "compare");
  arena.compare_into(roots, out);
  return roots;
}

std::vector<ArenaNodeId> compare_policies(
    FddArena& arena, std::span<const Policy* const> policies,
    const RunOptions& run, std::vector<Discrepancy>& out) {
  return compare_diagrams(arena, build_diagrams(policies, run), run, out);
}

std::vector<Discrepancy> discrepancies(std::span<const ArenaDiagram> diagrams,
                                       const CompareOptions& options) {
  std::vector<Discrepancy> out;
  discrepancies_into(diagrams, options, out);
  return out;
}

CompareOutcome discrepancies_governed(std::span<const ArenaDiagram> diagrams,
                                      const CompareOptions& options) {
  return run_governed([&](std::vector<Discrepancy>& out) {
    discrepancies_into(diagrams, options, out);
  });
}

std::vector<Discrepancy> discrepancies(const Policy& a, const Policy& b,
                                       const CompareOptions& options) {
  const Policy* inputs[] = {&a, &b};
  std::vector<Discrepancy> out;
  discrepancies_into(inputs, options, out);
  return out;
}

std::vector<Discrepancy> discrepancies_many(
    const std::vector<Policy>& policies, const CompareOptions& options) {
  std::vector<Discrepancy> out;
  discrepancies_into(addresses(policies), options, out);
  return out;
}

CompareOutcome discrepancies_governed(const Policy& a, const Policy& b,
                                      const CompareOptions& options) {
  const Policy* inputs[] = {&a, &b};
  return run_governed([&](std::vector<Discrepancy>& out) {
    discrepancies_into(inputs, options, out);
  });
}

CompareOutcome discrepancies_many_governed(
    const std::vector<Policy>& policies, const CompareOptions& options) {
  return run_governed([&](std::vector<Discrepancy>& out) {
    discrepancies_into(addresses(policies), options, out);
  });
}

bool equivalent(const Policy& a, const Policy& b) {
  // Canonical construction makes id equality semantic equality.
  FddArena arena(a.schema());
  const ArenaNodeId root_a = arena.build_reduced(a);
  const ArenaNodeId root_b = arena.build_reduced(b);
  arena.validate(root_a);
  arena.validate(root_b);
  return root_a == root_b;
}

Value discrepancy_packet_count(const Discrepancy& d) {
  Value total = 1;
  for (const IntervalSet& s : d.conjuncts) {
    const Value n = s.size();
    if (n != 0 && total > UINT64_MAX / n) {
      return UINT64_MAX;
    }
    total *= n;
  }
  return total;
}

}  // namespace dfw
