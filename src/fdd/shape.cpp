#include "fdd/shape.hpp"

#include <algorithm>
#include <stdexcept>

#include "fdd/node.hpp"
#include "fdd/simplify.hpp"

namespace dfw {
namespace {

// Orders nodes for step 1 of NODE_SHAPING (Fig. 10): the node whose label
// comes earlier in the field order absorbs the other via node insertion;
// terminals sort after every field.
std::size_t label_rank(const FddNode& n) {
  return n.is_terminal() ? kTerminalField : n.field;
}

// Node insertion (Section 4, operation 1): hoist `slot` under a fresh
// node labeled `field` whose single edge spans the whole domain.
void insert_above(const Schema& schema, std::unique_ptr<FddNode>& slot,
                  std::size_t field) {
  auto inserted = FddNode::make_internal(field);
  inserted->edges.emplace_back(IntervalSet(schema.domain(field)),
                               std::move(slot));
  slot = std::move(inserted);
}

// NODE_SHAPING (Fig. 10) on a pair of owning slots.
//
// Step 1 aligns the two labels by node insertion. Step 2 aligns the edge
// partitions: the paper splits simple (single-interval) edges at each
// other's cut points; we compute the same common refinement directly as
// the nonempty pairwise intersections of the two label partitions, and —
// as an optimisation the paper's tree semantics permits — keep the
// fragments of one edge *pair* merged in a single edge, so identical
// regions of the two diagrams are never torn apart. Fragment edges from
// the same source edge share that edge's subtree via cloning (subgraph
// replication, operation 3). Recurses on each aligned child pair.
void shape_nodes(const Schema& schema, std::unique_ptr<FddNode>& a_slot,
                 std::unique_ptr<FddNode>& b_slot) {
  // Step 1: make both labels equal.
  while (label_rank(*a_slot) != label_rank(*b_slot)) {
    if (label_rank(*a_slot) < label_rank(*b_slot)) {
      insert_above(schema, b_slot, a_slot->field);
    } else {
      insert_above(schema, a_slot, b_slot->field);
    }
  }
  FddNode& a = *a_slot;
  FddNode& b = *b_slot;
  if (a.is_terminal()) {
    return;
  }

  // Step 2: common refinement of the two edge partitions.
  struct Fragment {
    IntervalSet label;
    std::size_t a_edge;
    std::size_t b_edge;
  };
  std::vector<Fragment> fragments;
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    for (std::size_t j = 0; j < b.edges.size(); ++j) {
      IntervalSet common = a.edges[i].label.intersect(b.edges[j].label);
      if (!common.empty()) {
        fragments.push_back({std::move(common), i, j});
      }
    }
  }
  // Canonical edge order so both nodes list fragments identically.
  std::sort(fragments.begin(), fragments.end(),
            [](const Fragment& x, const Fragment& y) {
              return x.label.min() < y.label.min();
            });

  // Fast path: partitions already identical — no rebuilding, no clones.
  const bool aligned =
      fragments.size() == a.edges.size() &&
      fragments.size() == b.edges.size() &&
      [&] {
        for (std::size_t k = 0; k < fragments.size(); ++k) {
          if (fragments[k].label != a.edges[fragments[k].a_edge].label) {
            return false;
          }
        }
        return true;
      }();
  if (aligned) {
    // Reorder in canonical order and recurse pairwise.
    std::vector<FddEdge> a_new;
    std::vector<FddEdge> b_new;
    a_new.reserve(fragments.size());
    b_new.reserve(fragments.size());
    for (const Fragment& f : fragments) {
      a_new.push_back(std::move(a.edges[f.a_edge]));
      b_new.push_back(std::move(b.edges[f.b_edge]));
    }
    a.edges = std::move(a_new);
    b.edges = std::move(b_new);
    for (std::size_t k = 0; k < a.edges.size(); ++k) {
      shape_nodes(schema, a.edges[k].target, b.edges[k].target);
    }
    return;
  }

  // General path: rebuild both edge lists from the fragments. The last
  // fragment referencing a source edge steals its subtree; earlier ones
  // clone it.
  std::vector<std::size_t> a_remaining(a.edges.size(), 0);
  std::vector<std::size_t> b_remaining(b.edges.size(), 0);
  for (const Fragment& f : fragments) {
    ++a_remaining[f.a_edge];
    ++b_remaining[f.b_edge];
  }
  std::vector<FddEdge> a_new;
  std::vector<FddEdge> b_new;
  a_new.reserve(fragments.size());
  b_new.reserve(fragments.size());
  for (const Fragment& f : fragments) {
    std::unique_ptr<FddNode> a_child =
        (--a_remaining[f.a_edge] == 0)
            ? std::move(a.edges[f.a_edge].target)
            : a.edges[f.a_edge].target->clone();
    std::unique_ptr<FddNode> b_child =
        (--b_remaining[f.b_edge] == 0)
            ? std::move(b.edges[f.b_edge].target)
            : b.edges[f.b_edge].target->clone();
    a_new.emplace_back(f.label, std::move(a_child));
    b_new.emplace_back(f.label, std::move(b_child));
  }
  a.edges = std::move(a_new);
  b.edges = std::move(b_new);
  for (std::size_t k = 0; k < a.edges.size(); ++k) {
    shape_nodes(schema, a.edges[k].target, b.edges[k].target);
  }
}

// Fig. 10's step 2 on *simple* FDDs: a merge sweep over two sorted runs
// of single-interval edges partitioning the same domain. Splitting the
// longer edge at the shorter's endpoint clones its subtree (subgraph
// replication). Both inputs come from make_simple, so step 1 (label
// alignment) has already happened.
void shape_nodes_simple(FddNode& a, FddNode& b) {
  if (a.is_terminal() && b.is_terminal()) {
    return;
  }
  if (a.is_terminal() || b.is_terminal() || a.field != b.field) {
    throw std::logic_error(
        "shape_nodes_simple: inputs are not simple FDDs over one schema");
  }
  std::size_t i = 0;
  std::size_t j = 0;
  // Invariant: on entry to each iteration the two current edges' intervals
  // begin at the same value (both partitions started at the domain min).
  while (i < a.edges.size() && j < b.edges.size()) {
    const Interval ia = a.edges[i].label.intervals().front();
    const Interval ib = b.edges[j].label.intervals().front();
    if (ia.hi() == ib.hi()) {
      shape_nodes_simple(*a.edges[i].target, *b.edges[j].target);
      ++i;
      ++j;
      continue;
    }
    if (ia.hi() < ib.hi()) {
      FddEdge& eb = b.edges[j];
      std::unique_ptr<FddNode> upper_copy = eb.target->clone();
      eb.label = IntervalSet(Interval(ib.lo(), ia.hi()));
      b.edges.emplace(b.edges.begin() + static_cast<std::ptrdiff_t>(j) + 1,
                      IntervalSet(Interval(ia.hi() + 1, ib.hi())),
                      std::move(upper_copy));
    } else {
      FddEdge& ea = a.edges[i];
      std::unique_ptr<FddNode> upper_copy = ea.target->clone();
      ea.label = IntervalSet(Interval(ia.lo(), ib.hi()));
      a.edges.emplace(a.edges.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                      IntervalSet(Interval(ib.hi() + 1, ia.hi())),
                      std::move(upper_copy));
    }
  }
  if (i != a.edges.size() || j != b.edges.size()) {
    throw std::logic_error(
        "shape_nodes_simple: edge partitions cover different domains");
  }
}

}  // namespace

void shape_pair_simple(Fdd& a, Fdd& b) {
  if (!(a.schema() == b.schema())) {
    throw std::invalid_argument("shape_pair_simple: schemas differ");
  }
  make_simple(a);
  make_simple(b);
  shape_nodes_simple(a.mutable_root(), b.mutable_root());
}

void shape_pair(Fdd& a, Fdd& b) {
  if (!(a.schema() == b.schema())) {
    throw std::invalid_argument("shape_pair: schemas differ");
  }
  shape_nodes(a.schema(), a.root_slot(), b.root_slot());
}

void shape_all(std::vector<Fdd>& fdds) {
  if (fdds.empty()) {
    throw std::invalid_argument("shape_all: no FDDs");
  }
  if (fdds.size() == 1) {
    make_simple(fdds[0]);
    return;
  }
  // Pass 1: funnel every refinement into fdds[0].
  for (std::size_t i = 1; i < fdds.size(); ++i) {
    shape_pair(fdds[0], fdds[i]);
  }
  // Pass 2: fdds[0] is now the common refinement; aligning the others
  // against it splits only *their* edges (fdds[0] is already at least as
  // fine), leaving fdds[0] untouched and making all pairs semi-isomorphic.
  for (std::size_t i = 1; i + 1 < fdds.size(); ++i) {
    shape_pair(fdds[0], fdds[i]);
  }
}

}  // namespace dfw
