#include "fdd/simplify.hpp"

namespace dfw {
namespace {

void simplify_node(const Schema& schema, std::unique_ptr<FddNode>& slot,
                   std::size_t expected_field) {
  // Node insertion: give skipped fields an explicit full-domain node so
  // that every path mentions every field in order.
  if (slot->field != expected_field) {
    // Either terminal reached early or a label further down the order.
    if (expected_field < schema.field_count()) {
      auto inserted = FddNode::make_internal(expected_field);
      inserted->edges.emplace_back(IntervalSet(schema.domain(expected_field)),
                                   std::move(slot));
      slot = std::move(inserted);
    }
  }
  if (slot->is_terminal()) {
    return;
  }
  // Edge splitting: one edge per interval run.
  std::vector<FddEdge> split;
  split.reserve(slot->edges.size());
  for (FddEdge& e : slot->edges) {
    const std::span<const Interval> runs = e.label.intervals();
    for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
      split.emplace_back(IntervalSet(runs[i]), e.target->clone());
    }
    // The last run keeps the original subtree (no clone needed).
    split.emplace_back(IntervalSet(runs.back()), std::move(e.target));
  }
  slot->edges = std::move(split);
  slot->sort_edges();
  for (FddEdge& e : slot->edges) {
    simplify_node(schema, e.target, expected_field + 1);
  }
}

}  // namespace

void make_simple(Fdd& fdd) {
  simplify_node(fdd.schema(), fdd.root_slot(), 0);
}

}  // namespace dfw
