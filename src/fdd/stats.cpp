#include "fdd/stats.hpp"

#include <algorithm>

namespace dfw {
namespace {

void visit(const FddNode& n, std::size_t depth, FddStats& s) {
  s.nodes += 1;
  s.depth = std::max(s.depth, depth + 1);
  if (n.is_terminal()) {
    s.terminals += 1;
    s.paths += 1;
    return;
  }
  s.edges += n.edges.size();
  for (const FddEdge& e : n.edges) {
    visit(*e.target, depth + 1, s);
  }
}

}  // namespace

FddStats compute_stats(const Fdd& fdd) {
  FddStats s;
  visit(fdd.root(), 0, s);
  return s;
}

std::size_t theorem1_path_bound(std::size_t n_rules, std::size_t d_fields) {
  const std::size_t base = 2 * n_rules - 1;
  std::size_t bound = 1;
  for (std::size_t i = 0; i < d_fields; ++i) {
    if (bound > SIZE_MAX / base) {
      return SIZE_MAX;
    }
    bound *= base;
  }
  return bound;
}

std::string to_string(const FddStats& s) {
  return "nodes=" + std::to_string(s.nodes) +
         " terminals=" + std::to_string(s.terminals) +
         " edges=" + std::to_string(s.edges) +
         " paths=" + std::to_string(s.paths) +
         " depth=" + std::to_string(s.depth);
}

namespace {

std::string rate(std::size_t hits, std::size_t queries) {
  if (queries == 0) {
    return "-";
  }
  return std::to_string(hits * 100 / queries) + "%";
}

}  // namespace

std::string to_string(const ArenaStats& s) {
  return "unique_nodes=" + std::to_string(s.unique_nodes) +
         " unique_labels=" + std::to_string(s.unique_labels) +
         " node_hit=" + rate(s.node_hits, s.node_queries) +
         " label_hit=" + rate(s.label_hits, s.label_queries) +
         " append_hit=" +
         rate(s.append_cache_hits,
              s.append_cache_hits + s.append_cache_misses) +
         " overlay_hit=" +
         rate(s.overlay_cache_hits,
              s.overlay_cache_hits + s.overlay_cache_misses);
}

}  // namespace dfw
