// Diagram statistics: size measures used by Theorem 1's bound checks, the
// benchmarks, and the examples' progress reports.

#pragma once

#include <cstddef>
#include <string>

#include "fdd/fdd.hpp"

namespace dfw {

struct FddStats {
  std::size_t nodes = 0;      ///< total node count, root included
  std::size_t terminals = 0;  ///< terminal-node count
  std::size_t edges = 0;      ///< total edge count
  std::size_t paths = 0;      ///< decision-path count (f.rules size)
  std::size_t depth = 0;      ///< longest root-to-terminal node count
};

FddStats compute_stats(const Fdd& fdd);

/// Theorem 1's bound on the path count of an FDD constructed from n simple
/// rules over d fields: (2n-1)^d, saturating at SIZE_MAX.
std::size_t theorem1_path_bound(std::size_t n_rules, std::size_t d_fields);

std::string to_string(const FddStats& s);

/// Counters an FddArena keeps over its lifetime: unique-table and label-
/// table sizes and hit rates, plus per-operation memo-cache hit rates.
/// Deterministic for a fixed operation sequence, so benchmarks can report
/// sharing factors and tests can assert reproducibility.
struct ArenaStats {
  std::size_t unique_nodes = 0;    ///< nodes the arena materialised
  std::size_t unique_labels = 0;   ///< interned edge labels
  std::size_t node_queries = 0;    ///< unique-table lookups
  std::size_t node_hits = 0;       ///< lookups resolved to an existing node
  std::size_t label_queries = 0;   ///< label-table lookups
  std::size_t label_hits = 0;      ///< lookups resolved to an existing label
  std::size_t append_cache_hits = 0;    ///< COW-append memo hits
  std::size_t append_cache_misses = 0;
  std::size_t overlay_cache_hits = 0;   ///< first-match overlay memo hits
  std::size_t overlay_cache_misses = 0;

  friend bool operator==(const ArenaStats&, const ArenaStats&) = default;
};

std::string to_string(const ArenaStats& s);

}  // namespace dfw
