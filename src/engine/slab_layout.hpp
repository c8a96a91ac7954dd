// The flat-slab layout the classifier compiles to.
//
// The diagram is flattened children first, so each node's slabs land
// contiguously; one record per unique nonterminal of the hash-consed DAG
// holds a sorted run of (upper-bound, next) slabs; `next` encodes either
// another node index or a terminal decision through the high bit. A
// subdiagram the DAG shares is flattened once and shared by index. A
// lookup is one branchless binary search per diagram level. Internal
// header — not part of the public engine surface.

#pragma once

#include <cstdint>
#include <vector>

#include "net/interval.hpp"

namespace dfw {

struct ArenaDiagram;

namespace engine_detail {

/// `next` values at or above kDecisionBit are terminal decisions.
inline constexpr std::uint32_t kDecisionBit = 0x8000'0000u;

/// A slab covers field values up to and including `upper`.
struct Slab {
  Value upper;
  std::uint32_t next;
};

/// One flattened nonterminal: its schema field and its slab run.
struct SlabNode {
  std::uint32_t field;
  std::uint32_t slab_begin;
  std::uint32_t slab_end;
};

/// The whole flattened diagram. `root` may itself be a decision (constant
/// firewall), in which case `nodes` is empty.
struct SlabLayout {
  std::vector<SlabNode> nodes;
  std::vector<Slab> slabs;
  std::uint32_t root = 0;
};

/// Flattens a complete diagram (caller has validated it), one node per
/// unique nonterminal. Throws dfw::Error (ErrorCode::kCapacityExceeded)
/// when the diagram exceeds the 31-bit index space.
SlabLayout flatten_diagram(const ArenaDiagram& diagram);

/// First slab in [begin, begin+n) whose upper bound is >= v, assuming one
/// exists (completeness guarantees it for in-domain v; out-of-domain
/// values clamp to the last slab). The step selects an index, not a
/// pointer: GCC 12 compiles the index select to a conditional move
/// (`cmovb`) but a pointer select to a compare and a jump, which random
/// traffic mispredicts. The trip count depends on n alone, so the loop
/// exit is the only branch.
inline const Slab* branchless_lower_bound(const Slab* begin, std::size_t n,
                                          Value v) {
  std::size_t lo = 0;
  while (n > 1) {
    const std::size_t half = n / 2;
    const std::size_t mid = lo + half;
    lo = begin[mid - 1].upper < v ? mid : lo;
    n -= half;
  }
  return begin + lo;
}

}  // namespace engine_detail
}  // namespace dfw
