#include "engine/slab_layout.hpp"

#include <algorithm>
#include <utility>

#include "fdd/arena.hpp"
#include "rt/govern.hpp"

namespace dfw::engine_detail {

SlabLayout flatten_diagram(const ArenaDiagram& diagram) {
  const FddArena& arena = *diagram.arena;
  SlabLayout layout;
  // Slab reference of each node already flattened, by arena id; the
  // all-ones value is never a reference (decisions are 16-bit).
  constexpr std::uint32_t kUnflattened = 0xffff'ffffu;
  std::vector<std::uint32_t> flattened(arena.unique_node_count(),
                                       kUnflattened);
  const auto flatten = [&](auto&& self, ArenaNodeId id) -> std::uint32_t {
    if (flattened[id] != kUnflattened) {
      return flattened[id];
    }
    if (arena.is_terminal(id)) {
      return flattened[id] = kDecisionBit | arena.decision(id);
    }
    // Children first, so this node's slabs land contiguously afterwards.
    std::vector<std::pair<Value, std::uint32_t>> pending;
    for (const ArenaEdge& e : arena.edges(id)) {
      const std::uint32_t target = self(self, e.target);
      for (const Interval& run : arena.label(e.label).intervals()) {
        pending.emplace_back(run.hi(), target);
      }
    }
    std::sort(pending.begin(), pending.end());
    const std::uint32_t slab_begin =
        static_cast<std::uint32_t>(layout.slabs.size());
    for (const auto& [upper, target] : pending) {
      layout.slabs.push_back({upper, target});
    }
    const std::uint32_t index =
        static_cast<std::uint32_t>(layout.nodes.size());
    if (index >= kDecisionBit) {
      throw Error(ErrorCode::kCapacityExceeded,
                  "flat-slab classifier: diagram exceeds the 31-bit node "
                  "index space");
    }
    layout.nodes.push_back({arena.field(id), slab_begin,
                            static_cast<std::uint32_t>(layout.slabs.size())});
    return flattened[id] = index;
  };
  layout.root = flatten(flatten, diagram.root);
  return layout;
}

}  // namespace dfw::engine_detail
