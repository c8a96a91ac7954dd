// The flat-slab backend: the library's original compiled layout, now one
// contender behind the ClassifierBackend interface. One record per unique
// diagram nonterminal with a sorted (upper, next) slab run; a lookup is d
// branchless binary searches over contiguous memory. This is the default
// backend and the baseline every alternative must beat to earn a slot in
// CompileOptions::backend.

#include "engine/backend.hpp"
#include "engine/slab_layout.hpp"

namespace dfw {
namespace {

using engine_detail::kDecisionBit;
using engine_detail::Slab;
using engine_detail::SlabLayout;
using engine_detail::SlabNode;

class FlatSlabBackend final : public ClassifierBackend {
 public:
  explicit FlatSlabBackend(SlabLayout layout) : layout_(std::move(layout)) {}

  ClassifierBackendKind kind() const override {
    return ClassifierBackendKind::kFlatSlab;
  }

  Decision classify_one(const Value* packet) const override {
    std::uint32_t current = layout_.root;
    while ((current & kDecisionBit) == 0) {
      const SlabNode& node = layout_.nodes[current];
      const Slab* hit = engine_detail::branchless_lower_bound(
          layout_.slabs.data() + node.slab_begin,
          node.slab_end - node.slab_begin, packet[node.field]);
      current = hit->next;
    }
    return static_cast<Decision>(current & ~kDecisionBit);
  }

  std::size_t node_count() const override { return layout_.nodes.size(); }
  std::size_t slab_count() const override { return layout_.slabs.size(); }

 private:
  SlabLayout layout_;
};

}  // namespace

std::shared_ptr<const ClassifierBackend> compile_flat_slab_backend(
    const ArenaDiagram& diagram) {
  return std::make_shared<FlatSlabBackend>(
      engine_detail::flatten_diagram(diagram));
}

}  // namespace dfw
