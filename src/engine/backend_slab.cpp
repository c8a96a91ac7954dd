// The flat-slab backend: the library's original compiled layout, now one
// contender behind the ClassifierBackend interface. One record per unique
// diagram nonterminal with a sorted (upper, next) slab run; a lookup is d
// branchless binary searches over contiguous memory. A run of packets
// walks eight at a time, one diagram level per pass: the lanes' searches
// do not depend on each other, so the core overlaps their loads where one
// packet alone would wait on each of its own. This is the default backend
// and the baseline every alternative must beat to earn a slot in
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

  void classify(const Packet* packets, std::size_t n,
                Decision* out) const override {
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      walk<kLanes>(packets + i, out + i);
    }
    for (; i < n; ++i) {
      walk<1>(packets + i, out + i);
    }
  }

  std::size_t node_count() const override { return layout_.nodes.size(); }
  std::size_t slab_count() const override { return layout_.slabs.size(); }

 private:
  /// Packets per group. A constant: a lane count chosen at run time
  /// slowed single lookups, and 4 or 16 lanes measured no better.
  static constexpr std::size_t kLanes = 8;

  /// Walks `lanes` packets together, every live lane one diagram level
  /// per pass; a lane that has reached its decision is skipped. At one
  /// lane this is the scalar walk.
  template <std::size_t lanes>
  void walk(const Packet* packets, Decision* out) const {
    const SlabNode* nodes = layout_.nodes.data();
    const Slab* slabs = layout_.slabs.data();
    const Value* values[lanes];
    std::uint32_t current[lanes];
    for (std::size_t l = 0; l < lanes; ++l) {
      values[l] = packets[l].data();
      current[l] = layout_.root;
    }
    for (bool live = (layout_.root & kDecisionBit) == 0; live;) {
      live = false;
      for (std::size_t l = 0; l < lanes; ++l) {
        if ((current[l] & kDecisionBit) != 0) {
          continue;
        }
        const SlabNode& node = nodes[current[l]];
        current[l] = engine_detail::branchless_lower_bound(
                         slabs + node.slab_begin,
                         node.slab_end - node.slab_begin,
                         values[l][node.field])
                         ->next;
        live |= (current[l] & kDecisionBit) == 0;
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      out[l] = static_cast<Decision>(current[l] & ~kDecisionBit);
    }
  }

  SlabLayout layout_;
};

}  // namespace

std::shared_ptr<const ClassifierBackend> compile_flat_slab_backend(
    const ArenaDiagram& diagram) {
  return std::make_shared<FlatSlabBackend>(
      engine_detail::flatten_diagram(diagram));
}

}  // namespace dfw
