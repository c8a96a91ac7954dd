// The prefix-trie backend: LPM-style stride tables for IPv4 fields.
//
// An FDD node over a 32-bit address field partitions the address space
// into the same kind of disjoint ranges a forwarding table's prefixes do
// (net/prefix.*: every slab boundary is a prefix boundary union), so the
// node can execute as a multi-bit-stride trie — the classic LPM layout:
// four levels of 256-entry tables, one per address byte MSB-first, where
// an entry either resolves directly (the whole /8, /16, or /24 block
// falls inside one slab) or points at the next level's table. Tables are
// materialised sparsely: a child table exists only where a slab boundary
// actually cuts through the parent entry's block, so table count is
// proportional to the node's boundary count, not to 2^32.
//
// Real policies concentrate boundaries on few prefixes (the synth model's
// pooled addresses reproduce this), so most lookups resolve in one or two
// indexed loads instead of log2(slabs) compare/branch steps — the win
// over flat-slab grows with the slab count. Non-IPv4 fields (ports,
// protocol, tiny test domains) keep the branchless slab search.

#include "engine/backend.hpp"
#include "engine/slab_layout.hpp"
#include "fdd/arena.hpp"
#include "fw/schema.hpp"

namespace dfw {
namespace {

using engine_detail::kDecisionBit;
using engine_detail::Slab;
using engine_detail::SlabLayout;
using engine_detail::SlabNode;

/// Trie table entries: bit 63 marks a pointer to a child table (index in
/// the low bits); otherwise the low 32 bits are the slab `next` ref.
constexpr std::uint64_t kChildFlag = std::uint64_t{1} << 63;
constexpr std::size_t kStrideBits = 8;
constexpr std::size_t kFanout = std::size_t{1} << kStrideBits;
constexpr std::uint32_t kNoTrie = 0xffff'ffffu;

class PrefixTrieBackend final : public ClassifierBackend {
 public:
  PrefixTrieBackend(SlabLayout layout, const Schema& schema)
      : layout_(std::move(layout)) {
    trie_root_.assign(layout_.nodes.size(), kNoTrie);
    for (std::size_t i = 0; i < layout_.nodes.size(); ++i) {
      const SlabNode& node = layout_.nodes[i];
      const Field& field = schema.field(node.field);
      // The stride walk reads all four address bytes, so it requires the
      // slabs to cover the full 32-bit space; a narrower IPv4 domain
      // falls back to the slab search like any other field.
      if (field.kind == FieldKind::kIpv4 && field.domain.lo() == 0 &&
          field.domain.hi() == 0xffff'ffffu) {
        trie_root_[i] = build_table(node, 0, 24);
      }
    }
  }

  ClassifierBackendKind kind() const override {
    return ClassifierBackendKind::kPrefixTrie;
  }

  void classify(const Packet* packets, std::size_t n,
                Decision* out) const override {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = lookup(packets[i].data());
    }
  }

  std::size_t node_count() const override { return layout_.nodes.size(); }
  std::size_t slab_count() const override {
    return layout_.slabs.size() + tables_.size();
  }

 private:
  /// One packet's walk: stride tables on trie nodes, the slab search on
  /// the rest.
  Decision lookup(const Value* packet) const {
    std::uint32_t current = layout_.root;
    while ((current & kDecisionBit) == 0) {
      const SlabNode& node = layout_.nodes[current];
      const Value v = packet[node.field];
      const std::uint32_t root_table = trie_root_[current];
      if (root_table != kNoTrie) {
        std::uint64_t entry;
        std::size_t table = root_table;
        for (int shift = 24;; shift -= kStrideBits) {
          entry = tables_[table * kFanout + ((v >> shift) & 0xff)];
          if ((entry & kChildFlag) == 0) {
            break;
          }
          table = static_cast<std::size_t>(entry & ~kChildFlag);
        }
        current = static_cast<std::uint32_t>(entry);
      } else {
        const Slab* hit = engine_detail::branchless_lower_bound(
            layout_.slabs.data() + node.slab_begin,
            node.slab_end - node.slab_begin, v);
        current = hit->next;
      }
    }
    return static_cast<Decision>(current & ~kDecisionBit);
  }

  /// Builds the table covering [base, base + 256 << shift) of one node's
  /// address space; returns its index. Children are built depth-first
  /// while the parent's entries are filled.
  std::uint32_t build_table(const SlabNode& node, Value base, int shift) {
    const std::uint32_t index =
        static_cast<std::uint32_t>(tables_.size() / kFanout);
    tables_.resize(tables_.size() + kFanout, 0);
    const Slab* begin = layout_.slabs.data() + node.slab_begin;
    const std::size_t n = node.slab_end - node.slab_begin;
    for (std::size_t b = 0; b < kFanout; ++b) {
      const Value lo = base + (static_cast<Value>(b) << shift);
      const Value hi = lo + ((Value{1} << shift) - 1);
      const Slab* hit = engine_detail::branchless_lower_bound(begin, n, lo);
      std::uint64_t entry;
      if (shift == 0 || hit->upper >= hi) {
        // The whole block lies in one slab: resolve now.
        entry = hit->next;
      } else {
        entry = kChildFlag |
                build_table(node, lo, shift - static_cast<int>(kStrideBits));
      }
      tables_[static_cast<std::size_t>(index) * kFanout + b] = entry;
    }
    return index;
  }

  SlabLayout layout_;
  std::vector<std::uint32_t> trie_root_;  ///< per node; kNoTrie = slabs
  std::vector<std::uint64_t> tables_;     ///< 256-entry blocks
};

}  // namespace

std::shared_ptr<const ClassifierBackend> compile_prefix_trie_backend(
    const ArenaDiagram& diagram) {
  return std::make_shared<PrefixTrieBackend>(
      engine_detail::flatten_diagram(diagram), diagram.arena->schema());
}

}  // namespace dfw
