// Compiled packet classifier.
//
// FDDs are not only an analysis vehicle — they are an efficient execution
// form for the very firewalls they model (the paper's FDD lineage, ref
// [10], introduced them for specification *and* lookup). This module
// compiles a policy's reduced diagram — the hash-consed DAG the analyses
// read, never an expanded tree — into one flat, cache-friendly layout
// (engine/slab_layout.hpp): one sorted slab run per unique nonterminal,
// searched without branches, with eight packets walking the diagram
// together (docs/classifier.md has the cost model).
//
// The classifier is the deployment-side counterpart of the comparison
// pipeline: resolve the teams' discrepancies, compile the agreed policy
// once, and classify packets at line rate. classify_batch shards a packet
// batch across an Executor's workers; lookups are independent and the
// result vector is indexed by input position, so batch output is
// identical to a serial classify loop. classify_into is the
// allocation-free variant for callers that recycle an output buffer.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fdd/arena.hpp"
#include "fw/policy.hpp"
#include "rt/run_options.hpp"

namespace dfw {

namespace engine_detail {
struct SlabLayout;
}  // namespace engine_detail

/// Compile- and batch-execution options, in the same options-struct idiom
/// as ConstructOptions/CompareOptions.
struct CompileOptions {
  /// Shared execution knobs (rt/run_options.hpp). `run.executor` is the
  /// default executor for classify_batch calls on this classifier —
  /// borrowed, not owned, must outlive the classifier; null means serial
  /// (Executor::inline_executor()). Compiling from a Policy threads
  /// `run.context`/`run.obs`/`run.faults` through build_diagram, so
  /// compilation is governed, observable and faultable like every other
  /// pipeline.
  RunOptions run = {};

  /// Packets per pool task in classify_batch; tune upward for tiny
  /// per-packet cost, downward for very skewed batches.
  std::size_t batch_grain = 512;
};

/// An immutable compiled classifier. Copyable; a shared handle to the
/// immutable compiled layout plus the compile options. Lookups take no
/// locks and read only that layout, so concurrent batches on one
/// classifier are safe.
class Classifier {
 public:
  /// Compiles a comprehensive policy (via build_diagram, governed and
  /// observed through `options.run`).
  static Classifier compile(const Policy& policy,
                            const CompileOptions& options = {});

  /// Compiles an already-built diagram, which must be complete (throws
  /// std::logic_error otherwise). Completeness is checked once per unique
  /// node, and each unique nonterminal compiles to one node. Throws
  /// dfw::Error(ErrorCode::kCapacityExceeded) past the layout's 31-bit
  /// node index space.
  static Classifier compile(const ArenaDiagram& diagram,
                            const CompileOptions& options = {});

  /// The decision for packet p. O(sum over path fields of log(edges)).
  Decision classify(const Packet& p) const;

  /// Decisions for a whole batch, indexed like `packets`, sharded over
  /// `run.executor`, or the compile-time executor when that is null
  /// (serial when neither was given). `run.obs` likewise overrides the
  /// compile-time sinks for the batch metrics.
  std::vector<Decision> classify_batch(std::span<const Packet> packets,
                                       const RunOptions& run = {}) const;

  /// Allocation-free batch: writes decisions into `out`, which must have
  /// exactly packets.size() elements (throws std::invalid_argument
  /// otherwise). Output is byte-identical to classify_batch.
  void classify_into(std::span<const Packet> packets, std::span<Decision> out,
                     const RunOptions& run = {}) const;

  /// Compiled interior nodes, one per unique diagram nonterminal.
  std::size_t node_count() const;
  /// Slab entries across all nodes.
  std::size_t slab_count() const;

 private:
  Classifier() = default;

  void run_batch(std::span<const Packet> packets, std::span<Decision> out,
                 const RunOptions& run) const;

  std::shared_ptr<const engine_detail::SlabLayout> layout_;
  std::size_t field_count_ = 0;
  CompileOptions options_{};
};

}  // namespace dfw
