#include "engine/classifier.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "engine/slab_layout.hpp"
#include "obs/names.hpp"
#include "obs/obs.hpp"
#include "rt/executor.hpp"
#include "rt/fault.hpp"

namespace dfw {
namespace {

using engine_detail::kDecisionBit;
using engine_detail::Slab;
using engine_detail::SlabLayout;
using engine_detail::SlabNode;

/// Packets per group. A constant: a lane count chosen at run time
/// slowed single lookups, and 4 or 16 lanes measured no better.
constexpr std::size_t kLanes = 8;

/// Walks `lanes` packets together, every live lane one diagram level
/// per pass; a lane that has reached its decision is skipped. The lanes'
/// searches do not depend on each other, so the core overlaps their
/// loads where one packet alone would wait on each of its own. At one
/// lane this is the scalar walk.
template <std::size_t lanes>
void walk(const SlabLayout& layout, const Packet* packets, Decision* out) {
  const SlabNode* nodes = layout.nodes.data();
  const Slab* slabs = layout.slabs.data();
  const Value* values[lanes];
  std::uint32_t current[lanes];
  for (std::size_t l = 0; l < lanes; ++l) {
    values[l] = packets[l].data();
    current[l] = layout.root;
  }
  for (bool live = (layout.root & kDecisionBit) == 0; live;) {
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

/// The decisions for `n` packets: out[i] for packets[i], eight at a time
/// and the remainder one by one. Arity is the caller's check. It has two
/// callers, so GCC keeps it out of line: inlined into run_batch's chunk
/// lambda, its search loop spilled to the stack, and batches of 512 ran
/// about 15% slower (GCC 12.2 -O2, 4-vCPU Xeon VM).
void classify_run(const SlabLayout& layout, const Packet* packets,
                  std::size_t n, Decision* out) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    walk<kLanes>(layout, packets + i, out + i);
  }
  for (; i < n; ++i) {
    walk<1>(layout, packets + i, out + i);
  }
}

}  // namespace

Classifier Classifier::compile(const ArenaDiagram& diagram,
                               const CompileOptions& options) {
  // Completeness makes every lookup land in a slab.
  diagram.arena->validate(diagram.root);
  Classifier c;
  c.field_count_ = diagram.arena->schema().field_count();
  {
    PhaseSpan span(options.run.obs, names::kClassifierCompile);
    fault::hit(options.run.faults, fault::sites::kBackendCompile);
    c.layout_ = std::make_shared<const SlabLayout>(
        engine_detail::flatten_diagram(diagram));
  }
  c.options_ = options;
  return c;
}

Classifier Classifier::compile(const Policy& policy,
                               const CompileOptions& options) {
  return compile(build_diagram(policy, options.run), options);
}

Decision Classifier::classify(const Packet& p) const {
  if (p.size() != field_count_) {
    throw std::invalid_argument("Classifier::classify: packet arity mismatch");
  }
  Decision decision{};
  classify_run(*layout_, &p, 1, &decision);
  return decision;
}

std::size_t Classifier::node_count() const { return layout_->nodes.size(); }

std::size_t Classifier::slab_count() const { return layout_->slabs.size(); }

void Classifier::run_batch(std::span<const Packet> packets,
                           std::span<Decision> out,
                           const RunOptions& run) const {
  // Per-call obs override the compile-time sinks, mirroring the executor
  // fallback; counters are bumped per batch (the registry name lookup
  // takes a lock) and never per packet.
  const ObsOptions& obs =
      run.obs.active() ? run.obs : options_.run.obs;
  const auto start = obs.metrics != nullptr
                         ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  Executor& executor = run.executor != nullptr
                           ? *run.executor
                           : (options_.run.executor != nullptr
                                  ? *options_.run.executor
                                  : Executor::inline_executor());
  for (const Packet& p : packets) {
    if (p.size() != field_count_) {
      throw std::invalid_argument(
          "Classifier::classify_batch: packet arity mismatch");
    }
  }
  executor.parallel_for_chunked(
      packets.size(), std::max<std::size_t>(1, options_.batch_grain),
      [&](std::size_t begin, std::size_t end) {
        classify_run(*layout_, packets.data() + begin, end - begin,
                     out.data() + begin);
      },
      run.context, obs);
  if (obs.metrics != nullptr) {
    obs.metrics->counter(names::kClassifierBatchCount).add(1);
    obs.metrics->counter(names::kClassifierLookupCount).add(packets.size());
    const auto elapsed = std::chrono::steady_clock::now() - start;
    obs.metrics->histogram(names::kClassifierBatchNs)
        .record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }
}

std::vector<Decision> Classifier::classify_batch(
    std::span<const Packet> packets, const RunOptions& run) const {
  std::vector<Decision> out(packets.size());
  run_batch(packets, out, run);
  return out;
}

void Classifier::classify_into(std::span<const Packet> packets,
                               std::span<Decision> out,
                               const RunOptions& run) const {
  if (out.size() != packets.size()) {
    throw std::invalid_argument(
        "Classifier::classify_into: output span size mismatch");
  }
  run_batch(packets, out, run);
}

}  // namespace dfw
