#include "engine/classifier.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/names.hpp"
#include "obs/obs.hpp"
#include "rt/executor.hpp"
#include "rt/fault.hpp"

namespace dfw {

Classifier Classifier::compile(const ArenaDiagram& diagram,
                               const CompileOptions& options) {
  // Completeness makes every lookup land in a slab.
  diagram.arena->validate(diagram.root);
  Classifier c;
  c.field_count_ = diagram.arena->schema().field_count();
  {
    PhaseSpan span(options.run.obs, compile_phase_name(options.backend));
    fault::hit(options.run.faults, fault::sites::kBackendCompile);
    c.backend_ = compile_backend(options.backend, diagram);
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
  backend_->classify(&p, 1, &decision);
  return decision;
}

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
        backend_->classify(packets.data() + begin, end - begin,
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

std::vector<Decision> Classifier::classify_batch(
    std::span<const Packet> packets) const {
  return classify_batch(packets, RunOptions{});
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

void Classifier::classify_into(std::span<const Packet> packets,
                               std::span<Decision> out) const {
  classify_into(packets, out, RunOptions{});
}

}  // namespace dfw
