// Classification shoot-out (library extension, not a paper figure):
// lookup latency and batch throughput of every execution form — linear
// first-match scan, walking the reduced diagram, the bit-level BDD
// baseline, and the compiled flat-slab classifier — swept across policy
// size, batch length, and executor thread count. Compile cost is
// reported separately as the one-time charge it is.
//
// Expected shape: the linear scan degrades with the rule count and the
// BDD baseline pays one node walk per *bit*; the compiled classifier
// stays near-constant in the rule count (depth <= d). It walks a batch
// eight packets at a time, so its batched cells cost less per packet
// than its batch-1 cells; docs/classifier.md has the measured sweep.
//
// Writes BENCH_classifier.json (dfw-bench-obs-v1): "compile.<form>"
// records (fdd, the build_diagram the classifier compiles from; bdd; and
// flat_slab with the phase.classifier.compile_ns histogram), each the
// median of kCompileReps compiles, and "classify.<form>" records with
// integer params {rules, batch, threads} plus the engine.classifier.*
// counters.
// --quick shrinks the sweep for CI smoke runs.

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "bdd/packet_encode.hpp"
#include "bench_common.hpp"
#include "engine/classifier.hpp"
#include "rt/executor.hpp"
#include "synth/synth.hpp"

namespace dfw {
namespace {

/// Compiles per compile.* record. One timing measures what ran before it
/// as much as the compile: the first flat_slab compile after the BDD
/// section took ~40x an identical compile right after it.
constexpr std::size_t kCompileReps = 5;

/// The median of kCompileReps calls of `sample`, each of which times one
/// compile and returns its nanoseconds (so untimed per-repetition set-up
/// stays outside the measurement).
template <typename F>
std::uint64_t median_ns(F&& sample) {
  std::array<std::uint64_t, kCompileReps> ns{};
  for (std::uint64_t& t : ns) {
    t = sample();
  }
  std::nth_element(ns.begin(), ns.begin() + kCompileReps / 2, ns.end());
  return ns[kCompileReps / 2];
}

std::uint64_t classify_pool_batched(const Classifier& c,
                                    const std::vector<Packet>& pool,
                                    std::size_t batch, Executor* executor,
                                    MetricsRegistry* registry,
                                    std::vector<Decision>& out) {
  std::uint64_t sum = 0;
  if (batch == 1) {
    // Single-packet callers use classify, a walk of one packet without
    // the batch path's executor call and metrics; measure what they
    // would pay.
    for (const Packet& p : pool) {
      sum += c.classify(p);
    }
    return sum;
  }
  RunOptions run;
  run.executor = executor;
  run.obs.metrics = registry;
  for (std::size_t base = 0; base < pool.size(); base += batch) {
    const std::size_t len = std::min(batch, pool.size() - base);
    const std::span<const Packet> window(pool.data() + base, len);
    const std::span<Decision> window_out(out.data() + base, len);
    c.classify_into(window, window_out, run);
  }
  for (const Decision d : out) {
    sum += d;
  }
  return sum;
}

}  // namespace
}  // namespace dfw

int main(int argc, char** argv) {
  using namespace dfw;
  using bench::time_ns;

  const std::optional<bool> quick_flag = bench::parse_quick_flag(argc, argv);
  if (!quick_flag.has_value()) {
    std::fprintf(stderr, "usage: bench_classifier [--quick]\n");
    return 2;
  }
  const bool quick = *quick_flag;

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{42, 200}
            : std::vector<std::size_t>{42, 200, 661, 2000};
  const std::size_t kPackets = quick ? 20000 : 200000;
  const std::size_t kBddPackets = quick ? 2000 : 20000;
  const std::size_t kBddMaxRules = 200;
  const std::vector<std::size_t> batches = {1, 64, 4096};
  const std::vector<std::size_t> thread_counts = {0, 2};

  bench::ObsReport report("bench_classifier");

  std::printf("Classifier sweep (%zu random packets per cell)\n",
              kPackets);
  std::printf("%8s %14s %6s %8s %14s %12s\n", "rules", "form", "batch",
              "threads", "ns/packet", "compile(ms)");

  for (const std::size_t n : sizes) {
    SynthConfig config;
    config.num_rules = n;
    Rng rng(n);
    const Policy policy = synth_policy(config, rng);

    std::vector<Packet> pool;
    pool.reserve(kPackets);
    std::uniform_int_distribution<Value> ip(0, UINT32_MAX);
    std::uniform_int_distribution<Value> port(0, 65535);
    std::uniform_int_distribution<Value> proto(0, 255);
    for (std::size_t i = 0; i < kPackets; ++i) {
      pool.push_back({ip(rng), ip(rng), port(rng), port(rng), proto(rng)});
    }

    // The diagram build the classifier compiles from, charged on its own.
    ArenaDiagram diagram;
    {
      MetricsRegistry registry;
      const std::uint64_t ns = median_ns([&] {
        diagram = ArenaDiagram{};  // teardown untimed
        return time_ns([&] { diagram = build_diagram(policy, {}); });
      });
      report.add("compile.fdd", {{"rules", n}}, ns, registry.snapshot());
    }

    // Interpreted contenders: linear first-match scan and the diagram
    // walk. Their decision sums are the cross-check the classifier must
    // hit.
    std::uint64_t sum_expected = 0;
    {
      std::uint64_t sum_linear = 0;
      const std::uint64_t linear_ns = time_ns([&] {
        for (const Packet& p : pool) {
          sum_linear += policy.evaluate(p);
        }
      });
      std::uint64_t sum_fdd = 0;
      const std::uint64_t fdd_ns = time_ns([&] {
        for (const Packet& p : pool) {
          sum_fdd += diagram.arena->evaluate(diagram.root, p);
        }
      });
      if (sum_linear != sum_fdd) {
        std::printf("DISAGREEMENT linear vs fdd at %zu rules!\n", n);
        return 1;
      }
      sum_expected = sum_fdd;
      MetricsRegistry registry;
      report.add("classify.linear",
                 {{"rules", n}, {"batch", 1}, {"threads", 0}}, linear_ns,
                 registry.snapshot());
      report.add("classify.fdd_walk",
                 {{"rules", n}, {"batch", 1}, {"threads", 0}}, fdd_ns,
                 registry.snapshot());
      std::printf("%8zu %14s %6d %8d %14.1f %12s\n", n, "linear", 1, 0,
                  static_cast<double>(linear_ns) / kPackets, "-");
      std::printf("%8zu %14s %6d %8d %14.1f %12s\n", n, "fdd_walk", 1, 0,
                  static_cast<double>(fdd_ns) / kPackets, "-");
    }

    // The BDD baseline walks one node per *bit*; it is the paper's
    // Section 7.5 counterpoint, kept at modest sizes (construction and
    // lookup both degrade hard with rules).
    if (n <= kBddMaxRules) {
      const BitLayout layout = layout_for(policy.schema());
      // A fresh manager per repetition: re-encoding into a warm one would
      // hit its unique table and time a cache lookup, not a build.
      std::optional<BddManager> mgr;
      BddRef accept_set = 0;
      MetricsRegistry registry;
      const std::uint64_t build_ns = median_ns([&] {
        mgr.emplace(layout.total_bits);
        return time_ns(
            [&] { accept_set = encode_policy(*mgr, layout, policy); });
      });
      report.add("compile.bdd", {{"rules", n}}, build_ns,
                 registry.snapshot());
      std::uint64_t sum_bdd = 0;
      const std::uint64_t bdd_ns = time_ns([&] {
        for (std::size_t i = 0; i < kBddPackets; ++i) {
          const bool accepted =
              mgr->evaluate(accept_set, encode_packet(layout, pool[i]));
          sum_bdd += accepted ? kAccept : kDiscard;
        }
      });
      std::uint64_t sum_subset = 0;
      for (std::size_t i = 0; i < kBddPackets; ++i) {
        sum_subset += diagram.arena->evaluate(diagram.root, pool[i]);
      }
      if (sum_bdd != sum_subset) {
        std::printf("DISAGREEMENT bdd vs fdd at %zu rules!\n", n);
        return 1;
      }
      report.add("classify.bdd",
                 {{"rules", n}, {"batch", 1}, {"threads", 0}}, bdd_ns,
                 registry.snapshot());
      std::printf("%8zu %14s %6d %8d %14.1f %12.1f\n", n, "bdd_baseline", 1,
                  0, static_cast<double>(bdd_ns) / kBddPackets,
                  static_cast<double>(build_ns) / 1e6);
    }

    MetricsRegistry compile_registry;
    CompileOptions options;
    options.run.obs.metrics = &compile_registry;
    std::optional<Classifier> compiled;
    const std::uint64_t compile_ns = median_ns([&] {
      compiled.reset();  // the previous copy's teardown stays untimed
      return time_ns(
          [&] { compiled.emplace(Classifier::compile(diagram, options)); });
    });
    const double compile_ms = static_cast<double>(compile_ns) / 1e6;
    report.add("compile.flat_slab", {{"rules", n}}, compile_ns,
               compile_registry.snapshot());

    std::vector<Decision> out(pool.size());
    for (const std::size_t batch : batches) {
      for (const std::size_t threads : thread_counts) {
        if (threads != 0 && batch == 1) {
          continue;  // a 1-packet batch cannot shard
        }
        std::optional<Executor> pool_executor;
        if (threads != 0) {
          pool_executor.emplace(threads);
        }
        MetricsRegistry registry;
        std::uint64_t sum = 0;
        const std::uint64_t ns = time_ns([&] {
          sum = classify_pool_batched(
              *compiled, pool, batch,
              pool_executor ? &*pool_executor : nullptr, &registry, out);
        });
        if (sum != sum_expected) {
          std::printf("DISAGREEMENT flat_slab at %zu rules (batch %zu)!\n",
                      n, batch);
          return 1;
        }
        report.add("classify.flat_slab",
                   {{"rules", n}, {"batch", batch}, {"threads", threads}}, ns,
                   registry.snapshot());
        std::printf("%8zu %14s %6zu %8zu %14.1f %12.1f\n", n, "flat_slab",
                    batch, threads, static_cast<double>(ns) / kPackets,
                    compile_ms);
        std::fflush(stdout);
      }
    }
  }

  if (!report.write("BENCH_classifier.json")) {
    return 1;
  }
  std::printf("wrote BENCH_classifier.json\n");
  return 0;
}
