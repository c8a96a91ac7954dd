// Google-benchmark micro suite over the library's hot paths: interval-set
// algebra, construction, shaping, comparison, generation, evaluation, and
// the BDD baseline's encoding. Complements the figure benches with
// steady-state per-operation costs.
//
// The binary also owns the arena-vs-tree sweep: a custom main() first runs
// the comparison pipeline on both representations (the arena pipeline and
// the paper-literal tree reference) across policy sizes,
// asserts their discrepancy outputs are identical, and
// writes node counts, sharing factors, and wall times to
// BENCH_fdd_arena.json, then hands over to google-benchmark. Pass
// --skip-arena-sweep to go straight to the micro benchmarks.
//
// Pass --trace[=FILE] for the observability smoke session instead of
// benchmarks: an instrumented end-to-end discrepancies + generate run that
// writes a Chrome trace (default trace.json), self-validates it, checks
// the instrumented outputs are byte-identical to uninstrumented runs, and
// writes the per-phase timing records to BENCH_obs.json.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bdd/packet_encode.hpp"
#include "bench_common.hpp"
#include "fdd/arena.hpp"
#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "fdd/node.hpp"
#include "fdd/reduce.hpp"
#include "fdd/shape.hpp"
#include "fdd/simplify.hpp"
#include "engine/classifier.hpp"
#include "gen/generate.hpp"
#include "obs/obs.hpp"
#include "synth/synth.hpp"

namespace {

using namespace dfw;

Policy cached_policy(std::size_t n, std::uint64_t seed) {
  SynthConfig config;
  config.num_rules = n;
  Rng rng(seed);
  return synth_policy(config, rng);
}

// The paper-literal reduced FDD: Fig. 7 construction, then reduce().
Fdd reference_fdd(const Policy& p) {
  Fdd fdd = build_fdd(p);
  reduce(fdd);
  return fdd;
}

// The reference pairwise pipeline: reference_fdd, fragment-merged tree
// shaping, tree comparison.
std::vector<Discrepancy> reference_discrepancies(const Policy& a,
                                                 const Policy& b) {
  Fdd fa = reference_fdd(a);
  Fdd fb = reference_fdd(b);
  fa.validate();
  fb.validate();
  shape_pair(fa, fb);
  return compare_fdds(fa, fb);
}

void BM_IntervalSetSubtract(benchmark::State& state) {
  IntervalSet a;
  IntervalSet b;
  for (Value i = 0; i < 64; ++i) {
    a.add(Interval(i * 100, i * 100 + 60));
    b.add(Interval(i * 100 + 30, i * 100 + 90));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.subtract(b));
  }
}
BENCHMARK(BM_IntervalSetSubtract);

void BM_IntervalSetIntersect(benchmark::State& state) {
  IntervalSet a;
  IntervalSet b;
  for (Value i = 0; i < 64; ++i) {
    a.add(Interval(i * 100, i * 100 + 60));
    b.add(Interval(i * 100 + 30, i * 100 + 90));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersect(b));
  }
}
BENCHMARK(BM_IntervalSetIntersect);

void BM_ConstructReference(benchmark::State& state) {
  const Policy p = cached_policy(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_fdd(p));
  }
}
BENCHMARK(BM_ConstructReference)->Arg(50)->Arg(100)->Arg(200);

void BM_ConstructReduced(benchmark::State& state) {
  const Policy p = cached_policy(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference_fdd(p));
  }
}
BENCHMARK(BM_ConstructReduced)->Arg(50)->Arg(200)->Arg(800);

void BM_ConstructArena(benchmark::State& state) {
  const Policy p = cached_policy(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    FddArena arena(p.schema());
    benchmark::DoNotOptimize(arena.build_reduced(p));
  }
}
BENCHMARK(BM_ConstructArena)->Arg(50)->Arg(200)->Arg(800);

void BM_ShapePair(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Policy pa = cached_policy(n, 7);
  const Policy pb = cached_policy(n, 8);
  const Fdd fa = build_reduced_fdd(pa);
  const Fdd fb = build_reduced_fdd(pb);
  for (auto _ : state) {
    Fdd a = fa.clone();
    Fdd b = fb.clone();
    shape_pair(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ShapePair)->Arg(100)->Arg(400);

void BM_CompareShaped(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Policy pa = cached_policy(n, 7);
  const Policy pb = cached_policy(n, 8);
  Fdd fa = build_reduced_fdd(pa);
  Fdd fb = build_reduced_fdd(pb);
  shape_pair(fa, fb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compare_fdds(fa, fb));
  }
}
BENCHMARK(BM_CompareShaped)->Arg(100)->Arg(400);

void BM_EndToEndDiscrepancies(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Policy pa = cached_policy(n, 7);
  const Policy pb = cached_policy(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference_discrepancies(pa, pb));
  }
}
BENCHMARK(BM_EndToEndDiscrepancies)->Arg(42)->Arg(200)->Arg(661);

void BM_EndToEndDiscrepanciesArena(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Policy pa = cached_policy(n, 7);
  const Policy pb = cached_policy(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(discrepancies(pa, pb));
  }
}
BENCHMARK(BM_EndToEndDiscrepanciesArena)->Arg(42)->Arg(200)->Arg(661);

void BM_EvaluatePolicy(benchmark::State& state) {
  const Policy p = cached_policy(661, 7);
  const Packet pkt = {0x0a000001, 0x0a010005, 40000, 443, 6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.evaluate(pkt));
  }
}
BENCHMARK(BM_EvaluatePolicy);

void BM_ClassifyCompiled(benchmark::State& state) {
  const Policy p = cached_policy(661, 7);
  const Classifier c = Classifier::compile(p);
  const Packet pkt = {0x0a000001, 0x0a010005, 40000, 443, 6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.classify(pkt));
  }
}
BENCHMARK(BM_ClassifyCompiled);

void BM_CompileClassifier(benchmark::State& state) {
  const Policy p = cached_policy(200, 7);
  const ArenaDiagram diagram = build_diagram(p, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(Classifier::compile(diagram));
  }
}
BENCHMARK(BM_CompileClassifier);

void BM_EvaluateFdd(benchmark::State& state) {
  const Policy p = cached_policy(661, 7);
  const Fdd fdd = build_reduced_fdd(p);
  const Packet pkt = {0x0a000001, 0x0a010005, 40000, 443, 6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fdd.evaluate(pkt));
  }
}
BENCHMARK(BM_EvaluateFdd);

void BM_GeneratePolicy(benchmark::State& state) {
  const Policy p = cached_policy(200, 7);
  const Fdd fdd = build_reduced_fdd(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_policy(fdd));
  }
}
BENCHMARK(BM_GeneratePolicy);

void BM_ReduceFdd(benchmark::State& state) {
  const Policy p = cached_policy(200, 7);
  const Fdd fdd = build_fdd(p);
  for (auto _ : state) {
    Fdd copy = fdd.clone();
    reduce(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_ReduceFdd);

void BM_MakeSimple(benchmark::State& state) {
  const Policy p = cached_policy(100, 7);
  const Fdd fdd = build_reduced_fdd(p);
  for (auto _ : state) {
    Fdd copy = fdd.clone();
    make_simple(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_MakeSimple);

void BM_BddEncodePolicy(benchmark::State& state) {
  const Policy p = cached_policy(static_cast<std::size_t>(state.range(0)), 7);
  const BitLayout layout = layout_for(p.schema());
  for (auto _ : state) {
    BddManager mgr(layout.total_bits);
    benchmark::DoNotOptimize(encode_policy(mgr, layout, p));
  }
}
BENCHMARK(BM_BddEncodePolicy)->Arg(10)->Arg(40);

// -- Arena-vs-tree sweep -----------------------------------------------------
//
// The whole pairwise pipeline run on both representations: the production
// arena pipeline (construct -> validate -> compare, one product walk)
// against the paper-literal tree reference (build_fdd, reduce, tree
// shaping and comparison). FddNode allocations are counted through the tree
// factories' global counter; the arena's analog is the number of nodes
// it materialises. sharing_factor = tree allocations / arena unique
// nodes, the size advantage hash-consing buys on the identical workload.
// The reference never reduces while it builds: its unreduced trees pass
// a million nodes per policy at 1000 rules, so the sweep stops there.
bool arena_sweep() {
  std::FILE* json = std::fopen("BENCH_fdd_arena.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_fdd_arena.json for writing\n");
    return false;
  }
  std::printf(
      "arena-vs-tree pipeline sweep (pairwise discrepancies, seeds 7/8)\n");
  std::printf("%7s %10s %11s %9s %12s %12s %9s %6s\n", "rules", "tree(ms)",
              "arena(ms)", "speedup", "tree-nodes", "arena-nodes", "sharing",
              "equal");
  std::fprintf(json, "{\n  \"bench\": \"fdd_arena\",\n  \"sweep\": [");
  bool all_identical = true;
  bool first = true;
  for (const std::size_t n : {250u, 500u, 1000u}) {
    const Policy pa = cached_policy(n, 7);
    const Policy pb = cached_policy(n, 8);
    const std::size_t alloc_before = fdd_node_allocations();
    std::vector<Discrepancy> tree_out;
    const double tree_ms = bench::time_ms(
        [&] { tree_out = reference_discrepancies(pa, pb); });
    const std::size_t tree_nodes = fdd_node_allocations() - alloc_before;

    std::vector<Discrepancy> arena_out;
    const double arena_ms =
        bench::time_ms([&] { arena_out = discrepancies(pa, pb); });

    // Untimed stats pass: same pipeline, arena kept alive for counters.
    FddArena arena(pa.schema());
    std::vector<ArenaNodeId> roots{arena.build_reduced(pa),
                                   arena.build_reduced(pb)};
    for (const ArenaNodeId root : roots) {
      arena.validate(root);
    }
    (void)arena.compare(roots);
    const std::size_t arena_nodes = arena.unique_node_count();
    const double sharing =
        arena_nodes == 0 ? 0.0
                         : static_cast<double>(tree_nodes) /
                               static_cast<double>(arena_nodes);

    const bool identical = arena_out == tree_out;
    all_identical = all_identical && identical;
    std::printf("%7zu %10.1f %11.1f %8.2fx %12zu %12zu %8.1fx %6s\n", n,
                tree_ms, arena_ms, tree_ms / arena_ms, tree_nodes,
                arena_nodes, sharing, identical ? "yes" : "NO");
    std::fflush(stdout);
    std::fprintf(json,
                 "%s\n    {\"rules\": %zu, \"tree_ms\": %.3f, "
                 "\"arena_ms\": %.3f, \"speedup\": %.3f, "
                 "\"tree_nodes_allocated\": %zu, \"arena_unique_nodes\": %zu, "
                 "\"sharing_factor\": %.3f, \"discrepancies\": %zu, "
                 "\"identical\": %s}",
                 first ? "" : ",", n, tree_ms, arena_ms, tree_ms / arena_ms,
                 tree_nodes, arena_nodes, sharing, arena_out.size(),
                 identical ? "true" : "false");
    first = false;
  }
  std::fprintf(json, "\n  ],\n  \"identical\": %s\n}\n",
               all_identical ? "true" : "false");
  std::fclose(json);
  std::printf("wrote BENCH_fdd_arena.json\n\n");
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: arena and tree pipelines disagree on discrepancies\n");
  }
  return all_identical;
}

// -- Observability smoke session ---------------------------------------------
//
// One instrumented end-to-end run of the library's two headline pipelines
// (discrepancies on 200-rule seeds 7/8; generate on the seed-7 diagram),
// exported as a Chrome trace and as dfw-bench-obs-v1 records. The session
// is its own validator: the trace must round-trip through
// validate_chrome_trace with every expected phase present, and the
// instrumented outputs must be byte-identical to uninstrumented runs.
bool obs_session(const char* trace_path) {
  const Policy pa = cached_policy(200, 7);
  const Policy pb = cached_policy(200, 8);

  Tracer tracer;
  MetricsRegistry registry;
  CompareOptions options;
  options.run.obs = ObsOptions{&tracer, &registry};
  GenerateOptions gen_options;
  gen_options.run.obs = options.run.obs;

  std::vector<Discrepancy> diffs;
  const std::uint64_t compare_ns =
      bench::time_ns([&] { diffs = discrepancies(pa, pb, options); });
  const Fdd fdd = build_reduced_fdd(pa);
  const auto gen_start = bench::Clock::now();
  const Policy regenerated = generate_policy(fdd, gen_options);
  const std::uint64_t generate_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          bench::Clock::now() - gen_start)
          .count());

  // Null sink must not change any output.
  if (diffs != discrepancies(pa, pb) ||
      regenerated.rules() != generate_policy(fdd).rules()) {
    std::fprintf(stderr, "FAIL: instrumented outputs differ from plain runs\n");
    return false;
  }

  const std::string trace = tracer.chrome_trace_json();
  std::FILE* f = std::fopen(trace_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", trace_path);
    return false;
  }
  std::fwrite(trace.data(), 1, trace.size(), f);
  std::fclose(f);

  const TraceValidation validation = validate_chrome_trace(trace);
  if (!validation.ok) {
    std::fprintf(stderr, "FAIL: invalid trace: %s\n",
                 validation.error.c_str());
    return false;
  }
  for (const char* required :
       {"construct", "validate", "compare", "generate",
        "build_reduced_fdd"}) {
    if (validation.name_counts.count(required) == 0) {
      std::fprintf(stderr, "FAIL: trace has no \"%s\" span\n", required);
      return false;
    }
  }

  bench::ObsReport report("bench_micro");
  const MetricsSnapshot snapshot = registry.snapshot();
  report.add("discrepancies_traced",
             {{"rules", 200}, {"seed_a", 7}, {"seed_b", 8}}, compare_ns,
             snapshot);
  report.add("generate_traced", {{"rules", 200}, {"seed", 7}}, generate_ns,
             snapshot);
  if (!report.write("BENCH_obs.json")) {
    return false;
  }

  std::printf("obs smoke: %zu discrepancies, %zu rules regenerated\n",
              diffs.size(), regenerated.size());
  std::printf("%-28s %12s %8s\n", "phase", "total(ns)", "spans");
  for (const auto& [name, hist] : snapshot.histograms) {
    if (name.rfind("phase.", 0) == 0) {
      std::printf("%-28s %12llu %8llu\n", name.c_str(),
                  static_cast<unsigned long long>(hist.sum),
                  static_cast<unsigned long long>(hist.count));
    }
  }
  std::printf("wrote %s (%zu events, %zu threads) and BENCH_obs.json\n",
              trace_path, validation.events, validation.threads);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool skip_sweep = false;
  const char* trace_path = nullptr;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--skip-arena-sweep") == 0) {
      skip_sweep = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = "trace.json";
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (trace_path != nullptr) {
    return obs_session(trace_path) ? 0 : 1;
  }
  if (!skip_sweep && !arena_sweep()) {
    return 1;
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
