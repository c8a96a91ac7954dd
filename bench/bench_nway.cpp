// N-team comparison benchmark (Section 7.3): the paper offers two ways to
// compare N > 2 firewalls — cross comparison (all N(N-1)/2 pairs through
// the pairwise pipeline) and direct comparison (shape all N diagrams to a
// common refinement once, then one lockstep walk). This bench measures
// both on N perturbed variants of one policy, the diverse-design setting.
//
// Expected shape: cross comparison pays the construction cost per pair
// and grows quadratically in N; direct comparison constructs each diagram
// once and grows near-linearly, winning clearly by N = 4.
//
// The second half is the thread-scaling sweep: the same K-team session run
// on Executor pools of 1/2/4/8 workers, verified bit-identical to the
// serial result, with per-configuration wall times written to
// BENCH_parallel.json. Cross comparison is K(K-1)/2 independent pipelines,
// so on idle multicore hardware it should approach linear speedup until
// the pair count stops covering the workers.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "diverse/workflow.hpp"
#include "rt/executor.hpp"
#include "synth/synth.hpp"

namespace {

using namespace dfw;
using bench::time_ms;

DiverseDesign make_session(std::size_t teams, std::size_t rules,
                           const WorkflowOptions& options) {
  SynthConfig config;
  config.num_rules = rules;
  Rng rng(teams);
  DiverseDesign session(DecisionSet(), options);
  const Policy base = synth_policy(config, rng);
  session.submit("t0", base);
  for (std::size_t i = 1; i < teams; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    session.submit(std::move(name), perturb_policy(base, 15.0, rng));
  }
  return session;
}

void sweep_threads(std::FILE* json) {
  constexpr std::size_t kTeams = 6;
  constexpr std::size_t kRules = 200;
  std::printf(
      "\nthread scaling — %zu teams, %zu-rule policies, cross + direct\n",
      kTeams, kRules);
  std::printf("%8s %12s %12s %10s %10s\n", "threads", "cross(ms)",
              "direct(ms)", "speedup", "identical");

  const DiverseDesign serial_session =
      make_session(kTeams, kRules, WorkflowOptions{});
  std::vector<PairwiseReport> serial_cross;
  const double serial_cross_ms =
      time_ms([&] { serial_cross = serial_session.cross_compare(); });
  std::vector<Discrepancy> serial_direct;
  const double serial_direct_ms =
      time_ms([&] { serial_direct = serial_session.compare(); });
  std::printf("%8s %12.1f %12.1f %10s %10s\n", "serial", serial_cross_ms,
              serial_direct_ms, "1.00x", "-");

  std::fprintf(json,
               "{\n"
               "  \"bench\": \"nway_parallel\",\n"
               "  \"teams\": %zu,\n"
               "  \"rules\": %zu,\n"
               "  \"hardware_threads\": %zu,\n"
               "  \"serial\": {\"cross_ms\": %.3f, \"direct_ms\": %.3f},\n"
               "  \"sweep\": [",
               kTeams, kRules, Executor::hardware_threads(), serial_cross_ms,
               serial_direct_ms);

  bool first = true;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    Executor pool(threads);
    WorkflowOptions options;
    options.run.executor = &pool;
    const DiverseDesign session = make_session(kTeams, kRules, options);
    std::vector<PairwiseReport> cross;
    const double cross_ms = time_ms([&] { cross = session.cross_compare(); });
    std::vector<Discrepancy> direct;
    const double direct_ms = time_ms([&] { direct = session.compare(); });
    const bool identical = cross == serial_cross && direct == serial_direct;
    std::printf("%8zu %12.1f %12.1f %9.2fx %10s\n", threads, cross_ms,
                direct_ms, serial_cross_ms / cross_ms,
                identical ? "yes" : "NO");
    std::fflush(stdout);
    std::fprintf(json,
                 "%s\n    {\"threads\": %zu, \"cross_ms\": %.3f, "
                 "\"direct_ms\": %.3f, \"speedup_cross\": %.3f, "
                 "\"identical\": %s}",
                 first ? "" : ",", threads, cross_ms, direct_ms,
                 serial_cross_ms / cross_ms, identical ? "true" : "false");
    first = false;
  }
  std::fprintf(json, "\n  ]\n}\n");
}

// One instrumented cross + direct session per pool size, recorded in the
// unified dfw-bench-obs-v1 schema: wall time plus the registry snapshot
// (phase.*_ns, rt.executor.*, fdd.arena.*) for each configuration.
void obs_sweep() {
  constexpr std::size_t kTeams = 6;
  constexpr std::size_t kRules = 200;
  bench::ObsReport report("bench_nway");
  for (const std::size_t threads : {0u, 2u, 8u}) {
    Executor pool(threads == 0 ? 1 : threads);
    MetricsRegistry registry;
    WorkflowOptions options;
    options.run.executor = threads == 0 ? nullptr : &pool;
    options.run.obs.metrics = &registry;
    const DiverseDesign session = make_session(kTeams, kRules, options);
    std::vector<PairwiseReport> cross;
    const std::uint64_t cross_ns =
        bench::time_ns([&] { cross = session.cross_compare(); });
    report.add("cross_compare", {{"teams", kTeams}, {"threads", threads}},
               cross_ns, registry.snapshot());
    MetricsRegistry direct_registry;
    WorkflowOptions direct_options = options;
    direct_options.run.obs.metrics = &direct_registry;
    const DiverseDesign direct_session =
        make_session(kTeams, kRules, direct_options);
    std::vector<Discrepancy> direct;
    const std::uint64_t direct_ns =
        bench::time_ns([&] { direct = direct_session.compare(); });
    report.add("direct_compare", {{"teams", kTeams}, {"threads", threads}},
               direct_ns, direct_registry.snapshot());
  }
  if (report.write("BENCH_obs.json")) {
    std::printf("wrote BENCH_obs.json\n");
  }
}

}  // namespace

int main() {
  constexpr std::size_t kRules = 200;
  std::printf("Section 7.3 — N-team comparison, %zu-rule policies\n",
              kRules);
  std::printf("%6s %12s %14s %14s %12s\n", "teams", "direct(ms)",
              "cross(ms)", "direct-diffs", "cross-pairs");

  for (const std::size_t teams : {2u, 3u, 4u, 6u, 8u}) {
    const DiverseDesign session =
        make_session(teams, kRules, WorkflowOptions{});
    std::vector<Discrepancy> direct;
    const double direct_ms = time_ms([&] { direct = session.compare(); });
    std::vector<PairwiseReport> cross;
    const double cross_ms = time_ms([&] { cross = session.cross_compare(); });
    std::printf("%6zu %12.1f %14.1f %14zu %12zu\n", teams, direct_ms,
                cross_ms, direct.size(), cross.size());
    std::fflush(stdout);
  }

  std::FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_parallel.json for writing\n");
    return 1;
  }
  sweep_threads(json);
  std::fclose(json);
  obs_sweep();
  std::printf(
      "\nwrote BENCH_parallel.json\n"
      "expectation (paper): direct N-way comparison amortises the\n"
      "construction cost; cross comparison repeats it per pair and falls\n"
      "behind as N grows. expectation (runtime): cross comparison is\n"
      "K(K-1)/2 independent pipelines and scales with the pool until the\n"
      "pair count stops covering the workers.\n");
  return 0;
}
