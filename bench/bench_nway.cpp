// N-team comparison benchmark (Section 7.3): the paper offers two ways to
// compare N > 2 firewalls — cross comparison (all N(N-1)/2 pairs) and
// direct comparison (one walk over all N diagrams at once, which the
// production pipeline does as a product walk over canonical diagrams
// instead of shaping them). This bench times both as whole sessions on N
// perturbed variants of one policy, the diverse-design setting: each
// timed run builds a fresh DiverseDesign, submits the N teams and runs
// one comparison, so a cell times submit + compare() or submit +
// cross_compare(), never a comparison the session already keeps.
//
// Expected shape: submit builds each team's diagram once, so both modes
// construct N diagrams. Cross comparison then repeats the import and the
// product walk per pair and its surplus grows quadratically in N; direct
// comparison imports all N once and walks them together, near-linearly.
//
// The thread sweep runs the 6-team sessions on Executor pools of 1/2/4/8
// workers. The pool runs cross comparison's pairs as independent tasks;
// submit and direct comparison stay on the calling thread. Every cell's
// results must be identical to the serial session's, or the bench exits 1.
//
// Writes BENCH_nway.json (dfw-bench-obs-v1): one "direct" and one
// "cross" record per (teams, threads) cell, threads = 0 being serial,
// each the median of kRuns fresh sessions with that session's metrics.
// --quick trims both sweeps but keeps the session geometry, so quick
// records compare against the committed baseline under dfw_bench_diff
// --key-params=teams,threads.

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "diverse/workflow.hpp"
#include "obs/metrics.hpp"
#include "rt/executor.hpp"
#include "synth/synth.hpp"

namespace {

using namespace dfw;

constexpr std::size_t kRules = 200;
constexpr std::size_t kRuns = 5;
constexpr std::size_t kSweepTeams = 6;

std::vector<Policy> make_teams(std::size_t teams) {
  SynthConfig config;
  config.num_rules = kRules;
  Rng rng(teams);
  std::vector<Policy> policies;
  policies.push_back(synth_policy(config, rng));
  for (std::size_t i = 1; i < teams; ++i) {
    policies.push_back(perturb_policy(policies.front(), 15.0, rng));
  }
  return policies;
}

// One mode of a cell: the median of kRuns fresh sessions, each submitting
// every team and then running `compare` on the session.
template <typename Result>
struct Timed {
  Result result;        // the first session's; every run must equal it
  bool stable = true;   // all kRuns sessions returned `result`
  std::uint64_t wall_ns = 0;
  MetricsSnapshot metrics;
};

template <typename Result, typename F>
Timed<Result> time_sessions(const std::vector<Policy>& teams, Executor* pool,
                            F&& compare) {
  Timed<Result> out;
  std::vector<std::pair<std::uint64_t, MetricsSnapshot>> runs;
  for (std::size_t run = 0; run < kRuns; ++run) {
    MetricsRegistry registry;
    WorkflowOptions options;
    options.run.executor = pool;
    options.run.obs.metrics = &registry;
    DiverseDesign session(DecisionSet(), options);
    std::vector<Policy> inputs = teams;
    std::vector<std::string> names(teams.size(), "t");
    for (std::size_t i = 0; i < teams.size(); ++i) {
      names[i] += std::to_string(i);
    }
    Result result;
    const std::uint64_t ns = bench::time_ns([&] {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        session.submit(std::move(names[i]), std::move(inputs[i]));
      }
      result = compare(session);
    });
    if (run == 0) {
      out.result = std::move(result);
    } else {
      out.stable = out.stable && result == out.result;
    }
    runs.emplace_back(ns, registry.snapshot());
  }
  std::sort(runs.begin(), runs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.wall_ns = runs[kRuns / 2].first;
  out.metrics = std::move(runs[kRuns / 2].second);
  return out;
}

double to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

int main(int argc, char** argv) {
  const std::optional<bool> quick = bench::parse_quick_flag(argc, argv);
  if (!quick.has_value()) {
    std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
    return 2;
  }
  const std::vector<std::size_t> team_sweep =
      *quick ? std::vector<std::size_t>{2, 3, 4, kSweepTeams}
             : std::vector<std::size_t>{2, 3, 4, kSweepTeams, 8};
  const std::vector<std::size_t> thread_sweep =
      *quick ? std::vector<std::size_t>{2} : std::vector<std::size_t>{1, 2, 4, 8};
  // (teams, threads) cells; threads = 0 is the serial session.
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  for (const std::size_t teams : team_sweep) {
    cells.emplace_back(teams, 0);
  }
  for (const std::size_t threads : thread_sweep) {
    cells.emplace_back(kSweepTeams, threads);
  }

  std::printf("Section 7.3 — N-team comparison sessions, %zu-rule policies, "
              "median of %zu sessions\n",
              kRules, kRuns);
  std::printf("%6s %8s %12s %12s %13s %12s %10s\n", "teams", "threads",
              "direct(ms)", "cross(ms)", "direct-diffs", "cross-pairs",
              "identical");

  bench::ObsReport report("bench_nway");
  bool all_identical = true;
  // Serial results by team count; serial cells precede the thread sweep.
  std::map<std::size_t, std::vector<Discrepancy>> serial_direct;
  std::map<std::size_t, std::vector<PairwiseReport>> serial_cross;
  for (const auto& [teams, threads] : cells) {
    const std::vector<Policy> policies = make_teams(teams);
    std::optional<Executor> pool;
    if (threads != 0) {
      pool.emplace(threads);
    }
    Executor* executor = pool.has_value() ? &*pool : nullptr;
    const Timed<std::vector<Discrepancy>> direct =
        time_sessions<std::vector<Discrepancy>>(
            policies, executor,
            [](const DiverseDesign& s) { return s.compare(); });
    const Timed<std::vector<PairwiseReport>> cross =
        time_sessions<std::vector<PairwiseReport>>(
            policies, executor,
            [](const DiverseDesign& s) { return s.cross_compare(); });
    if (threads == 0) {
      serial_direct[teams] = direct.result;
      serial_cross[teams] = cross.result;
    }
    const bool identical = direct.stable && cross.stable &&
                           direct.result == serial_direct.at(teams) &&
                           cross.result == serial_cross.at(teams);
    all_identical = all_identical && identical;
    std::printf("%6zu %8zu %12.1f %12.1f %13zu %12zu %10s\n", teams, threads,
                to_ms(direct.wall_ns), to_ms(cross.wall_ns),
                direct.result.size(), cross.result.size(),
                identical ? "yes" : "NO");
    std::fflush(stdout);
    const bench::ObsParams params = {
        {"teams", teams}, {"threads", threads}, {"rules", kRules}};
    report.add("direct", params, direct.wall_ns, direct.metrics);
    report.add("cross", params, cross.wall_ns, cross.metrics);
  }

  if (!report.write("BENCH_nway.json")) {
    return 1;
  }
  std::printf(
      "\nwrote BENCH_nway.json\n"
      "expectation (paper): both modes construct each team's diagram once,\n"
      "at submit; cross comparison repeats the import and comparison per\n"
      "pair and falls behind direct comparison as N grows. expectation\n"
      "(runtime): the pool runs cross comparison's K(K-1)/2 pairs as\n"
      "independent tasks and scales until the pairs stop covering the\n"
      "workers.\n");
  if (!all_identical) {
    std::fprintf(stderr, "bench_nway: a result differs from serial\n");
    return 1;
  }
  return 0;
}
