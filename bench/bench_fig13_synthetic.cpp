// Reproduces Fig. 13: average execution time of the construction, shaping,
// and comparison algorithms versus the number of rules, on pairs of
// *independently generated* synthetic firewalls (Section 8.2.2).
//
// Paper reference points (Java 1.4, Sun Blade 2000, 1 GHz): total under
// 5 seconds at 3,000 rules, construction dominating, all three curves
// growing roughly polynomially but gently. Absolute numbers differ on
// modern hardware; the shape — construction >> shaping > comparison,
// total in seconds at 3,000 rules — is the reproduction target. We report
// medians over the trials alongside means: independent random firewalls
// occasionally draw an overlap-heavy geometry whose FDD is much larger
// (the Theorem 1 tail), and the median tracks the typical case the
// paper's curves show.
//
// Writes BENCH_fig13.json (dfw-bench-obs-v1): one construct, shape and
// compare record per size, params {rules}, wall_ns the median over the
// trials; a construct record's metrics are the arena counters of all its
// trials' builds. --quick runs 200, 1,000 and 3,000 rules at 3 trials,
// the sizes CI gates construction at.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "fdd/shape.hpp"
#include "synth/synth.hpp"

namespace {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::uint64_t median_ns(const std::vector<double>& ms) {
  return static_cast<std::uint64_t>(median(ms) * 1e6);
}

double mean(const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) {
    total += v;
  }
  return total / static_cast<double>(values.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dfw;
  using bench::time_ms;

  const std::optional<bool> quick = bench::parse_quick_flag(argc, argv);
  if (!quick.has_value()) {
    std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
    return 2;
  }
  const std::vector<std::size_t> sizes =
      *quick ? std::vector<std::size_t>{200, 1000, 3000}
             : std::vector<std::size_t>{200, 500, 1000, 1500, 2000, 2500,
                                        3000};
  const int trials = *quick ? 3 : 5;
  {
    // One untimed build first, so the first size does not also time the
    // process's cold start (page faults, allocator growth).
    SynthConfig config;
    config.num_rules = sizes.front();
    Rng rng(1);
    build_reduced_fdd(synth_policy(config, rng));
  }

  std::printf("Fig. 13 — synthetic firewalls, independent pairs (%d trials,"
              " median / mean)\n",
              trials);
  std::printf("%8s %20s %16s %18s %16s\n", "rules", "construct(ms)",
              "shape(ms)", "compare(ms)", "total(ms)");
  bench::ObsReport report("bench_fig13_synthetic");
  const MetricsSnapshot no_metrics = MetricsRegistry().snapshot();
  for (const std::size_t n : sizes) {
    std::vector<double> construct_ms;
    std::vector<double> shape_ms;
    std::vector<double> compare_ms;
    std::vector<double> total_ms;
    MetricsRegistry construct_metrics;
    ConstructOptions options;
    options.run.obs.metrics = &construct_metrics;
    for (int trial = 0; trial < trials; ++trial) {
      SynthConfig config;
      config.num_rules = n;
      Rng rng(1000 * n + static_cast<std::size_t>(trial));
      const Policy pa = synth_policy(config, rng);
      const Policy pb = synth_policy(config, rng);

      Fdd fa = Fdd::constant(pa.schema(), kAccept);
      Fdd fb = Fdd::constant(pb.schema(), kAccept);
      const double c = time_ms([&] {
        fa = build_reduced_fdd(pa, options);
        fb = build_reduced_fdd(pb, options);
      });
      const double s = time_ms([&] { shape_pair(fa, fb); });
      std::vector<Discrepancy> diffs;
      const double m = time_ms([&] { diffs = compare_fdds(fa, fb); });
      construct_ms.push_back(c);
      shape_ms.push_back(s);
      compare_ms.push_back(m);
      total_ms.push_back(c + s + m);
    }
    std::printf("%8zu %10.1f / %7.1f %8.1f / %5.1f %9.1f / %6.1f %8.1f / %7.1f\n",
                n, median(construct_ms), mean(construct_ms),
                median(shape_ms), mean(shape_ms), median(compare_ms),
                mean(compare_ms), median(total_ms), mean(total_ms));
    std::fflush(stdout);
    const bench::ObsParams params = {{"rules", n}};
    report.add("construct", params, median_ns(construct_ms),
               construct_metrics.snapshot());
    report.add("shape", params, median_ns(shape_ms), no_metrics);
    report.add("compare", params, median_ns(compare_ms), no_metrics);
  }
  std::printf(
      "\nexpectation (paper): total < ~5 s at 3,000 rules; construction\n"
      "dominates; shaping and comparison are minor terms.\n");
  return report.write("BENCH_fig13.json") ? 0 : 1;
}
