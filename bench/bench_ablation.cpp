// Ablation benchmarks for the implementation choices DESIGN.md calls out:
//
//   A. construction reduced as it goes (build_reduced_fdd, canonical in
//      the arena) versus the paper-literal build_fdd followed by one
//      reduce;
//   B. fragment-merged shaping (shape_pair) versus the paper-literal
//      simple-FDD shaping (shape_pair_simple);
//   C. the address-pool realism knob of the synthetic generator (bounded
//      address reuse) versus near-independent addresses.
//
// Expected shape: A and B each cut time and peak diagram size by one or
// more orders of magnitude on similar policies while producing the same
// discrepancy semantics. C probes what drives FDD size: it peaks at
// *intermediate* reuse, where partially-overlapping subnets interact —
// heavy reuse collapses into few distinct regions and near-zero reuse
// makes rules disjoint, and both extremes stay small. Real configurations
// live near the favourable ends, which is Section 7.4's point.

#include <cstdio>

#include "bench_common.hpp"
#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "fdd/reduce.hpp"
#include "fdd/shape.hpp"
#include "synth/synth.hpp"

namespace {

using namespace dfw;
using bench::time_ms;

void ablation_reduction() {
  std::printf("A. construction: reduced as it goes vs build-then-reduce\n");
  std::printf("%8s %18s %14s %18s %14s\n", "rules", "reduced(ms)",
              "paths", "build+reduce(ms)", "peak-paths");
  for (const std::size_t n : {100u, 200u, 400u}) {
    SynthConfig config;
    config.num_rules = n;
    Rng rng(n);
    const Policy p = synth_policy(config, rng);

    Fdd reduced = Fdd::constant(p.schema(), kAccept);
    const double t_reduced = time_ms([&] { reduced = build_reduced_fdd(p); });

    Fdd late = Fdd::constant(p.schema(), kAccept);
    std::size_t peak = 0;
    const double t_late = time_ms([&] {
      late = build_fdd(p);
      peak = late.path_count();
      reduce(late);
    });
    std::printf("%8zu %18.1f %14zu %18.1f %14zu\n", n, t_reduced,
                reduced.path_count(), t_late, peak);
    std::fflush(stdout);
  }
  std::printf("\n");
}

void ablation_shaping() {
  std::printf("B. shaping: fragment-merged vs paper-literal simple FDDs\n");
  std::printf("%8s %6s %12s %12s %14s %14s\n", "rules", "x(%)", "merged(ms)",
              "simple(ms)", "merged-paths", "simple-paths");
  for (const std::size_t n : {50u, 100u, 200u}) {
    for (const double x : {10.0, 40.0}) {
      SynthConfig config;
      config.num_rules = n;
      Rng rng(100 * n + static_cast<std::size_t>(x));
      const Policy pa = synth_policy(config, rng);
      const Policy pb = perturb_policy(pa, x, rng);

      Fdd ma = build_reduced_fdd(pa);
      Fdd mb = build_reduced_fdd(pb);
      const double t_merged = time_ms([&] { shape_pair(ma, mb); });

      Fdd sa = build_reduced_fdd(pa);
      Fdd sb = build_reduced_fdd(pb);
      const double t_simple = time_ms([&] { shape_pair_simple(sa, sb); });

      std::printf("%8zu %6.0f %12.1f %12.1f %14zu %14zu\n", n, x, t_merged,
                  t_simple, ma.path_count(), sa.path_count());
      std::fflush(stdout);
    }
  }
  std::printf("\n");
}

void ablation_pool() {
  // Decision mix pinned to 50/50 so the address-reuse variable is
  // isolated: an accept-heavy mix (the realistic default) independently
  // shrinks the number of distinct decision regions and masks the effect.
  std::printf("C. synthetic realism: address-pool size vs FDD size "
              "(50/50 decisions)\n");
  std::printf("%8s %10s %14s %16s\n", "rules", "pool", "fdd-paths",
              "construct(ms)");
  const std::size_t n = 300;
  for (const std::size_t pool : {8u, 17u, 64u, 256u}) {
    SynthConfig config;
    config.num_rules = n;
    config.address_pool_size = pool;
    config.accept_weight = 50;
    Rng rng(pool);
    const Policy p = synth_policy(config, rng);
    Fdd fdd = Fdd::constant(p.schema(), kAccept);
    const double t = time_ms([&] { fdd = build_reduced_fdd(p); });
    std::printf("%8zu %10zu %14zu %16.1f\n", n, pool, fdd.path_count(), t);
    std::fflush(stdout);
  }
  std::printf("\n(pool 17 is the automatic sqrt-of-rules default at 300 "
              "rules)\n");
}

}  // namespace

int main() {
  ablation_reduction();
  ablation_shaping();
  ablation_pool();
  return 0;
}
