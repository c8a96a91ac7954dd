// Tests for the observability layer (src/obs/): tracer span recording,
// nesting and thread attribution, Chrome trace JSON export + validator
// round-trip, the unified metrics registry and its legacy-struct
// absorption, the executor quiescence contract, and — the load-bearing
// invariant — that a null sink leaves every pipeline output byte-identical.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/policy_analysis.hpp"
#include "diverse/discrepancy.hpp"
#include "diverse/workflow.hpp"
#include "fdd/arena.hpp"
#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "fleet/fleet.hpp"
#include "fw/format.hpp"
#include "gen/generate.hpp"
#include "gen/redundancy.hpp"
#include "lint/engine.hpp"
#include "obs/names.hpp"
#include "obs/obs.hpp"
#include "rt/executor.hpp"
#include "rt/fault.hpp"
#include "rt/govern.hpp"
#include "synth/synth.hpp"

namespace dfw {
namespace {

Policy synth(std::size_t rules, std::uint64_t seed) {
  SynthConfig config;
  config.num_rules = rules;
  Rng rng(seed);
  return synth_policy(config, rng);
}

// -- Tracer ------------------------------------------------------------------

TEST(TracerTest, RecordsNestedSpansWithDepths) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer");
    {
      ScopedSpan inner(&tracer, "inner", "k", 7);
    }
    {
      ScopedSpan inner(&tracer, "inner");
    }
  }
  EXPECT_EQ(tracer.event_count(), 3u);
  EXPECT_EQ(tracer.thread_count(), 1u);
  EXPECT_EQ(tracer.dropped(), 0u);

  const TraceValidation v = validate_chrome_trace(tracer.chrome_trace_json());
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.events, 3u);
  EXPECT_EQ(v.threads, 1u);
  EXPECT_EQ(v.name_counts.at("outer"), 1u);
  EXPECT_EQ(v.name_counts.at("inner"), 2u);
}

TEST(TracerTest, NullTracerRecordsNothing) {
  ScopedSpan span(nullptr, "ignored");
  ScopedSpan with_args(nullptr, "ignored", "a", 1, "b", 2);
  // Nothing to assert beyond "does not crash": a null tracer is the null
  // sink the pipeline relies on.
  SUCCEED();
}

TEST(TracerTest, AttributesSpansToTheRecordingThread) {
  Tracer tracer;
  constexpr int kSpansPerThread = 50;
  const auto worker = [&] {
    for (int i = 0; i < kSpansPerThread; ++i) {
      ScopedSpan span(&tracer, "worker");
    }
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
  {
    ScopedSpan span(&tracer, "main");
  }
  EXPECT_EQ(tracer.thread_count(), 3u);
  EXPECT_EQ(tracer.event_count(), 2 * kSpansPerThread + 1u);

  const TraceValidation v = validate_chrome_trace(tracer.chrome_trace_json());
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.threads, 3u);
  EXPECT_EQ(v.name_counts.at("worker"),
            static_cast<std::size_t>(2 * kSpansPerThread));
  EXPECT_EQ(v.name_counts.at("main"), 1u);
}

TEST(TracerTest, FullRingDropsOldestAndCounts) {
  Tracer tracer(16);
  for (int i = 0; i < 100; ++i) {
    ScopedSpan span(&tracer, "spin");
  }
  EXPECT_EQ(tracer.event_count(), 16u);
  EXPECT_EQ(tracer.dropped(), 84u);
  const TraceValidation v = validate_chrome_trace(tracer.chrome_trace_json());
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.events, 16u);
}

TEST(TracerTest, SurvivesTracerDestructionAndReuse) {
  // The thread-local fast path caches a log pointer keyed by the tracer's
  // process-unique serial; a new tracer on the same thread must miss the
  // cache instead of writing into the dead tracer's storage.
  {
    Tracer first;
    ScopedSpan span(&first, "first");
  }
  Tracer second;
  {
    ScopedSpan span(&second, "second");
  }
  EXPECT_EQ(second.event_count(), 1u);
  const TraceValidation v = validate_chrome_trace(second.chrome_trace_json());
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.name_counts.count("first"), 0u);
  EXPECT_EQ(v.name_counts.at("second"), 1u);
}

// -- Trace validator ---------------------------------------------------------

TEST(TraceValidatorTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(validate_chrome_trace("").ok);
  EXPECT_FALSE(validate_chrome_trace("not json").ok);
  EXPECT_FALSE(validate_chrome_trace("{}").ok);  // no traceEvents
  EXPECT_FALSE(
      validate_chrome_trace(R"({"traceEvents":[{"ph":"X"}]})").ok);
  // Partial overlap on one thread is not proper nesting.
  const char* overlapping =
      R"({"traceEvents":[
        {"name":"a","ph":"X","pid":1,"tid":1,"ts":0,"dur":10},
        {"name":"b","ph":"X","pid":1,"tid":1,"ts":5,"dur":10}]})";
  EXPECT_FALSE(validate_chrome_trace(overlapping).ok);
}

TEST(TraceValidatorTest, AcceptsMinimalWellFormedTrace) {
  const char* doc =
      R"({"traceEvents":[
        {"name":"a","ph":"X","pid":1,"tid":1,"ts":0,"dur":10},
        {"name":"b","ph":"X","pid":1,"tid":1,"ts":2,"dur":3},
        {"name":"a","ph":"X","pid":1,"tid":2,"ts":1,"dur":4}]})";
  const TraceValidation v = validate_chrome_trace(doc);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.events, 3u);
  EXPECT_EQ(v.threads, 2u);
  EXPECT_EQ(v.name_counts.at("a"), 2u);
}

// -- Metrics registry --------------------------------------------------------

TEST(MetricsTest, CountersAndHistogramsAccumulate) {
  MetricsRegistry registry;
  registry.counter("x").add();
  registry.counter("x").add(4);
  registry.histogram("h").record(0);
  registry.histogram("h").record(1);
  registry.histogram("h").record(1000);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("x"), 5u);
  EXPECT_EQ(snap.histograms.at("h").count, 3u);
  EXPECT_EQ(snap.histograms.at("h").sum, 1001u);
}

TEST(MetricsTest, HistogramBucketsArePowersOfTwo) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  for (std::size_t i = 2; i < Histogram::kBuckets; ++i) {
    const std::uint64_t lo = Histogram::bucket_lower_bound(i);
    EXPECT_EQ(Histogram::bucket_of(lo), i);
    EXPECT_EQ(Histogram::bucket_of(lo - 1), i - 1);
  }
}

TEST(MetricsTest, LogLinearBucketsRefineOctavesWithinErrorBound) {
  // subbits=2: values < 8 get exact buckets, every octave splits into 4
  // sub-buckets, and the bound/index functions stay inverse of each other.
  constexpr std::uint32_t kSub = 2;
  EXPECT_EQ(Histogram::num_buckets(kSub), (std::size_t{65} - kSub) << kSub);
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(Histogram::bucket_of(v, kSub), v);
  }
  for (std::size_t i = 2; i < Histogram::num_buckets(kSub); ++i) {
    const std::uint64_t lo = Histogram::bucket_lower_bound(i, kSub);
    EXPECT_EQ(Histogram::bucket_of(lo, kSub), i) << "bucket " << i;
    EXPECT_EQ(Histogram::bucket_of(lo - 1, kSub), i - 1) << "bucket " << i;
  }
  // The log-linear relative error bound: a bucket's width never exceeds
  // 2^-s of its lower bound once past the exact region.
  for (std::size_t i = 1u << (kSub + 1);
       i < Histogram::num_buckets(kSub) - 1; ++i) {
    const std::uint64_t lo = Histogram::bucket_lower_bound(i, kSub);
    const std::uint64_t hi = Histogram::bucket_next_bound(lo, kSub);
    EXPECT_LE(hi - lo, lo >> kSub) << "bucket " << i;
  }
  // subbits=0 reproduces the legacy power-of-two scheme exactly.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 7ull, 1000ull,
                          (1ull << 40) + 17, ~0ull}) {
    EXPECT_EQ(Histogram::bucket_of(v, 0), Histogram::bucket_of(v));
  }
}

TEST(MetricsTest, SubbitsZeroRegistryIsByteIdenticalToDefault) {
  MetricsRegistry legacy;
  MetricsRegistry explicit_zero(0);
  for (MetricsRegistry* r : {&legacy, &explicit_zero}) {
    r->counter("c").add(3);
    for (const std::uint64_t v : {1ull, 9ull, 512ull, 100000ull}) {
      r->histogram("h").record(v);
    }
  }
  EXPECT_EQ(legacy.snapshot().to_json(), explicit_zero.snapshot().to_json());
}

TEST(MetricsTest, QuantileEdgeCases) {
  // Empty histogram: every quantile is 0.
  HistogramSnapshot empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.quantile(0.999), 0.0);

  // Single occupied bucket: quantiles interpolate inside [lo, hi).
  MetricsRegistry registry;
  for (int i = 0; i < 10; ++i) {
    registry.histogram("one").record(1000);
  }
  const HistogramSnapshot one = registry.snapshot().histograms.at("one");
  const std::uint64_t lo = one.buckets.front().first;
  const std::uint64_t hi = Histogram::bucket_next_bound(lo, one.subbits);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_GE(one.quantile(q), static_cast<double>(lo));
    EXPECT_LE(one.quantile(q), static_cast<double>(hi - 1));
  }
  EXPECT_LE(one.quantile(0.5), one.quantile(0.9));

  // Saturating top bucket: the max value lands in the last bucket, whose
  // upper bound clamps to UINT64_MAX instead of wrapping.
  registry.histogram("top").record(~std::uint64_t{0});
  const HistogramSnapshot top = registry.snapshot().histograms.at("top");
  EXPECT_GE(top.quantile(1.0), static_cast<double>(1ull << 63));
  const std::uint64_t top_lo = top.buckets.back().first;
  EXPECT_EQ(Histogram::bucket_next_bound(top_lo, top.subbits),
            ~std::uint64_t{0});
}

TEST(MetricsTest, HistogramSnapshotMergeAccumulates) {
  MetricsRegistry a(2);
  MetricsRegistry b(2);
  for (const std::uint64_t v : {1ull, 5ull, 100ull, 100ull, 4096ull}) {
    a.histogram("h").record(v);
  }
  for (const std::uint64_t v : {2ull, 100ull, 1ull << 20}) {
    b.histogram("h").record(v);
  }
  HistogramSnapshot merged = a.snapshot().histograms.at("h");
  merged.merge(b.snapshot().histograms.at("h"));
  EXPECT_EQ(merged.count, 8u);
  EXPECT_EQ(merged.sum, 1ull + 5 + 100 + 100 + 4096 + 2 + 100 + (1u << 20));
  std::uint64_t total = 0;
  std::uint64_t prev_lo = 0;
  for (const auto& [lo, n] : merged.buckets) {
    EXPECT_GE(lo, prev_lo);
    prev_lo = lo;
    total += n;
  }
  EXPECT_EQ(total, merged.count);
  // The shared bucket (both recorded 100) summed, not duplicated.
  const std::size_t idx = Histogram::bucket_of(100, 2);
  const std::uint64_t lo100 = Histogram::bucket_lower_bound(idx, 2);
  std::uint64_t in100 = 0;
  for (const auto& [lo, n] : merged.buckets) {
    if (lo == lo100) {
      in100 += n;
    }
  }
  EXPECT_EQ(in100, 3u);

  // Merging into an empty snapshot adopts the other's resolution;
  // mismatched non-empty resolutions are a logic error, not silent junk.
  HistogramSnapshot fresh;
  fresh.merge(merged);
  EXPECT_EQ(fresh.subbits, 2u);
  EXPECT_EQ(fresh, merged);
  MetricsRegistry c(0);
  c.histogram("h").record(7);
  HistogramSnapshot coarse = c.snapshot().histograms.at("h");
  EXPECT_THROW(coarse.merge(merged), std::logic_error);
}

TEST(MetricsTest, QuantilesDeterministicAcrossThreadCounts) {
  // The same multiset of samples must snapshot identically no matter how
  // many threads recorded it — bucket counts are commutative.
  std::vector<std::uint64_t> values;
  for (std::uint64_t i = 0; i < 9000; ++i) {
    values.push_back((i * 2654435761u) % 1000000);
  }
  std::vector<MetricsSnapshot> snaps;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    MetricsRegistry registry(3);
    Histogram& h = registry.histogram("h");
    std::vector<std::thread> workers;
    const std::size_t share = values.size() / threads;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t begin = t * share;
        const std::size_t end =
            t + 1 == threads ? values.size() : begin + share;
        for (std::size_t i = begin; i < end; ++i) {
          h.record(values[i]);
        }
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
    snaps.push_back(registry.snapshot());
  }
  EXPECT_EQ(snaps[0], snaps[1]);
  EXPECT_EQ(snaps[0], snaps[2]);
  EXPECT_EQ(snaps[0].histograms.at("h").quantile(0.99),
            snaps[2].histograms.at("h").quantile(0.99));
}

TEST(MetricsTest, FaultPlanCountersAbsorbAndOverlay) {
  FaultSpec spec;
  spec.site = fault::sites::kSwapCompile;
  spec.fire_on = 2;
  FaultPlan plan(7, {spec});
  for (int i = 0; i < 3; ++i) {
    try {
      plan.hit(fault::sites::kSwapCompile);
    } catch (const Error&) {
    }
  }

  MetricsRegistry registry;
  absorb(registry, plan);
  MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("rt.fault.site.serve.swap.compile.hits"), 3u);
  EXPECT_EQ(snap.counters.at("rt.fault.site.serve.swap.compile.fires"), 1u);
  EXPECT_EQ(snap.counters.at(names::kFaultTotalHits), 3u);
  EXPECT_EQ(snap.counters.at(names::kFaultTotalFires), 1u);

  // overlay() sets point-in-time values — applying it twice is stable,
  // where a second absorb() would double.
  overlay(snap, plan);
  overlay(snap, plan);
  EXPECT_EQ(snap.counters.at("rt.fault.site.serve.swap.compile.hits"), 3u);

  // An unarmed plan leaves both forms byte-identical to no plan at all.
  FaultPlan unarmed(1, {});
  MetricsRegistry clean;
  clean.counter("x").add();
  const std::string before = clean.snapshot().to_json();
  absorb(clean, unarmed);
  MetricsSnapshot overlay_snap = clean.snapshot();
  overlay(overlay_snap, unarmed);
  EXPECT_EQ(clean.snapshot().to_json(), before);
  EXPECT_EQ(overlay_snap.to_json(), before);
}

TEST(MetricsTest, EqualSnapshotsSerializeToEqualJson) {
  MetricsRegistry a;
  MetricsRegistry b;
  for (MetricsRegistry* r : {&a, &b}) {
    r->counter("beta").add(2);
    r->counter("alpha").add(1);
    r->histogram("h").record(42);
  }
  EXPECT_EQ(a.snapshot(), b.snapshot());
  EXPECT_EQ(a.snapshot().to_json(), b.snapshot().to_json());
  // Deterministic ordering: alpha before beta regardless of registration
  // order.
  const std::string json = a.snapshot().to_json();
  EXPECT_LT(json.find("alpha"), json.find("beta"));
}

TEST(MetricsTest, AbsorbUnifiesLegacyStructsUnderDottedNames) {
  MetricsRegistry registry;

  Executor pool(2);
  pool.parallel_for(64, [](std::size_t) {}, nullptr);
  absorb(registry, pool.metrics());

  FddArena arena(synth(20, 3).schema());
  arena.build_reduced(synth(20, 3));
  absorb(registry, arena.stats());

  RunContext::Config config;
  config.budgets.max_nodes = 1u << 20;
  RunContext context(config);
  Policy policy = synth(20, 3);
  ConstructOptions governed;
  governed.run.context = &context;
  (void)build_reduced_fdd(policy, governed);
  absorb(registry, context);

  const MetricsSnapshot snap = registry.snapshot();
  for (const char* name :
       {"rt.executor.tasks_run", "rt.executor.steals", "rt.executor.batches",
        "rt.executor.busy_ns", "fdd.arena.unique_nodes",
        "fdd.arena.unique_labels", "fdd.arena.node_queries",
        "fdd.arena.node_hits", "rt.govern.nodes_charged",
        "rt.govern.label_bytes_charged", "rt.govern.rules_charged",
        "rt.govern.aborted"}) {
    EXPECT_TRUE(snap.counters.count(name) != 0) << "missing " << name;
  }
  EXPECT_GT(snap.counters.at("rt.executor.batches"), 0u);
  EXPECT_GT(snap.counters.at("fdd.arena.unique_nodes"), 0u);
  EXPECT_GT(snap.counters.at("rt.govern.nodes_charged"), 0u);

  // Absorption is additive: a second absorb doubles the counter.
  const std::uint64_t once = snap.counters.at("fdd.arena.unique_nodes");
  absorb(registry, arena.stats());
  EXPECT_EQ(registry.snapshot().counters.at("fdd.arena.unique_nodes"),
            2 * once);
}

TEST(MetricsTest, OverlayMemoIsCounted) {
  // The redundancy oracle's walk (PolicyAnalysis::redundant, behind
  // redundant_rules): suffix roots folded back to front by overlay,
  // memoised on the node-id pair; each rule's test (agree_outside) builds
  // nothing and counts nothing.
  const Policy policy = synth(120, 5);
  PolicyAnalysis analysis(policy);
  EXPECT_EQ(analysis.redundant(), redundant_rules(policy));
  const FddArena& arena = analysis.arena();

  MetricsRegistry registry;
  absorb(registry, arena.stats());
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.counters.at("fdd.arena.overlay_cache_hits"), 0u);
  EXPECT_GT(snap.counters.at("fdd.arena.overlay_cache_misses"), 0u);
  EXPECT_NE(to_string(arena.stats()).find("overlay_hit="), std::string::npos);
}

// -- Executor quiescence (satellite 1) ---------------------------------------

TEST(ExecutorQuiescenceTest, ResetMetricsThrowsWhileBatchesInFlight) {
  Executor pool(2);
  EXPECT_TRUE(pool.quiescent());
  // From inside a task the executor is by definition not quiescent; the
  // reset must refuse rather than tear counters out from under the batch.
  EXPECT_THROW(
      pool.parallel_for(8, [&](std::size_t) { pool.reset_metrics(); },
                        nullptr),
      std::logic_error);
  EXPECT_TRUE(pool.quiescent());
  pool.reset_metrics();  // quiescent again: allowed
  EXPECT_EQ(pool.metrics().batches, 0u);
}

TEST(ExecutorQuiescenceTest, ArenaStatsSnapshotAndResetAreConsistent) {
  const Policy policy = synth(30, 5);
  FddArena arena(policy.schema());
  arena.build_reduced(policy);
  const ArenaStats snap = arena.stats_snapshot();
  EXPECT_EQ(snap.unique_nodes, arena.stats().unique_nodes);
  EXPECT_GT(snap.node_queries, 0u);
  arena.reset_stats();
  EXPECT_EQ(arena.stats().node_queries, 0u);
  // The structural counters restart too; the arena contents are untouched.
  EXPECT_EQ(arena.stats().unique_nodes, 0u);
  EXPECT_EQ(arena.unique_node_count(), snap.unique_nodes);
}

// -- Pipeline instrumentation ------------------------------------------------

TEST(PipelineObsTest, TracedDiscrepanciesEmitsAllPhaseSpans) {
  const Policy pa = synth(60, 7);
  const Policy pb = synth(60, 8);
  Tracer tracer;
  MetricsRegistry registry;
  CompareOptions options;
  options.run.obs = ObsOptions{&tracer, &registry};

  const std::vector<Discrepancy> diffs = discrepancies(pa, pb, options);
  EXPECT_EQ(diffs, discrepancies(pa, pb));

  const TraceValidation v = validate_chrome_trace(tracer.chrome_trace_json());
  ASSERT_TRUE(v.ok) << v.error;
  for (const char* phase :
       {"construct", "validate", "compare", "build_reduced_fdd"}) {
    EXPECT_GE(v.name_counts.count(phase), 1u) << "missing span " << phase;
  }
  EXPECT_EQ(v.name_counts.at("build_reduced_fdd"), 2u);
  EXPECT_EQ(v.name_counts.count("shape"), 0u) << "production never shapes";

  const MetricsSnapshot snap = registry.snapshot();
  for (const char* hist :
       {"phase.construct_ns", "phase.validate_ns", "phase.compare_ns"}) {
    ASSERT_TRUE(snap.histograms.count(hist) != 0) << "missing " << hist;
    EXPECT_EQ(snap.histograms.at(hist).count, 1u);
  }
  // The serial pipeline runs arena-native and absorbs its stats.
  EXPECT_GT(snap.counters.at("fdd.arena.unique_nodes"), 0u);
}

TEST(PipelineObsTest, TracedGenerateEmitsSpanAndRuleCount) {
  const Policy policy = synth(60, 7);
  const Fdd fdd = build_reduced_fdd(policy);
  Tracer tracer;
  MetricsRegistry registry;
  GenerateOptions options;
  options.run.obs = ObsOptions{&tracer, &registry};

  const Policy regenerated = generate_policy(fdd, options);
  EXPECT_EQ(regenerated.rules(), generate_policy(fdd).rules());

  const TraceValidation v = validate_chrome_trace(tracer.chrome_trace_json());
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.name_counts.at("generate"), 1u);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("gen.rules_emitted"), regenerated.size());
  EXPECT_EQ(snap.histograms.at("phase.generate_ns").count, 1u);
}

TEST(PipelineObsTest, PoolExecutorEmitsChunkSpansAndExecutorCounters) {
  const Policy pa = synth(60, 7);
  const Policy pb = synth(60, 8);
  Tracer tracer;
  MetricsRegistry registry;
  Executor pool(2);
  CompareOptions options;
  options.run.executor = &pool;
  options.run.obs = ObsOptions{&tracer, &registry};

  const std::vector<Discrepancy> diffs = discrepancies(pa, pb, options);
  EXPECT_EQ(diffs, discrepancies(pa, pb));

  const TraceValidation v = validate_chrome_trace(tracer.chrome_trace_json());
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_GE(v.name_counts.at("chunk"), 2u);
  EXPECT_GT(registry.snapshot().histograms.at("rt.executor.chunk_ns").count,
            0u);
}

// The acceptance-criterion test: one registry attached to a full governed
// session carries executor, arena, and governance counters side by side
// under the unified names.
TEST(PipelineObsTest, WorkflowSnapshotUnifiesAllSubsystems) {
  Executor pool(2);
  RunContext context;  // defaults are unbounded: governance active, no abort
  Tracer tracer;
  MetricsRegistry registry;
  WorkflowOptions options;
  options.run.executor = &pool;
  options.run.context = &context;
  options.run.obs = ObsOptions{&tracer, &registry};

  DiverseDesign session((DecisionSet()), options);
  const Policy base = synth(60, 7);
  Rng rng(99);
  session.submit("t0", base);
  session.submit("t1", perturb_policy(base, 15.0, rng));
  session.submit("t2", perturb_policy(base, 15.0, rng));
  const std::vector<PairwiseReport> cross = session.cross_compare();
  EXPECT_EQ(cross.size(), 3u);
  absorb(registry, pool.metrics());
  absorb(registry, context);

  const MetricsSnapshot snap = registry.snapshot();
  for (const char* name :
       {"rt.executor.batches", "fdd.arena.unique_nodes",
        "rt.govern.nodes_charged"}) {
    EXPECT_TRUE(snap.counters.count(name) != 0) << "missing " << name;
  }
  const TraceValidation v = validate_chrome_trace(tracer.chrome_trace_json());
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.name_counts.at("workflow.submit"), 3u);
  EXPECT_EQ(v.name_counts.at("workflow.cross_compare"), 1u);
  EXPECT_EQ(v.name_counts.at("pair"), 3u);
}

// A session builds each team's diagram once, at submit: comparison,
// report, both resolution methods and cross comparison all reuse them.
TEST(PipelineObsTest, SessionBuildsEachTeamDiagramOnce) {
  Tracer tracer;
  MetricsRegistry registry;
  WorkflowOptions options;
  options.run.obs = ObsOptions{&tracer, &registry};
  DiverseDesign session((DecisionSet()), options);
  const Policy base = synth(60, 7);
  Rng rng(99);
  session.submit("t0", base);
  session.submit("t1", perturb_policy(base, 15.0, rng));
  session.submit("t2", perturb_policy(base, 15.0, rng));
  const ResolutionPlan plan = plan_by_majority(session.compare());
  EXPECT_FALSE(session.report().empty());
  (void)session.resolve(plan, ResolutionMethod::kCorrectedFdd, 0);
  (void)session.resolve(plan, ResolutionMethod::kPrependAndTrim, 1);
  EXPECT_EQ(session.cross_compare().size(), 3u);

  const TraceValidation v = validate_chrome_trace(tracer.chrome_trace_json());
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.name_counts.at("build_reduced_fdd"), 3u);
  EXPECT_EQ(v.name_counts.at("workflow.compare"), 1u);
  EXPECT_EQ(registry.snapshot().histograms.at("phase.construct_ns").count,
            3u);
}

// A fleet device builds one chain of prefix roots per policy version:
// simplify's rounds build passes + 1, its proof compares their roots, and
// lint reads simplify's analysis. A standalone lint run builds one.
TEST(PipelineObsTest, FleetBuildsOneChainPerPolicyVersion) {
  FleetSynthConfig config;
  config.sites = 4;
  config.base.num_rules = 60;
  std::vector<fleet::FleetSource> sources;
  for (const Policy& site : make_fleet(config)) {
    fleet::FleetSource source;
    source.item.path = "site" + std::to_string(sources.size()) + ".fw";
    source.text = format_policy(site, default_decisions());
    sources.push_back(std::move(source));
  }
  Tracer tracer;
  MetricsRegistry registry;
  fleet::FleetOptions options;
  options.run.obs = ObsOptions{&tracer, &registry};
  const fleet::FleetReport report = fleet::run_fleet(sources, options);
  std::uint64_t chains = 0;
  std::uint64_t proofs = 0;
  for (const fleet::DeviceReport& dev : report.devices) {
    ASSERT_EQ(dev.status, fleet::DeviceStatus::kFindings) << dev.message;
    chains += dev.simplify.passes + 1;
    proofs += dev.simplify.passes > 0;
  }
  const TraceValidation v = validate_chrome_trace(tracer.chrome_trace_json());
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.name_counts.at("prefix_roots"), chains);
  EXPECT_EQ(v.name_counts.at("simplify.prove"), proofs);
  EXPECT_EQ(v.name_counts.count("build_reduced_fdd"), 0u);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.histograms.at("phase.prefix_roots_ns").count, chains);
  EXPECT_EQ(snap.histograms.count("phase.dead_rules_ns"), 0u);

  Tracer lint_tracer;
  lint::LintOptions lint_options;
  lint_options.run.obs.tracer = &lint_tracer;
  const Policy policy = make_fleet(config)[0];
  lint::LintInput input;
  input.policy = &policy;
  input.decisions = &default_decisions();
  ASSERT_TRUE(lint::LintEngine().run(input, lint_options).complete);
  const TraceValidation lv =
      validate_chrome_trace(lint_tracer.chrome_trace_json());
  ASSERT_TRUE(lv.ok) << lv.error;
  EXPECT_EQ(lv.name_counts.at("prefix_roots"), 1u);
  EXPECT_EQ(lv.name_counts.at("build_reduced_fdd"), 1u);
}

// -- Determinism across thread counts ----------------------------------------

// The work-independent counters (arena structure, governance charges) must
// not depend on how many threads the work was spread over, and the reports
// themselves must be identical — parallelism reorders work, never output.
// Cross comparison runs one pipeline per pair task; direct comparison and
// resolution build one arena per policy task.
TEST(ObsDeterminismTest, ArenaCountersIdenticalAcrossThreadCounts) {
  const Policy base = synth(80, 11);
  Rng rng(12);
  const Policy variant_a = perturb_policy(base, 15.0, rng);
  const Policy variant_b = perturb_policy(base, 15.0, rng);

  std::vector<MetricsSnapshot> snaps;
  std::vector<std::vector<PairwiseReport>> reports;
  std::vector<std::vector<Rule>> resolved;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    Executor pool(threads);
    MetricsRegistry registry;
    WorkflowOptions options;
    options.run.executor = &pool;
    options.run.obs.metrics = &registry;
    DiverseDesign session((DecisionSet()), options);
    session.submit("t0", base);
    session.submit("t1", variant_a);
    session.submit("t2", variant_b);
    reports.push_back(session.cross_compare());
    const ResolutionPlan plan = plan_by_majority(session.compare());
    resolved.push_back(session.resolve(plan).rules());
    snaps.push_back(registry.snapshot());
  }
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_EQ(reports[i], reports[0]);
    EXPECT_EQ(resolved[i], resolved[0]);
    // Counter values are exactly reproducible; timing histograms keep
    // reproducible counts with run-dependent sums.
    EXPECT_EQ(snaps[i].counters, snaps[0].counters);
    ASSERT_EQ(snaps[i].histograms.size(), snaps[0].histograms.size());
    auto it = snaps[i].histograms.begin();
    auto ref = snaps[0].histograms.begin();
    for (; it != snaps[i].histograms.end(); ++it, ++ref) {
      EXPECT_EQ(it->first, ref->first);
      EXPECT_EQ(it->second.count, ref->second.count) << it->first;
    }
  }
}

// -- Null sink ----------------------------------------------------------------

TEST(NullSinkTest, ReportsAreByteIdenticalWithAndWithoutSinks) {
  const Policy base = synth(60, 21);
  Rng rng(22);
  const Policy variant = perturb_policy(base, 20.0, rng);

  const auto run = [&](ObsOptions obs) {
    WorkflowOptions options;
    options.run.obs = obs;
    DiverseDesign session((DecisionSet()), options);
    session.submit("alpha", base);
    session.submit("beta", variant);
    return session.report();
  };
  Tracer tracer;
  MetricsRegistry registry;
  const std::string with_sinks = run(ObsOptions{&tracer, &registry});
  const std::string without_sinks = run(ObsOptions{});
  EXPECT_EQ(with_sinks, without_sinks);
  EXPECT_GT(tracer.event_count(), 0u);
}

}  // namespace
}  // namespace dfw
