// Chaos harness: deterministic fault injection (rt/fault.hpp) driven
// through the serve plane's self-healing machinery. The gates:
//
//   * a null fault plan is byte-identical to an unfaulted build — the
//     fault plane costs nothing when disarmed;
//   * every injected fault travels a structured unwind path: swaps
//     retry transient faults, fail fast on deterministic ones, and never
//     disturb the served version on failure (last-good);
//   * under seeded fault storms — hundreds of injected faults across
//     several seeds — every classified batch stays byte-identical to a
//     serial replay against the version it pinned, versions are neither
//     torn nor leaked, and the same seed reproduces the same metrics;
//   * snapshots round-trip byte-identically, dfws 1 files (one written
//     by a daemon that ran the removed prefix_trie layout) restore their
//     policy text with the same decisions, and a truncated, corrupt or
//     uncompilable snapshot is refused (exit 2 at the CLI), never served.
//
// Set DFW_CHAOS_ARTIFACTS=<dir> to dump each storm seed's fault
// schedule and metrics snapshot (the CI chaos-smoke job uploads them).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/classifier.hpp"
#include "engine/trace.hpp"
#include "fdd/construct.hpp"
#include "fw/decision.hpp"
#include "fw/schema.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "rt/executor.hpp"
#include "rt/fault.hpp"
#include "rt/govern.hpp"
#include "serve/cli.hpp"
#include "serve/serve.hpp"
#include "serve/snapshot.hpp"
#include "synth/synth.hpp"

namespace dfw {
namespace {

using serve::BatchResult;
using serve::ServeCore;
using serve::ServeHealth;
using serve::ServeOptions;
using serve::ServeStats;

Policy make_policy(std::size_t rules, std::uint64_t seed) {
  SynthConfig config;
  config.num_rules = rules;
  Rng rng(seed);
  return synth_policy(config, rng);
}

std::vector<Decision> serial_replay(const Policy& policy,
                                    std::span<const Packet> packets) {
  std::vector<Decision> out;
  out.reserve(packets.size());
  for (const Packet& p : packets) {
    out.push_back(policy.evaluate(p));
  }
  return out;
}

/// A snapshot body sealed as snapshot::encode seals it: a trailing
/// checksum line holding FNV-1a 64 over every byte of `body`.
std::string reseal(const std::string& body) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : body) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char seal[32];
  std::snprintf(seal, sizeof seal, "checksum %016llx\n",
                static_cast<unsigned long long>(h));
  return body + seal;
}

std::string corpus_snapshot(const std::string& name) {
  return serve::snapshot::read_file(std::string(DFW_CORPUS_DIR) +
                                    "/snapshot/" + name);
}

FaultSpec count_spec(std::string site, std::uint64_t fire_on,
                     std::uint64_t period = 0) {
  FaultSpec spec;
  spec.site = std::move(site);
  spec.fire_on = fire_on;
  spec.period = period;
  return spec;
}

FaultSpec prob_spec(std::string site, double probability) {
  FaultSpec spec;
  spec.site = std::move(site);
  spec.probability = probability;
  return spec;
}

/// Serve options tuned for tests: instant backoff (no sleeps), metrics
/// into `registry`, faults from `plan`.
ServeOptions chaos_options(FaultPlan* plan, MetricsRegistry* registry) {
  ServeOptions options;
  options.run.faults = plan;
  options.run.obs.metrics = registry;
  options.swap_backoff_initial_ms = 0;
  options.swap_backoff_max_ms = 0;
  return options;
}

// -- FaultPlan units ----------------------------------------------------------

TEST(FaultPlan, FiresOnTheNthHitExactlyOnce) {
  FaultPlan plan(7, {count_spec("t.site", /*fire_on=*/3)});
  std::vector<std::uint64_t> fired;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    try {
      plan.hit("t.site");
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kFaultInjected);
      fired.push_back(i);
    }
  }
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{3}));
  const auto stats = plan.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].hits, 10u);
  EXPECT_EQ(stats[0].fires, 1u);
  EXPECT_EQ(plan.total_fires(), 1u);
}

TEST(FaultPlan, PeriodKeepsFiringAfterTheFirst) {
  FaultSpec spec;
  spec.site = "t.periodic";
  spec.fire_on = 2;
  spec.period = 3;
  FaultPlan plan(7, {spec});
  std::vector<std::uint64_t> fired;
  for (std::uint64_t i = 1; i <= 9; ++i) {
    try {
      plan.hit("t.periodic");
    } catch (const Error&) {
      fired.push_back(i);
    }
  }
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{2, 5, 8}));
}

TEST(FaultPlan, ProbabilityScheduleIsAPureFunctionOfTheSeed) {
  const auto fire_indices = [](std::uint64_t seed) {
    FaultSpec spec;
    spec.site = "t.prob";
    spec.probability = 0.5;
    FaultPlan plan(seed, {spec});
    std::vector<std::uint64_t> fired;
    for (std::uint64_t i = 1; i <= 200; ++i) {
      try {
        plan.hit("t.prob");
      } catch (const Error&) {
        fired.push_back(i);
      }
    }
    return fired;
  };
  const auto a = fire_indices(11);
  EXPECT_EQ(a, fire_indices(11)) << "same seed, same schedule";
  EXPECT_NE(a, fire_indices(12)) << "different seed, different schedule";
  EXPECT_GT(a.size(), 50u);
  EXPECT_LT(a.size(), 150u);
}

TEST(FaultPlan, UnarmedSitesAndNullPlansAreInert) {
  fault::hit(nullptr, fault::sites::kArenaAlloc);  // must not crash
  FaultPlan plan(1, {count_spec("t.armed", 1)});
  EXPECT_NO_THROW(plan.hit("t.other"));
  EXPECT_EQ(plan.total_hits(), 0u) << "unarmed sites are not counted";
}

TEST(FaultPlan, CustomErrorCodeMimicsSpecificFailures) {
  FaultSpec spec;
  spec.site = "t.capacity";
  spec.fire_on = 1;
  spec.code = ErrorCode::kCapacityExceeded;
  spec.message = "synthetic cap";
  FaultPlan plan(1, {spec});
  try {
    plan.hit("t.capacity");
    FAIL() << "did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCapacityExceeded);
    EXPECT_NE(std::string(e.what()).find("synthetic cap"),
              std::string::npos);
  }
}

TEST(FaultPlan, ToJsonCarriesScheduleAndCounts) {
  FaultPlan plan(42, {count_spec("t.site", 1)});
  EXPECT_THROW(plan.hit("t.site"), Error);
  const std::string json = plan.to_json();
  EXPECT_NE(json.find("dfw-fault-plan-v1"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"t.site\""), std::string::npos);
  EXPECT_NE(json.find("\"fires\": 1"), std::string::npos);
}

// -- Injection sites in the pipeline -----------------------------------------

TEST(FaultSites, PipelineSitesUnwindAsStructuredErrors) {
  const Policy policy = make_policy(20, 31);
  {
    FaultPlan plan(1, {count_spec(fault::sites::kConstructPhase, 1)});
    ConstructOptions options;
    options.run.faults = &plan;
    EXPECT_THROW(build_reduced_fdd(policy, options), Error);
    EXPECT_EQ(plan.total_fires(), 1u);
  }
  {
    // The arena allocation site sits where the node budget is charged;
    // firing it mid-build must unwind like a budget breach.
    FaultPlan plan(1, {count_spec(fault::sites::kArenaAlloc, 10)});
    ConstructOptions options;
    options.run.faults = &plan;
    EXPECT_THROW(build_reduced_fdd(policy, options), Error);
    EXPECT_GE(plan.stats()[0].hits, 10u);
  }
  {
    FaultPlan plan(1, {count_spec(fault::sites::kBackendCompile, 1)});
    CompileOptions options;
    options.run.faults = &plan;
    EXPECT_THROW(Classifier::compile(policy, options), Error);
    EXPECT_EQ(plan.total_fires(), 1u);
  }
  // The comparison pipeline builds through the same two sites, so a plan
  // in CompareOptions reaches them: the vector entry point throws, the
  // governed one reports a partial outcome.
  const Policy other = make_policy(20, 34);
  for (const char* site :
       {fault::sites::kConstructPhase, fault::sites::kArenaAlloc}) {
    {
      FaultPlan plan(1, {count_spec(site, 1)});
      CompareOptions options;
      options.run.faults = &plan;
      EXPECT_THROW(discrepancies(policy, other, options), Error) << site;
      EXPECT_EQ(plan.total_fires(), 1u) << site;
    }
    {
      FaultPlan plan(1, {count_spec(site, 1)});
      CompareOptions options;
      options.run.faults = &plan;
      const CompareOutcome outcome =
          discrepancies_governed(policy, other, options);
      EXPECT_FALSE(outcome.complete) << site;
      EXPECT_EQ(outcome.status, ErrorCode::kFaultInjected) << site;
      EXPECT_EQ(plan.total_fires(), 1u) << site;
    }
  }
}

TEST(FaultSites, NullPlanIsByteIdenticalToANeverFiringPlan) {
  const Policy policy = make_policy(30, 32);
  Rng rng(33);
  const std::vector<Packet> probes = synth_trace(policy, 400, rng);

  // Unfaulted baseline.
  const ArenaDiagram bare = build_diagram(policy, {});
  const Classifier bare_classifier = Classifier::compile(bare);

  // Armed plan that never reaches its trigger.
  FaultPlan plan(
      9, {count_spec(fault::sites::kArenaAlloc, /*fire_on=*/1u << 30)});
  CompileOptions compile;
  compile.run.faults = &plan;
  const ArenaDiagram guarded = build_diagram(policy, compile.run);
  const Classifier guarded_classifier = Classifier::compile(guarded, compile);

  EXPECT_EQ(bare.arena->stats(), guarded.arena->stats())
      << "the fault plane must not perturb construction";
  EXPECT_EQ(bare.root, guarded.root);
  for (const Packet& p : probes) {
    ASSERT_EQ(bare_classifier.classify(p), guarded_classifier.classify(p));
  }
  EXPECT_GT(plan.total_hits(), 0u) << "the sites were actually traversed";
  EXPECT_EQ(plan.total_fires(), 0u);
}

// -- Self-healing swaps -------------------------------------------------------

TEST(SelfHealingSwap, TransientCompileFaultRetriesAndSucceeds) {
  FaultPlan plan(1, {count_spec(fault::sites::kSwapCompile, 1)});
  MetricsRegistry registry;
  ServeOptions options = chaos_options(&plan, &registry);
  options.swap_max_retries = 2;
  ServeCore core(make_policy(15, 41), options);

  const Policy next = make_policy(15, 42);
  const auto result = core.swap(next);
  ASSERT_TRUE(result.ok()) << result.error().what();
  EXPECT_EQ(result.value(), 2u);

  const ServeStats stats = core.stats();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.swap_retries, 1u);
  EXPECT_EQ(stats.swap_failed, 0u);
  EXPECT_TRUE(core.health().last_swap_ok);
  EXPECT_EQ(registry.counter(names::kServeSwapRetries).value(), 1u);

  Rng rng(43);
  const std::vector<Packet> probes = synth_trace(next, 200, rng);
  const BatchResult batch = core.classify_batch(probes);
  EXPECT_EQ(batch.version, 2u);
  EXPECT_EQ(batch.decisions, serial_replay(next, probes));
}

TEST(SelfHealingSwap, ExhaustedRetriesFailAndKeepLastGood) {
  // period=1: the site fires on every hit, so healing cannot succeed.
  FaultSpec spec;
  spec.site = fault::sites::kSwapCompile;
  spec.fire_on = 1;
  spec.period = 1;
  FaultPlan plan(1, {spec});
  MetricsRegistry registry;
  ServeOptions options = chaos_options(&plan, &registry);
  options.swap_max_retries = 2;
  const Policy boot = make_policy(15, 44);
  ServeCore core(boot, options);

  const auto result = core.swap(make_policy(15, 45));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kFaultInjected);

  const ServeStats stats = core.stats();
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(stats.swap_retries, 2u);
  EXPECT_EQ(stats.swap_failed, 1u);
  EXPECT_EQ(stats.swaps_rejected, 1u);
  EXPECT_FALSE(core.health().last_swap_ok);

  // Last-good: still serving the boot policy at sequence 1.
  EXPECT_EQ(core.current_sequence(), 1u);
  Rng rng(46);
  const std::vector<Packet> probes = synth_trace(boot, 200, rng);
  const BatchResult batch = core.classify_batch(probes);
  EXPECT_EQ(batch.version, 1u);
  EXPECT_EQ(batch.decisions, serial_replay(boot, probes));
}

TEST(SelfHealingSwap, RecoveryFlipsHealthBackToOk) {
  // One single-shot fault, no retries: the first swap fails fast, the
  // second succeeds and clears the health flag.
  FaultPlan plan(1, {count_spec(fault::sites::kSwapCompile, 1)});
  ServeOptions options = chaos_options(&plan, nullptr);
  ServeCore core(make_policy(15, 47), options);

  ASSERT_FALSE(core.swap(make_policy(15, 48)).ok());
  EXPECT_FALSE(core.health().last_swap_ok);
  ASSERT_TRUE(core.swap(make_policy(15, 48)).ok());
  EXPECT_TRUE(core.health().last_swap_ok);
  EXPECT_EQ(core.current_sequence(), 2u);
}

TEST(SelfHealingSwap, PublishFaultReleasesTheCompiledVersionEagerly) {
  FaultPlan plan(1, {count_spec(fault::sites::kSwapPublish, 1)});
  MetricsRegistry registry;
  ServeOptions options = chaos_options(&plan, &registry);
  options.swap_max_retries = 1;
  ServeCore core(make_policy(15, 49), options);

  const auto result = core.swap(make_policy(15, 50));
  ASSERT_TRUE(result.ok()) << result.error().what();

  // The faulted attempt's compiled version was destroyed before the
  // retry, not retired: exactly one version (the boot one) ever entered
  // limbo, and it is reclaimable immediately.
  core.reclaim();
  const ServeStats stats = core.stats();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.swap_retries, 1u);
  EXPECT_EQ(stats.retired, 1u);
  EXPECT_EQ(stats.reclaimed, 1u);
  EXPECT_EQ(stats.limbo, 0u);
  EXPECT_LE(stats.limbo_peak, 1u);
}

TEST(SelfHealingSwap, DeterministicFailuresFailFastUnderRetries) {
  // Retries heal transient faults only. A budget or capacity breach fails
  // the same way on every attempt, so even with retries enabled the swap
  // fails at once and the boot version keeps serving.
  const Policy boot = make_policy(15, 51);
  const Policy next = make_policy(20, 52);
  Rng rng(53);
  const std::vector<Packet> probes = synth_trace(boot, 200, rng);

  const auto expect_fail_fast = [&](ServeOptions options, ErrorCode code) {
    options.swap_max_retries = 3;
    ServeCore core(boot, options);
    const auto result = core.swap(next);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), code);
    const ServeStats stats = core.stats();
    EXPECT_EQ(stats.swap_retries, 0u);
    EXPECT_EQ(stats.swap_failed, 1u);
    EXPECT_EQ(core.current_sequence(), 1u) << "last-good";
    const BatchResult batch = core.classify_batch(probes);
    EXPECT_EQ(batch.version, 1u);
    EXPECT_EQ(batch.decisions, serial_replay(boot, probes));
  };

  {
    SCOPED_TRACE("node budget");
    ServeOptions options = chaos_options(nullptr, nullptr);
    options.swap_budgets.max_nodes = 4;  // the boot compile is ungoverned
    expect_fail_fast(options, ErrorCode::kNodeBudgetExceeded);
  }
  {
    SCOPED_TRACE("capacity");
    // No test-sized policy reaches the slab layout's 31-bit index cap, so
    // a single-shot fault stands in for it: were it retried, the second
    // attempt would succeed.
    FaultSpec spec = count_spec(fault::sites::kSwapCompile, 1);
    spec.code = ErrorCode::kCapacityExceeded;
    FaultPlan plan(1, {spec});
    expect_fail_fast(chaos_options(&plan, nullptr),
                     ErrorCode::kCapacityExceeded);
  }
}

// -- Seeded chaos storms ------------------------------------------------------

/// One serial storm under a seeded fault schedule. Returns everything a
/// determinism comparison needs. Invariants asserted inside: every
/// classified batch replays byte-identically against its pinned
/// version's policy, and the version chain never tears.
struct StormOutcome {
  std::uint64_t fires = 0;
  std::uint64_t hits = 0;
  ServeStats stats;
  std::map<std::uint64_t, std::size_t> version_policy;
  std::string plan_json;
  std::string metrics_json;
};

StormOutcome run_serial_storm(std::uint64_t seed) {
  constexpr std::size_t kPolicies = 6;
  constexpr std::size_t kAttempts = 150;
  constexpr std::size_t kBatchLen = 64;

  std::vector<Policy> ring;
  ring.reserve(kPolicies);
  for (std::size_t i = 0; i < kPolicies; ++i) {
    ring.push_back(make_policy(20, 300 + i));
  }
  Rng rng(seed * 977 + 5);
  const std::vector<Packet> pool = synth_trace(ring[0], 2048, rng);
  const auto batch_window = [&](std::size_t i) {
    const std::size_t start = (i * 131) % (pool.size() - kBatchLen);
    return std::span<const Packet>(pool).subspan(start, kBatchLen);
  };

  // Swap-level probability faults; each site is hit once per attempt,
  // so failure rates stay bounded regardless of policy shape.
  FaultPlan plan(seed, {prob_spec(fault::sites::kSwapCompile, 0.25),
                        prob_spec(fault::sites::kBackendCompile, 0.15),
                        prob_spec(fault::sites::kSwapPublish, 0.15)});

  MetricsRegistry registry;
  ServeOptions options = chaos_options(&plan, &registry);
  options.swap_max_retries = 2;
  options.swap_jitter_seed = seed;
  ServeCore core(ring[0], options);

  StormOutcome outcome;
  outcome.version_policy[1] = 0;

  struct Record {
    std::uint64_t version;
    std::size_t window;
    std::vector<Decision> decisions;
  };
  std::vector<Record> records;

  for (std::size_t i = 0; i < kAttempts; ++i) {
    const std::size_t idx = i % kPolicies;
    const auto result = core.swap(ring[idx]);
    if (result.ok()) {
      outcome.version_policy[result.value()] = idx;
    } else {
      // Self-healing exhausted: only the transient class may surface.
      EXPECT_EQ(result.error().code(), ErrorCode::kFaultInjected);
    }
    if (i % 5 == 0) {
      BatchResult batch = core.classify_batch(batch_window(i));
      EXPECT_EQ(batch.status, ErrorCode::kOk);
      records.push_back({batch.version, i, std::move(batch.decisions)});
    }
  }

  // Replay gate: byte-identical decisions for every recorded batch.
  for (const Record& record : records) {
    const auto it = outcome.version_policy.find(record.version);
    EXPECT_TRUE(it != outcome.version_policy.end())
        << "batch pinned an unpublished version " << record.version;
    if (it == outcome.version_policy.end()) {
      continue;
    }
    EXPECT_EQ(record.decisions,
              serial_replay(ring[it->second], batch_window(record.window)))
        << "seed " << seed << ", version " << record.version;
  }

  // Accounting gates: attempts partition into successes and failures;
  // every success retired exactly one version; quiescent limbo drains.
  core.reclaim();
  outcome.stats = core.stats();
  EXPECT_EQ(outcome.stats.swaps + outcome.stats.swap_failed, kAttempts);
  EXPECT_EQ(outcome.stats.retired, outcome.stats.swaps);
  EXPECT_EQ(outcome.stats.reclaimed, outcome.stats.retired);
  EXPECT_EQ(outcome.stats.limbo, 0u);
  EXPECT_GT(outcome.stats.swaps, kAttempts / 2)
      << "the storm should mostly heal, not mostly fail";

  outcome.fires = plan.total_fires();
  outcome.hits = plan.total_hits();
  outcome.plan_json = plan.to_json();
  outcome.metrics_json = registry.snapshot().to_json();
  return outcome;
}

TEST(ChaosStorm, SeededStormsInjectHundredsOfFaultsWithZeroViolations) {
  const char* artifact_dir = std::getenv("DFW_CHAOS_ARTIFACTS");
  std::uint64_t total_fires = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const StormOutcome outcome = run_serial_storm(seed);
    EXPECT_GE(outcome.fires, 30u) << "seed " << seed << " barely faulted";
    total_fires += outcome.fires;
    if (artifact_dir != nullptr) {
      const std::filesystem::path dir(artifact_dir);
      std::filesystem::create_directories(dir);
      std::ofstream(dir / ("chaos_seed" + std::to_string(seed) +
                           ".fault.json"))
          << outcome.plan_json;
      std::ofstream(dir / ("chaos_seed" + std::to_string(seed) +
                           ".metrics.json"))
          << outcome.metrics_json;
    }
  }
  EXPECT_GE(total_fires, 200u) << "the chaos gate wants >= 200 faults";
}

TEST(ChaosStorm, SameSeedReproducesTheSameMetrics) {
  const StormOutcome a = run_serial_storm(2);
  const StormOutcome b = run_serial_storm(2);
  EXPECT_EQ(a.fires, b.fires);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.stats.swaps, b.stats.swaps);
  EXPECT_EQ(a.stats.swap_retries, b.stats.swap_retries);
  EXPECT_EQ(a.stats.swap_failed, b.stats.swap_failed);
  EXPECT_EQ(a.version_policy, b.version_policy);
  EXPECT_EQ(a.plan_json, b.plan_json);
}

// The concurrent variant (the TSan target): readers classify while the
// writer swaps through a faulted, self-healing pipeline. Writer-side
// hit counts interleave nondeterministically, so the gate here is the
// replay invariant and version accounting, not metric equality.
TEST(ChaosStorm, ConcurrentReadersSurviveAFaultedSwapStorm) {
  constexpr std::size_t kPolicies = 6;
  constexpr std::size_t kReaders = 2;
  constexpr std::size_t kBatchesPerReader = 40;
  constexpr std::size_t kBatchLen = 64;
  constexpr std::uint64_t kMinSwaps = 30;

  std::vector<Policy> ring;
  for (std::size_t i = 0; i < kPolicies; ++i) {
    ring.push_back(make_policy(20, 400 + i));
  }
  Rng rng(71);
  const std::vector<Packet> pool = synth_trace(ring[0], 2048, rng);
  const auto batch_window = [&](std::size_t i) {
    const std::size_t start = (i * 97) % (pool.size() - kBatchLen);
    return std::span<const Packet>(pool).subspan(start, kBatchLen);
  };

  FaultPlan plan(5, {prob_spec(fault::sites::kSwapCompile, 0.2),
                     prob_spec(fault::sites::kSwapPublish, 0.1)});

  ServeOptions options = chaos_options(&plan, nullptr);
  options.swap_max_retries = 3;
  ServeCore core(ring[0], options);

  std::map<std::uint64_t, std::size_t> version_policy;
  version_policy[1] = 0;
  std::mutex version_mu;

  std::atomic<bool> readers_done{false};
  std::thread writer([&] {
    std::uint64_t swaps = 0;
    std::size_t next = 1;
    while (swaps < kMinSwaps || !readers_done.load()) {
      const std::size_t idx = next++ % kPolicies;
      const Result<std::uint64_t> r = core.swap(ring[idx]);
      if (!r.ok()) {
        continue;  // exhausted healing is legal under the storm
      }
      {
        std::lock_guard<std::mutex> lock(version_mu);
        version_policy[r.value()] = idx;
      }
      ++swaps;
    }
  });

  struct Record {
    std::uint64_t version;
    std::size_t batch;
    std::vector<Decision> decisions;
  };
  std::vector<std::vector<Record>> records(kReaders);
  std::vector<std::thread> readers;
  std::atomic<std::size_t> readers_finished{0};
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto shard = core.shard();
      for (std::size_t i = 0; i < kBatchesPerReader; ++i) {
        const std::size_t batch = r * kBatchesPerReader + i;
        BatchResult result = shard.classify(batch_window(batch));
        ASSERT_EQ(result.status, ErrorCode::kOk);
        records[r].push_back(
            {result.version, batch, std::move(result.decisions)});
      }
      if (readers_finished.fetch_add(1) + 1 == kReaders) {
        readers_done.store(true);
      }
    });
  }
  for (std::thread& t : readers) {
    t.join();
  }
  writer.join();

  for (const auto& reader_records : records) {
    for (const Record& record : reader_records) {
      const auto it = version_policy.find(record.version);
      ASSERT_NE(it, version_policy.end())
          << "batch pinned an unpublished (torn?) version "
          << record.version;
      EXPECT_EQ(record.decisions,
                serial_replay(ring[it->second], batch_window(record.batch)));
    }
  }

  core.reclaim();
  const ServeStats stats = core.stats();
  EXPECT_GE(stats.swaps, kMinSwaps);
  EXPECT_EQ(stats.retired, stats.swaps);
  EXPECT_EQ(stats.reclaimed, stats.retired);
  EXPECT_EQ(stats.limbo, 0u);
  EXPECT_GT(plan.total_fires(), 0u) << "the storm must actually fault";
}

// -- Snapshot round-trips -----------------------------------------------------

TEST(Snapshot, RoundTripsByteIdentically) {
  ServeCore core(make_policy(15, 61), ServeOptions{});
  ASSERT_TRUE(core.swap(make_policy(15, 62)).ok());
  ASSERT_TRUE(core.swap(make_policy(15, 63)).ok());
  const Policy served = make_policy(15, 63);

  const std::string text = core.snapshot_text();
  auto data =
      serve::snapshot::decode(five_tuple_schema(), default_decisions(), text);
  EXPECT_EQ(data.sequence, 3u);

  // Determinism: the same served state snapshots to the same bytes.
  EXPECT_EQ(text, core.snapshot_text());

  ServeCore restored(std::move(data), ServeOptions{});
  EXPECT_EQ(restored.current_sequence(), 3u);
  EXPECT_EQ(restored.snapshot_text(), text)
      << "restore must re-encode byte-identically";

  Rng rng(64);
  const std::vector<Packet> probes = synth_trace(served, 300, rng);
  const BatchResult before = core.classify_batch(probes);
  const BatchResult after = restored.classify_batch(probes);
  EXPECT_EQ(before.decisions, after.decisions)
      << "restart must be byte-identical";
  EXPECT_EQ(after.decisions, serial_replay(served, probes));

  // Sequence numbering resumes, not restarts.
  const auto next = restored.swap(make_policy(15, 65));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 4u);

  // A committed dfws 2 snapshot re-encodes to its own bytes, and the
  // dfws 1 snapshot of the same policy and sequence, written by an
  // earlier build, re-encodes to those same bytes.
  const std::string committed = corpus_snapshot("valid_basic.dfws");
  ASSERT_EQ(committed.rfind("dfws 2\n", 0), 0u);
  ServeCore booted(serve::snapshot::decode(five_tuple_schema(),
                                           default_decisions(), committed),
                   ServeOptions{});
  EXPECT_EQ(booted.snapshot_text(), committed);
  const std::string legacy = corpus_snapshot("legacy_v1_basic.dfws");
  ASSERT_EQ(legacy.rfind("dfws 1\n", 0), 0u);
  auto legacy_data =
      serve::snapshot::decode(five_tuple_schema(), default_decisions(), legacy);
  const Policy basic = legacy_data.policy;
  ServeCore upgraded(std::move(legacy_data), ServeOptions{});
  EXPECT_EQ(upgraded.current_sequence(), 2u);
  EXPECT_EQ(upgraded.snapshot_text(), committed);
  const std::vector<Packet> basic_probes = synth_trace(basic, 300, rng);
  EXPECT_EQ(upgraded.classify_batch(basic_probes).decisions,
            serial_replay(basic, basic_probes));
  EXPECT_EQ(booted.classify_batch(basic_probes).decisions,
            serial_replay(basic, basic_probes));
}

// A snapshot written by a daemon that ran the prefix_trie layout, since
// removed: it booted tests/corpus/native/basic.fw and swapped to
// multifield.fw. It restores at its recorded sequence onto slabs and
// serves every batch as a flat_slab daemon at the same version does.
TEST(Snapshot, LegacyPrefixTrieSnapshotRestoresOntoSlabs) {
  const std::string legacy =
      corpus_snapshot("legacy_backend_prefix_trie.dfws");
  ASSERT_NE(legacy.find("backend prefix_trie\n"), std::string::npos);
  auto data =
      serve::snapshot::decode(five_tuple_schema(), default_decisions(), legacy);
  ASSERT_EQ(data.sequence, 2u);
  const Policy served = data.policy;
  ServeCore restored(std::move(data), ServeOptions{});
  EXPECT_EQ(restored.current_sequence(), 2u);

  ServeCore flat(served, ServeOptions{});
  ASSERT_TRUE(flat.swap(served).ok());
  EXPECT_EQ(restored.snapshot_text(), flat.snapshot_text());

  Rng rng(67);
  const std::vector<Packet> trace = synth_trace(served, 600, rng);
  for (std::size_t begin = 0; begin < trace.size(); begin += 150) {
    const std::span<const Packet> batch(trace.data() + begin, 150);
    const BatchResult legacy_batch = restored.classify_batch(batch);
    const BatchResult flat_batch = flat.classify_batch(batch);
    EXPECT_EQ(legacy_batch.version, 2u);
    EXPECT_EQ(flat_batch.version, 2u);
    EXPECT_EQ(legacy_batch.decisions, flat_batch.decisions);
    EXPECT_EQ(legacy_batch.decisions, serial_replay(served, batch));
  }
}

// A dfws 1 file's fdd block is sealed but never read: resealed with
// policy A's text (legacy_v1_basic.dfws) and policy B's diagram (the
// prefix_trie seed's), it restores serving A, and its next snapshot
// carries A.
TEST(Snapshot, PolicyTextDecidesWhatALegacySnapshotServes) {
  const std::string a_file = corpus_snapshot("legacy_v1_basic.dfws");
  const std::string b_file =
      corpus_snapshot("legacy_backend_prefix_trie.dfws");
  const auto fdd_block = [](const std::string& text) {
    const std::size_t begin = text.find("\nfdd ") + 1;
    return text.substr(begin, text.rfind("checksum ") - begin);
  };
  ASSERT_NE(fdd_block(a_file), fdd_block(b_file));
  const std::string spliced =
      reseal(a_file.substr(0, a_file.find("\nfdd ") + 1) + fdd_block(b_file));

  const Schema schema = five_tuple_schema();
  const DecisionSet& decisions = default_decisions();
  const Policy a = serve::snapshot::decode(schema, decisions, a_file).policy;
  const Policy b = serve::snapshot::decode(schema, decisions, b_file).policy;
  Rng rng(68);
  std::vector<Packet> probes = synth_trace(a, 2500, rng);
  const std::vector<Packet> b_probes = synth_trace(b, 2500, rng);
  probes.insert(probes.end(), b_probes.begin(), b_probes.end());
  const std::vector<Decision> served_a = serial_replay(a, probes);
  ASSERT_NE(served_a, serial_replay(b, probes))
      << "the probes must tell A from B";

  ServeCore restored(serve::snapshot::decode(schema, decisions, spliced),
                     ServeOptions{});
  EXPECT_EQ(restored.current_sequence(), 2u);
  EXPECT_EQ(restored.classify_batch(probes).decisions, served_a);
  ServeCore booted(serve::snapshot::decode(schema, decisions, a_file),
                   ServeOptions{});
  EXPECT_EQ(restored.snapshot_text(), booted.snapshot_text());
}

TEST(Snapshot, DecodeRejectsTruncationAndCorruption) {
  ServeCore core(make_policy(15, 66), ServeOptions{});
  const std::string text = core.snapshot_text();
  const Schema schema = five_tuple_schema();
  const DecisionSet& decisions = default_decisions();

  // Truncations at every granularity must throw a structured error.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{5}, text.size() / 2, text.size() - 2}) {
    EXPECT_THROW(
        serve::snapshot::decode(schema, decisions, text.substr(0, keep)),
        Error)
        << "kept " << keep << " bytes";
  }

  // A flipped byte in the body is caught by the checksum.
  std::string flipped = text;
  flipped[text.size() / 2] ^= 0x20;
  try {
    serve::snapshot::decode(schema, decisions, flipped);
    FAIL() << "corrupt snapshot decoded";
  } catch (const Error& e) {
    EXPECT_TRUE(e.code() == ErrorCode::kInvalidInput ||
                e.code() == ErrorCode::kParseError)
        << to_string(e.code());
  }

  // A sealed file whose policy text does not parse is a kParseError in
  // either format, never a bare ParseError.
  const std::string garbled = "frobnicate everything\n";
  const std::string garbled_block =
      "policy " + std::to_string(garbled.size()) + "\n" + garbled + "\n";
  for (const std::string& bad :
       {reseal("dfws 2\nsequence 1\n" + garbled_block),
        reseal("dfws 1\nsequence 1\nbackend flat_slab\n" + garbled_block +
               "fdd 0\n\n")}) {
    try {
      serve::snapshot::decode(schema, decisions, bad);
      ADD_FAILURE() << "unparsable policy decoded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParseError) << e.what();
    }
  }

  EXPECT_THROW(serve::snapshot::decode(schema, decisions, "dfws 9\n"),
               Error);
  EXPECT_THROW(serve::snapshot::decode(schema, decisions, "hello\n"), Error);
}

TEST(Snapshot, SaveAndLoadFaultSitesFire) {
  {
    FaultPlan plan(1, {count_spec(fault::sites::kSnapshotSave, 1)});
    ServeOptions options = chaos_options(&plan, nullptr);
    ServeCore core(make_policy(10, 67), options);
    EXPECT_THROW(core.snapshot_text(), Error);
    EXPECT_EQ(plan.total_fires(), 1u);
    // The failure is transient: the next save succeeds (single-shot
    // trigger) and the served version was never disturbed.
    EXPECT_FALSE(core.snapshot_text().empty());
  }
  {
    ServeCore core(make_policy(10, 68), ServeOptions{});
    const std::string text = core.snapshot_text();
    FaultPlan plan(1, {count_spec(fault::sites::kSnapshotLoad, 1)});
    EXPECT_THROW(serve::snapshot::decode(five_tuple_schema(),
                                         default_decisions(), text, &plan),
                 Error);
  }
}

TEST(Snapshot, AtomicWriteRenamePublishesWholeFilesOnly) {
  const std::filesystem::path dir(::testing::TempDir());
  const std::string path = (dir / "chaos_atomic.dfws").string();
  serve::snapshot::write_atomic(path, "first\n");
  EXPECT_EQ(serve::snapshot::read_file(path), "first\n");
  serve::snapshot::write_atomic(path, "second\n");
  EXPECT_EQ(serve::snapshot::read_file(path), "second\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "the temp file must not linger";
  std::filesystem::remove(path);
}

// -- The serve CLI under snapshots --------------------------------------------

class ServeCliSnapshot : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) / "dfw_chaos_cli";
    std::filesystem::create_directories(dir_);
    policy_a_ = (dir_ / "a.pol").string();
    policy_b_ = (dir_ / "b.pol").string();
    snapshot_ = (dir_ / "state.dfws").string();
    std::ofstream(policy_a_) << "accept sip=10.0.0.0/8\ndiscard\n";
    std::ofstream(policy_b_) << "accept dport=25\ndiscard\n";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  int run(const std::vector<std::string>& args, const std::string& input,
          std::string* out_text = nullptr, std::string* err_text = nullptr) {
    std::istringstream in(input);
    std::ostringstream out;
    std::ostringstream err;
    const int code = serve::run_serve_cli(args, in, out, err);
    if (out_text != nullptr) {
      *out_text = out.str();
    }
    if (err_text != nullptr) {
      *err_text = err.str();
    }
    return code;
  }

  std::filesystem::path dir_;
  std::string policy_a_;
  std::string policy_b_;
  std::string snapshot_;
};

TEST_F(ServeCliSnapshot, BootSwapRestartResumesTheSwappedVersion) {
  std::string out;
  ASSERT_EQ(run({"--snapshot=" + snapshot_, policy_a_},
                "swap " + policy_b_ + "\nquit\n", &out),
            0)
      << out;
  EXPECT_NE(out.find("swap ok version=2"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(snapshot_));
  const std::string saved = serve::snapshot::read_file(snapshot_);

  // Restart: the daemon resumes the swapped version, not the boot file.
  out.clear();
  ASSERT_EQ(run({"--snapshot=" + snapshot_, policy_a_}, "health\nquit\n",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("serving version=2"), std::string::npos);
  EXPECT_NE(out.find("(restored)"), std::string::npos);
  EXPECT_NE(out.find("\"sequence\":2"), std::string::npos);
  // The restart re-saved its restored state at boot: the same bytes.
  EXPECT_EQ(serve::snapshot::read_file(snapshot_), saved);
}

TEST_F(ServeCliSnapshot, CorruptSnapshotIsRefusedWithExitTwo) {
  ASSERT_EQ(run({"--snapshot=" + snapshot_, policy_a_}, "quit\n"), 0);
  const std::string text = serve::snapshot::read_file(snapshot_);

  // Truncated file: exit 2, structured message, no crash.
  std::ofstream(snapshot_, std::ios::binary)
      << text.substr(0, text.size() / 2);
  std::string err;
  EXPECT_EQ(run({"--snapshot=" + snapshot_, policy_a_}, "quit\n", nullptr,
                &err),
            2);
  EXPECT_NE(err.find("snapshot"), std::string::npos) << err;

  // Bit flip: same contract.
  std::string flipped = text;
  flipped[text.size() / 2] ^= 0x01;
  std::ofstream(snapshot_, std::ios::binary) << flipped;
  EXPECT_EQ(run({"--snapshot=" + snapshot_, policy_a_}, "quit\n"), 2);

  // Arbitrary garbage: same contract.
  std::ofstream(snapshot_, std::ios::binary) << "not a snapshot at all\n";
  EXPECT_EQ(run({"--snapshot=" + snapshot_, policy_a_}, "quit\n"), 2);

  // A well-formed snapshot of a backend this build no longer has: the
  // checksum holds, the backend line does not parse.
  std::ofstream(snapshot_, std::ios::binary)
      << corpus_snapshot("bad_backend_bit_parallel.dfws");
  err.clear();
  EXPECT_EQ(run({"--snapshot=" + snapshot_, policy_a_}, "quit\n", nullptr,
                &err),
            2);
  EXPECT_NE(err.find("ParseError"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown backend \"bit_parallel\""), std::string::npos)
      << err;
}

// A sealed snapshot whose policy is not comprehensive decodes, but its
// restore compile throws std::logic_error: the daemon refuses it like a
// corrupt file, in either format (the dfws 1 form carries the policy's
// own partial diagram).
TEST_F(ServeCliSnapshot, IncompletePolicySnapshotIsRefusedWithExitTwo) {
  const std::string policy = "accept sip=10.0.0.0/8\n";
  const std::string diagram =
      "dfdd 2\nschema 5\nnodes 2\nT 0 0\nN 1 0 1\n"
      "E 0 167772160:184549375\nroot 1\n";
  const std::string policy_block =
      "policy " + std::to_string(policy.size()) + "\n" + policy + "\n";
  const std::string v2 = reseal("dfws 2\nsequence 2\n" + policy_block);
  const std::string v1 =
      reseal("dfws 1\nsequence 2\nbackend flat_slab\n" + policy_block +
             "fdd " + std::to_string(diagram.size()) + "\n" + diagram + "\n");
  for (const std::string& text : {v1, v2}) {
    const std::string format = text.substr(0, text.find('\n'));
    const auto data = serve::snapshot::decode(five_tuple_schema(),
                                              default_decisions(), text);
    EXPECT_EQ(data.sequence, 2u) << format;
    std::ofstream(snapshot_, std::ios::binary) << text;
    std::string out;
    std::string err;
    EXPECT_EQ(run({"--snapshot=" + snapshot_, policy_a_}, "quit\n", &out,
                  &err),
              2)
        << format;
    EXPECT_EQ(out, "") << format;
    EXPECT_NE(err.find("dfw_serve: " + snapshot_ + ": "), std::string::npos)
        << format << ": " << err;
    EXPECT_NE(err.find("completeness violated"), std::string::npos)
        << format << ": " << err;
    EXPECT_EQ(serve::snapshot::read_file(snapshot_), text)
        << format << ": a refused snapshot is left as it was";
  }
}

// One compiled layout: the banner names none, and --backend is gone.
TEST_F(ServeCliSnapshot, BannerNamesNoLayoutAndBackendFlagIsUnknown) {
  std::string out;
  ASSERT_EQ(run({policy_a_}, "quit\n", &out), 0) << out;
  EXPECT_EQ(out, "serving version=1\n");
  std::string err;
  EXPECT_EQ(run({"--backend=flat_slab", policy_a_}, "quit\n", nullptr, &err),
            2);
  EXPECT_NE(err.find("unknown option '--backend=flat_slab'"),
            std::string::npos)
      << err;
}

TEST_F(ServeCliSnapshot, HealthIntervalAndHealthCommandReport) {
  std::string out;
  ASSERT_EQ(run({"--health-interval=1", policy_a_},
                "reclaim\nhealth\nquit\n", &out),
            0)
      << out;
  // One health line per command (interval 1) plus the explicit command.
  std::size_t count = 0;
  for (std::size_t pos = 0;
       (pos = out.find("dfw-serve-health-v3", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_GE(count, 3u) << out;
}

}  // namespace
}  // namespace dfw
