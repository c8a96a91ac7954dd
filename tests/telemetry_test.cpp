// Tests for the continuous telemetry plane: the Prometheus/JSONL
// exporters and their structural validators (obs/export.hpp), the
// parse-back helpers that recompute quantiles offline, the ServeCore
// periodic reporter (interval ticks, rolling window, fault-counter
// overlay, quiesced shutdown), and the dfw_bench_diff regression gate's
// exit-code contract — ending in the swap-storm acceptance run: exports
// produced under concurrent swaps must validate, and the exported p99
// must match offline recomputation from the same record.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_diff.hpp"
#include "engine/trace.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/names.hpp"
#include "rt/fault.hpp"
#include "serve/serve.hpp"
#include "synth/synth.hpp"

namespace dfw {
namespace {

Policy synth(std::size_t rules, std::uint64_t seed) {
  SynthConfig config;
  config.num_rules = rules;
  Rng rng(seed);
  return synth_policy(config, rng);
}

std::vector<Packet> trace_for(const Policy& policy, std::size_t n,
                              std::uint64_t seed) {
  Rng rng(seed);
  return synth_trace(policy, n, rng);
}

// -- Prometheus exporter -----------------------------------------------------

TEST(MetricsExporterTest, PrometheusGoldenOutput) {
  MetricsRegistry registry;
  registry.counter("serve.swap.count").add(2);
  registry.histogram("h").record(0);
  registry.histogram("h").record(1);
  registry.histogram("h").record(1000);

  const MetricsExporter exporter;
  // The legacy zero and v==1 buckets share le=0 and coalesce; 1000 lands
  // in [512, 1024).
  EXPECT_EQ(exporter.prometheus(registry.snapshot()),
            "# TYPE dfw_serve_swap_count counter\n"
            "dfw_serve_swap_count 2\n"
            "# TYPE dfw_h histogram\n"
            "dfw_h_bucket{le=\"0\"} 2\n"
            "dfw_h_bucket{le=\"1023\"} 3\n"
            "dfw_h_bucket{le=\"+Inf\"} 3\n"
            "dfw_h_sum 1001\n"
            "dfw_h_count 3\n");
}

TEST(MetricsExporterTest, PrometheusOutputValidatesAtEveryResolution) {
  for (const std::uint32_t subbits : {0u, 2u, 6u}) {
    MetricsRegistry registry(subbits);
    registry.counter("a.count").add(7);
    registry.counter("b.count");
    for (std::uint64_t v = 0; v < 2000; v += 7) {
      registry.histogram("lat.ns").record(v * v);
    }
    registry.histogram("empty.ns");
    const MetricsExporter exporter;
    const std::string text = exporter.prometheus(registry.snapshot());
    const PromValidation v = validate_prometheus(text);
    EXPECT_TRUE(v.ok) << "subbits " << subbits << ": " << v.error;
    EXPECT_EQ(v.family_types.at("dfw_lat_ns"), "histogram");
    EXPECT_EQ(v.family_types.at("dfw_a_count"), "counter");
  }
}

TEST(MetricsExporterTest, PromValidatorRejectsStructuralBreaks) {
  // A sample before its TYPE declaration.
  EXPECT_FALSE(validate_prometheus("dfw_x 1\n# TYPE dfw_x counter\n").ok);
  // Decreasing cumulative buckets.
  EXPECT_FALSE(validate_prometheus("# TYPE h histogram\n"
                                   "h_bucket{le=\"1\"} 5\n"
                                   "h_bucket{le=\"2\"} 3\n"
                                   "h_bucket{le=\"+Inf\"} 5\n"
                                   "h_sum 9\nh_count 5\n")
                   .ok);
  // +Inf bucket disagrees with _count.
  EXPECT_FALSE(validate_prometheus("# TYPE h histogram\n"
                                   "h_bucket{le=\"+Inf\"} 4\n"
                                   "h_sum 9\nh_count 5\n")
                   .ok);
  // Missing +Inf entirely.
  EXPECT_FALSE(validate_prometheus("# TYPE h histogram\n"
                                   "h_bucket{le=\"1\"} 1\n"
                                   "h_sum 1\nh_count 1\n")
                   .ok);
  // Duplicate sample.
  EXPECT_FALSE(
      validate_prometheus("# TYPE c counter\nc 1\nc 2\n").ok);
  // Illegal family name.
  EXPECT_FALSE(validate_prometheus("# TYPE 9bad counter\n9bad 1\n").ok);
  // A valid document still validates.
  EXPECT_TRUE(validate_prometheus("# TYPE c counter\nc 1\n").ok);
}

// -- JSONL exporter ----------------------------------------------------------

TEST(MetricsExporterTest, JsonlSeriesValidatesAndSeqMustIncrease) {
  MetricsRegistry registry(3);
  registry.counter("serve.batch.count").add(4);
  for (const std::uint64_t v : {10ull, 200ull, 3000ull, 40000ull}) {
    registry.histogram(names::kServeBatchNs).record(v);
  }
  const MetricsExporter exporter;
  const MetricsSnapshot snap = registry.snapshot();

  std::string series = exporter.jsonl(snap, 1, 10);
  series += exporter.jsonl(snap, 2, 20);
  series += exporter.jsonl(snap, 3, 30);
  const JsonlValidation ok = validate_metrics_jsonl(series);
  EXPECT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.records, 3u);

  // Repeated seq breaks the series.
  std::string stuck = exporter.jsonl(snap, 5, 10);
  stuck += exporter.jsonl(snap, 5, 20);
  EXPECT_FALSE(validate_metrics_jsonl(stuck).ok);

  // Wrong schema marker, disordered quantiles, empty file.
  EXPECT_FALSE(validate_metrics_jsonl("{\"schema\": \"nope\"}\n").ok);
  EXPECT_FALSE(
      validate_metrics_jsonl(
          "{\"schema\": \"dfw-metrics-v1\", \"seq\": 1, \"uptime_ms\": 0, "
          "\"counters\": {}, \"histograms\": {\"h\": {\"count\": 1, "
          "\"sum\": 5, \"buckets\": [[4, 1]], \"p50\": 9, \"p90\": 5, "
          "\"p99\": 5, \"p999\": 5}}}\n")
          .ok);
  EXPECT_FALSE(validate_metrics_jsonl("").ok);
}

TEST(MetricsExporterTest, SnapshotsRoundTripThroughJson) {
  // The registry's own to_json shape (no subbits field -> 0).
  MetricsRegistry legacy;
  legacy.counter("c").add(11);
  legacy.histogram("h").record(99);
  const MetricsSnapshot snap = legacy.snapshot();
  std::string error;
  auto parsed = json::parse(snap.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto back = metrics_from_json(*parsed, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back, snap);

  // The richer JSONL shape keeps the resolution and the quantiles are
  // recomputable from the parsed buckets.
  MetricsRegistry fine(4);
  for (std::uint64_t v = 1; v < 100000; v *= 3) {
    fine.histogram("h").record(v);
  }
  const MetricsSnapshot fine_snap = fine.snapshot();
  const MetricsExporter exporter;
  const std::string line = exporter.jsonl(fine_snap, 1, 0);
  auto doc = json::parse(line.substr(0, line.size() - 1), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto fine_back = metrics_from_json(*doc, &error);
  ASSERT_TRUE(fine_back.has_value()) << error;
  EXPECT_EQ(*fine_back, fine_snap);
  EXPECT_EQ(fine_back->histograms.at("h").subbits, 4u);
  const json::Value* h = doc->find("histograms")->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("p99")->number,
                   fine_back->histograms.at("h").quantile(0.99));
}

TEST(MetricsExporterTest, ParseBackRejectsMalformedHistograms) {
  std::string error;
  const auto bad = [&](const char* text) {
    auto doc = json::parse(text, &error);
    EXPECT_TRUE(doc.has_value()) << error;
    return !histogram_from_json(*doc, &error).has_value();
  };
  EXPECT_TRUE(bad("{\"sum\": 1, \"buckets\": []}"));  // no count
  EXPECT_TRUE(bad("{\"count\": 1, \"sum\": 1}"));     // no buckets
  // Bucket counts must sum to count.
  EXPECT_TRUE(bad("{\"count\": 3, \"sum\": 1, \"buckets\": [[0, 1]]}"));
  // Bounds must be non-decreasing.
  EXPECT_TRUE(bad(
      "{\"count\": 2, \"sum\": 9, \"buckets\": [[8, 1], [4, 1]]}"));
  // Out-of-range resolution.
  EXPECT_TRUE(bad("{\"count\": 0, \"sum\": 0, \"subbits\": 9, "
                  "\"buckets\": []}"));
}

// -- ServeCore periodic reporter ---------------------------------------------

TEST(TelemetryReporterTest, TicksFillRollingWindowAndQuiesce) {
  MetricsRegistry registry;
  std::atomic<std::uint64_t> callbacks{0};
  serve::ServeOptions options;
  options.run.obs.metrics = &registry;
  options.telemetry_interval_ms = 2;
  options.telemetry_window = 4;
  options.on_telemetry = [&](const serve::TelemetryRecord&) {
    callbacks.fetch_add(1);
  };
  {
    serve::ServeCore core(synth(20, 1), options);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (core.telemetry_ticks() < 6 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(core.telemetry_ticks(), 6u) << "reporter never ticked";

    const auto window = core.telemetry_window();
    ASSERT_FALSE(window.empty());
    EXPECT_LE(window.size(), 4u);  // rolling, not unbounded
    for (std::size_t i = 1; i < window.size(); ++i) {
      EXPECT_LT(window[i - 1].tick, window[i].tick);  // oldest first
      EXPECT_LE(window[i - 1].uptime_ms, window[i].uptime_ms);
    }
    // Each record snapshots after its tick-counter bump.
    const auto& last = window.back();
    EXPECT_GE(last.metrics.counters.at(names::kServeTelemetryTicks),
              last.tick);
    EXPECT_EQ(last.health.sequence, core.current_sequence());
    EXPECT_GE(callbacks.load(), window.size());
  }
  // Destruction joined the reporter; no further callbacks can arrive.
  const std::uint64_t after = callbacks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(callbacks.load(), after);
}

TEST(TelemetryReporterTest, IntervalZeroStartsNoReporter) {
  MetricsRegistry registry;
  serve::ServeOptions options;
  options.run.obs.metrics = &registry;
  serve::ServeCore core(synth(20, 1), options);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(core.telemetry_ticks(), 0u);
  EXPECT_TRUE(core.telemetry_window().empty());
  // On-demand telemetry still works and is byte-identical to the raw
  // registry snapshot when no fault plan is installed.
  EXPECT_EQ(core.telemetry_now().metrics.to_json(),
            registry.snapshot().to_json());
}

TEST(TelemetryReporterTest, TelemetryOverlaysFaultSiteCounters) {
  // An armed-but-never-firing site counts hits without disturbing swaps.
  FaultSpec spec;
  spec.site = fault::sites::kSwapCompile;
  FaultPlan plan(3, {spec});
  MetricsRegistry registry;
  serve::ServeOptions options;
  options.run.obs.metrics = &registry;
  options.run.faults = &plan;
  serve::ServeCore core(synth(20, 1), options);
  ASSERT_TRUE(core.swap(synth(25, 2)).ok());

  const MetricsSnapshot snap = core.telemetry_now().metrics;
  EXPECT_EQ(snap.counters.at("rt.fault.site.serve.swap.compile.hits"), 1u);
  EXPECT_EQ(snap.counters.at(names::kFaultTotalFires), 0u);
  // The overlay is point-in-time: the raw registry never saw the keys.
  EXPECT_EQ(
      registry.snapshot().counters.count("rt.fault.site.serve.swap.compile.hits"),
      0u);
}

// -- Swap-storm acceptance ---------------------------------------------------

TEST(TelemetryReporterTest, SwapStormExportsValidateAndP99Recomputes) {
  MetricsRegistry registry(4);
  std::string series;
  std::mutex series_mu;
  const MetricsExporter exporter;
  std::uint64_t seq = 0;
  serve::ServeOptions options;
  options.run.obs.metrics = &registry;
  options.telemetry_interval_ms = 1;
  options.telemetry_window = 256;
  options.on_telemetry = [&](const serve::TelemetryRecord& record) {
    std::lock_guard<std::mutex> lock(series_mu);
    series += exporter.jsonl(record.metrics, ++seq, record.uptime_ms);
  };
  serve::ServeCore core(synth(40, 5), options);
  const std::vector<Packet> pool = trace_for(synth(40, 5), 4096, 9);

  std::atomic<bool> done{false};
  std::thread storm([&] {
    std::uint64_t round = 0;
    while (!done.load()) {
      (void)core.swap(synth(40 + round % 3, 100 + round));
      ++round;
    }
  });
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      auto shard = core.shard();
      for (std::size_t i = 0; i < 60; ++i) {
        const std::size_t start = ((t * 60 + i) * 131) % (pool.size() - 64);
        (void)shard.classify(
            std::span<const Packet>(pool).subspan(start, 64));
      }
    });
  }
  for (std::thread& r : readers) {
    r.join();
  }
  // A fast build can finish the batches before the reporter's first
  // tick, so the storm keeps swapping until a tick has been exported (or
  // the deadline passes and the records check below fails).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(series_mu);
      if (seq != 0) {
        break;
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  storm.join();

  // Exports taken mid-flight and at rest must both validate.
  const serve::TelemetryRecord final_record = core.telemetry_now();
  const std::string prom = exporter.prometheus(final_record.metrics);
  const PromValidation prom_ok = validate_prometheus(prom);
  EXPECT_TRUE(prom_ok.ok) << prom_ok.error;
  EXPECT_GT(prom_ok.samples, 0u);
  {
    std::lock_guard<std::mutex> lock(series_mu);
    series += exporter.jsonl(final_record.metrics, ++seq,
                             final_record.uptime_ms);
    const JsonlValidation jsonl_ok = validate_metrics_jsonl(series);
    EXPECT_TRUE(jsonl_ok.ok) << jsonl_ok.error;
    EXPECT_GE(jsonl_ok.records, 2u) << "reporter produced no ticks";
  }

  // The exported p99 of serve.batch.ns must be recomputable offline from
  // the same record's buckets — parse the last JSONL line back and
  // compare against HistogramSnapshot::quantile.
  const std::string line = exporter.jsonl(final_record.metrics, 1, 0);
  std::string error;
  auto doc = json::parse(line.substr(0, line.size() - 1), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto back = metrics_from_json(*doc, &error);
  ASSERT_TRUE(back.has_value()) << error;
  const HistogramSnapshot& batch =
      back->histograms.at(names::kServeBatchNs);
  ASSERT_GT(batch.count, 0u);
  const json::Value* exported =
      doc->find("histograms")->find(names::kServeBatchNs);
  ASSERT_NE(exported, nullptr);
  EXPECT_DOUBLE_EQ(exported->find("p99")->number, batch.quantile(0.99));
  // And the recomputed p99 is bracketed by its bucket's bounds: the
  // log-linear error contract (docs/observability.md).
  const double p99 = batch.quantile(0.99);
  const std::size_t bucket = Histogram::bucket_of(
      static_cast<std::uint64_t>(p99), batch.subbits);
  const std::uint64_t lo =
      Histogram::bucket_lower_bound(bucket, batch.subbits);
  EXPECT_GE(p99, static_cast<double>(lo));
  EXPECT_LE(p99, static_cast<double>(
                     Histogram::bucket_next_bound(lo, batch.subbits)));

  // S1 dedup holds under the storm: the batch span no longer
  // double-records as a phase histogram.
  EXPECT_EQ(back->histograms.count("phase.serve.batch_ns"), 0u);
}

// -- dfw_bench_diff ----------------------------------------------------------

std::string bench_doc(std::uint64_t serve_wall, std::uint64_t compile_wall) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"dfw-bench-obs-v1\",\n  \"bench\": \"t\",\n"
      << "  \"records\": [\n"
      << "    {\"name\": \"serve_throughput\", \"params\": {\"threads\": 2, "
         "\"swap_period_ms\": 0, \"lookups_per_sec\": "
      << (serve_wall / 7)
      << "}, \"wall_ns\": " << serve_wall
      << ", \"metrics\": {\"counters\": {}, \"histograms\": "
         "{\"serve.batch.ns\": {\"count\": 2, \"sum\": "
      << serve_wall << ", \"buckets\": [[" << (serve_wall / 4) << ", 2]]}}}},\n"
      << "    {\"name\": \"compile.flat_slab\", \"params\": {\"rules\": 100}, "
         "\"wall_ns\": "
      << compile_wall
      << ", \"metrics\": {\"counters\": {}, \"histograms\": {}}}\n"
      << "  ]\n}\n";
  return out.str();
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return path;
}

TEST(BenchDiffTest, IdenticalPairPassesSlowedRecordFails) {
  const std::string base =
      write_temp("bd_base.json", bench_doc(1000000, 500000));
  const std::string same =
      write_temp("bd_same.json", bench_doc(1000000, 500000));
  const std::string slow =
      write_temp("bd_slow.json", bench_doc(4000000, 500000));

  std::ostringstream out;
  std::ostringstream err;
  // Identical pair: every ratio is exactly 1.0.
  EXPECT_EQ(bench::run_bench_diff_cli(
                {"--max-ratio=2.0",
                 "--key-params=threads,swap_period_ms,rules", base, same},
                out, err),
            0)
      << out.str() << err.str();
  // A 4x slowdown on one record breaches the 2x gate.
  out.str("");
  EXPECT_EQ(bench::run_bench_diff_cli(
                {"--max-ratio=2.0",
                 "--key-params=threads,swap_period_ms,rules", base, slow},
                out, err),
            1);
  EXPECT_NE(out.str().find("BREACH"), std::string::npos);
  // The same pair passes a 5x gate.
  EXPECT_EQ(bench::run_bench_diff_cli(
                {"--max-ratio=5.0",
                 "--key-params=threads,swap_period_ms,rules", base, slow},
                out, err),
            0);
}

TEST(BenchDiffTest, KeyParamsSelectAndQuantileKnobs) {
  const std::string base =
      write_temp("bd_kb.json", bench_doc(1000000, 500000));
  const std::string slow =
      write_temp("bd_ks.json", bench_doc(4000000, 500000));
  std::ostringstream out;
  std::ostringstream err;
  // Without --key-params the measured lookups_per_sec param splits the
  // serve records' identity, so the 4x regression silently drops out of
  // the comparison (only the compile records match) — the hazard that
  // motivates pinning the identity params in CI.
  EXPECT_EQ(bench::run_bench_diff_cli({base, slow}, out, err), 0);
  // A selector that matches nothing is a usage error, not a green light.
  EXPECT_EQ(bench::run_bench_diff_cli({"--select=no.such.", base, slow},
                                      out, err),
            2);
  // --select compares only the compile records, which are identical.
  EXPECT_EQ(bench::run_bench_diff_cli({"--select=compile.",
                                       "--key-params=rules", base, slow},
                                      out, err),
            0);
  // The histogram quantile comparison catches the slowed latency too.
  out.str("");
  EXPECT_EQ(bench::run_bench_diff_cli(
                {"--select=serve_throughput",
                 "--key-params=threads,swap_period_ms",
                 "--hist=serve.batch.ns", "--quantile=0.99", base, slow},
                out, err),
            1);
  EXPECT_NE(out.str().find("serve.batch.ns"), std::string::npos);
}

TEST(BenchDiffTest, HistogramMissingOnEitherSideComparesNothing) {
  // A --hist gate on a histogram the current run renamed compares no
  // quantile; it must not pass on wall_ns alone.
  std::string renamed = bench_doc(1000000, 500000);
  renamed.replace(renamed.find("serve.batch.ns"), 14, "serve.batch_ns");
  const std::string base =
      write_temp("bd_hb.json", bench_doc(1000000, 500000));
  const std::string current = write_temp("bd_hr.json", renamed);
  const std::vector<std::string> gate = {
      "--key-params=threads,swap_period_ms,rules", "--hist=serve.batch.ns"};
  std::ostringstream out;
  std::ostringstream err;
  std::vector<std::string> args = gate;
  args.insert(args.end(), {base, current});
  EXPECT_EQ(bench::run_bench_diff_cli(args, out, err), 2) << out.str();
  EXPECT_NE(err.str().find("serve.batch.ns"), std::string::npos);
  args = gate;
  args.insert(args.end(), {current, base});
  EXPECT_EQ(bench::run_bench_diff_cli(args, out, err), 2) << out.str();

  // Where another pair carries it on both sides, the gate compares that
  // one and lists the one-sided miss as unmatched.
  std::string both = bench_doc(1000000, 500000);
  const std::string compile_hist =
      "\"histograms\": {\"serve.batch.ns\": {\"count\": 1, \"sum\": 8, "
      "\"buckets\": [[8, 1]]}}";
  const std::string no_hist = "\"histograms\": {}";
  both.replace(both.rfind(no_hist), no_hist.size(), compile_hist);
  std::string one_sided = both;
  one_sided.replace(one_sided.find("serve.batch.ns"), 14, "serve.batch_ns");
  const std::string with_both = write_temp("bd_h2.json", both);
  const std::string with_one = write_temp("bd_h1.json", one_sided);
  out.str("");
  args = gate;
  args.insert(args.end(), {with_both, with_one});
  EXPECT_EQ(bench::run_bench_diff_cli(args, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("[p99 serve.batch.ns]"), std::string::npos);
  EXPECT_NE(out.str().find("unmatched serve_throughput swap_period_ms=0 "
                           "threads=2 [serve.batch.ns only in baseline]"),
            std::string::npos)
      << out.str();
}

TEST(BenchDiffTest, ReportAndValidatorModes) {
  const std::string base =
      write_temp("bd_rb.json", bench_doc(1000000, 500000));
  const std::string slow =
      write_temp("bd_rs.json", bench_doc(4000000, 500000));
  const std::string report =
      (std::filesystem::path(::testing::TempDir()) / "bd_report.json")
          .string();
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(bench::run_bench_diff_cli(
                {"--key-params=threads,swap_period_ms,rules",
                 "--report=" + report, base, slow},
                out, err),
            1);
  // The report is a parseable dfw-bench-diff-v1 document with a breach.
  std::ifstream in(report, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  const auto doc = json::parse(buffer.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("schema")->string, "dfw-bench-diff-v1");
  EXPECT_EQ(doc->find("breaches")->number, 1.0);

  // Validator mode: exporter output passes, corrupted output exits 1,
  // usage errors exit 2.
  MetricsRegistry registry;
  registry.counter("c").add(1);
  registry.histogram("h").record(5);
  const MetricsExporter exporter;
  const std::string prom_path = write_temp(
      "bd_prom.txt", exporter.prometheus(registry.snapshot()));
  const std::string jsonl_path =
      write_temp("bd_metrics.jsonl",
                 exporter.jsonl(registry.snapshot(), 1, 0));
  EXPECT_EQ(bench::run_bench_diff_cli({"--validate-prom=" + prom_path,
                                       "--validate-jsonl=" + jsonl_path},
                                      out, err),
            0);
  const std::string broken =
      write_temp("bd_broken.txt", "dfw_x 1\n# TYPE dfw_x counter\n");
  EXPECT_EQ(
      bench::run_bench_diff_cli({"--validate-prom=" + broken}, out, err), 1);
  EXPECT_EQ(bench::run_bench_diff_cli({"--nonsense"}, out, err), 2);
  EXPECT_EQ(bench::run_bench_diff_cli({base}, out, err), 2);
}

}  // namespace
}  // namespace dfw
