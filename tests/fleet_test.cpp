// src/fleet: the fleet-scale audit pipeline. Manifest/directory intake,
// per-device statuses (including the global-budget partial semantics),
// cross-device fingerprint dedup, pairwise/N-way divergence, and the
// determinism contract: for a run that completes, the text/JSON/SARIF
// reports are byte-identical at every thread count. The CLI driver is
// exercised in-process, generator mode included.

#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/cli.hpp"
#include "fw/format.hpp"
#include "lint/sarif.hpp"
#include "rt/executor.hpp"
#include "synth/synth.hpp"

#ifndef DFW_CORPUS_DIR
#error "DFW_CORPUS_DIR must point at tests/corpus (set by CMake)"
#endif

namespace dfw::fleet {
namespace {

// ---------------------------------------------------------------------------
// Helpers

FleetSource native_source(std::string name, std::string text) {
  FleetSource source;
  source.item.format = DeviceFormat::kNative;
  source.item.path = name;
  source.item.name = std::move(name);
  source.text = std::move(text);
  return source;
}

/// A fleet of native-format sources rendered from a synthetic fleet.
std::vector<FleetSource> synth_sources(std::size_t sites, std::size_t rules,
                                       std::uint64_t seed) {
  FleetSynthConfig config;
  config.sites = sites;
  config.base.num_rules = rules;
  config.seed = seed;
  const std::vector<Policy> fleet = make_fleet(config);
  std::vector<FleetSource> sources;
  sources.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    sources.push_back(native_source("site" + std::to_string(i) + ".fw",
                                    format_policy(fleet[i],
                                                  default_decisions())));
  }
  return sources;
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path;
}

int cli(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_fleet_cli(args, out, err);
  if (out_text != nullptr) {
    *out_text = out.str();
  }
  if (err_text != nullptr) {
    *err_text = err.str();
  }
  return code;
}

// ---------------------------------------------------------------------------
// Manifest parsing and directory scans

TEST(FleetManifest, ParsesFormatsOptionsCommentsAndBlanks) {
  const auto items = parse_fleet_manifest(
      "# fleet manifest\n"
      "\n"
      "native core.fw\n"
      "iptables edge.rules chain=FORWARD name=edge\n"
      "ip6tables edge6.rules\n"
      "cisco branch.acl acl=199\n",
      nullptr);
  ASSERT_TRUE(items.has_value());
  ASSERT_EQ(items->size(), 4u);
  EXPECT_EQ((*items)[0].format, DeviceFormat::kNative);
  EXPECT_EQ((*items)[0].name, "core.fw");  // defaults to the path
  EXPECT_EQ((*items)[1].format, DeviceFormat::kIptables);
  EXPECT_EQ((*items)[1].chain, "FORWARD");
  EXPECT_EQ((*items)[1].name, "edge");
  EXPECT_EQ((*items)[2].format, DeviceFormat::kIp6tables);
  EXPECT_EQ((*items)[3].format, DeviceFormat::kCisco);
  EXPECT_EQ((*items)[3].acl, "199");
}

TEST(FleetManifest, RejectsMalformedLinesWithLineNumbers) {
  std::string error;
  EXPECT_FALSE(
      parse_fleet_manifest("pf ruleset.conf\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_NE(error.find("unknown format"), std::string::npos);
  EXPECT_FALSE(parse_fleet_manifest("native a.fw\nnative\n", &error)
                   .has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_NE(error.find("missing config path"), std::string::npos);
  EXPECT_FALSE(
      parse_fleet_manifest("native a.fw wat=1\n", &error).has_value());
  EXPECT_NE(error.find("unknown option"), std::string::npos);
}

TEST(FleetManifest, EmptyTextIsAnEmptyFleet) {
  const auto items = parse_fleet_manifest("", nullptr);
  ASSERT_TRUE(items.has_value());
  EXPECT_TRUE(items->empty());
}

TEST(FleetScan, PicksUpKnownExtensionsSorted) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "fleet_scan";
  fs::create_directories(dir);
  for (const char* name : {"b.fw", "a.rules", "c.acl", "notes.txt"}) {
    std::ofstream((dir / name).string()) << "# placeholder\n";
  }
  const std::vector<FleetItem> items = scan_fleet_dir(dir.string());
  ASSERT_EQ(items.size(), 3u);  // notes.txt ignored
  EXPECT_EQ(items[0].name, "a.rules");
  EXPECT_EQ(items[0].format, DeviceFormat::kIptables);
  EXPECT_EQ(items[1].name, "b.fw");
  EXPECT_EQ(items[1].format, DeviceFormat::kNative);
  EXPECT_EQ(items[2].name, "c.acl");
  EXPECT_EQ(items[2].format, DeviceFormat::kCisco);
}

// ---------------------------------------------------------------------------
// run_fleet: statuses, dedup, divergence

TEST(FleetRun, MixedStatusesAreRecordedPerDevice) {
  std::vector<FleetSource> sources;
  // Clean: two disjoint halves, no findings, not comprehensive.
  sources.push_back(native_source(
      "clean.fw", "discard sip=0.0.0.0/1\naccept sip=128.0.0.0/1\n"));
  // Findings: a shadowed rule under a catch-all.
  sources.push_back(native_source(
      "findings.fw",
      "accept dport=25\naccept dport=25 proto=tcp\ndiscard\n"));
  // Parse error.
  sources.push_back(native_source("broken.fw", "frobnicate everything\n"));
  const FleetReport report = run_fleet(sources);
  ASSERT_EQ(report.devices.size(), 3u);
  EXPECT_EQ(report.devices[0].status, DeviceStatus::kOk);
  EXPECT_EQ(report.devices[1].status, DeviceStatus::kFindings);
  EXPECT_FALSE(report.devices[1].diagnostics.empty());
  EXPECT_TRUE(report.devices[1].comparable);
  EXPECT_EQ(report.devices[2].status, DeviceStatus::kParseError);
  EXPECT_FALSE(report.devices[2].message.empty());
  EXPECT_TRUE(report.complete);
  EXPECT_GT(report.findings_total, 0u);
}

TEST(FleetRun, SimplifyStageShrinksAndIsProven) {
  std::vector<FleetSource> sources;
  // An exact duplicate pair: the copy is dead, simplify removes it.
  sources.push_back(native_source(
      "dup.fw", "accept dport=80 proto=tcp\naccept dport=80 proto=tcp\n"
                "discard\n"));
  const FleetReport report = run_fleet(sources);
  ASSERT_EQ(report.devices.size(), 1u);
  const DeviceReport& dev = report.devices[0];
  EXPECT_EQ(dev.simplify.rules_before, 3u);
  EXPECT_LT(dev.simplify.rules_after, dev.simplify.rules_before);
  EXPECT_EQ(dev.simplify.proof, ProofStatus::kProven);
}

TEST(FleetRun, IdenticalConfigsDeduplicateByFingerprint) {
  const std::string text =
      "accept dport=25\naccept dport=25 proto=tcp\ndiscard\n";
  std::vector<FleetSource> sources;
  sources.push_back(native_source("siteA.fw", text));
  sources.push_back(native_source("siteB.fw", text));
  FleetOptions options;
  options.simplify = false;  // keep the shadowed rule for lint to flag
  const FleetReport report = run_fleet(sources, options);
  EXPECT_GT(report.findings_total, 0u);
  EXPECT_EQ(report.findings_total, report.findings_distinct * 2);
  const std::string sarif = render_fleet_sarif(report);
  EXPECT_TRUE(lint::validate_sarif(sarif).ok);
  EXPECT_NE(sarif.find("(seen on 2 devices)"), std::string::npos);
}

TEST(FleetRun, PairwiseCompareFindsDivergences) {
  std::vector<FleetSource> sources;
  sources.push_back(
      native_source("a.fw", "accept dport=80 proto=tcp\ndiscard\n"));
  sources.push_back(
      native_source("b.fw", "discard dport=80 proto=tcp\ndiscard\n"));
  FleetOptions options;
  options.compare = CompareMode::kPairs;
  const FleetReport report = run_fleet(sources, options);
  EXPECT_TRUE(report.compare_complete);
  EXPECT_GT(report.divergences_total, 0u);
  ASSERT_FALSE(report.divergences.empty());
  const Divergence& d = report.divergences[0];
  EXPECT_EQ(d.devices.size(), 2u);
  EXPECT_EQ(d.decisions.size(), 2u);
  EXPECT_NE(d.decisions[0], d.decisions[1]);
  EXPECT_FALSE(d.text.empty());
  EXPECT_NE(render_fleet_text(report).find("diverge"), std::string::npos);
}

TEST(FleetRun, NwayCompareAgreesOnCleanClones) {
  const std::string text = "accept dport=443 proto=tcp\ndiscard\n";
  std::vector<FleetSource> sources;
  sources.push_back(native_source("a.fw", text));
  sources.push_back(native_source("b.fw", text));
  sources.push_back(native_source("c.fw", text));
  FleetOptions options;
  options.compare = CompareMode::kNway;
  const FleetReport report = run_fleet(sources, options);
  EXPECT_TRUE(report.compare_complete);
  EXPECT_EQ(report.divergences_total, 0u);
}

TEST(FleetRun, NonComparableDevicesAreLeftOutOfCompare) {
  std::vector<FleetSource> sources;
  // No catch-all: comparable = false, the compare stage must skip it
  // rather than throw on a non-comprehensive policy.
  sources.push_back(native_source("partial-cover.fw",
                                  "accept dport=80 proto=tcp\n"));
  sources.push_back(
      native_source("a.fw", "accept dport=80 proto=tcp\ndiscard\n"));
  sources.push_back(
      native_source("b.fw", "discard dport=80 proto=tcp\ndiscard\n"));
  FleetOptions options;
  options.compare = CompareMode::kPairs;
  const FleetReport report = run_fleet(sources, options);
  EXPECT_FALSE(report.devices[0].comparable);
  EXPECT_TRUE(report.compare_complete);
  EXPECT_GT(report.divergences_total, 0u);
  for (const Divergence& d : report.divergences) {
    for (const std::string& name : d.devices) {
      EXPECT_NE(name, "partial-cover.fw");
    }
  }
}

TEST(FleetRun, DivergenceCapCountsTheFullTotal) {
  std::vector<FleetSource> sources;
  // Two accept regions on different fields: simplify cannot merge them
  // (they differ in more than one field), so the compare walk reports
  // more than one divergence class against the all-discard device.
  sources.push_back(native_source(
      "a.fw",
      "accept dport=80 proto=tcp\naccept sip=10.0.0.0/8 proto=udp\n"
      "discard\n"));
  sources.push_back(native_source("b.fw", "discard\n"));
  FleetOptions options;
  options.compare = CompareMode::kPairs;
  options.max_divergences = 1;
  const FleetReport report = run_fleet(sources, options);
  EXPECT_EQ(report.divergences.size(), 1u);
  EXPECT_GT(report.divergences_total, 1u);
  EXPECT_NE(render_fleet_json(report).find("\"divergences\":"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Governance: one global budget, honest per-device statuses.

TEST(FleetGovern, GlobalBudgetExhaustionDegradesToPartialStatuses) {
  std::vector<FleetSource> sources = synth_sources(12, 80, 99);
  RunContext::Config rc;
  rc.budgets.max_nodes = 400;
  RunContext context(std::move(rc));
  FleetOptions options;
  options.run.context = &context;  // serial: deterministic breach point
  const FleetReport report = run_fleet(sources, options);
  EXPECT_FALSE(report.complete);
  EXPECT_NE(report.status, ErrorCode::kOk);
  EXPECT_NE(report.message.find("budget"), std::string::npos);
  std::size_t partial = 0;
  std::size_t skipped = 0;
  for (const DeviceReport& dev : report.devices) {
    partial += dev.status == DeviceStatus::kPartial ? 1 : 0;
    skipped += dev.status == DeviceStatus::kSkipped ? 1 : 0;
    if (dev.status == DeviceStatus::kPartial ||
        dev.status == DeviceStatus::kSkipped) {
      EXPECT_FALSE(dev.message.empty());
    }
  }
  EXPECT_GE(partial, 1u);   // the breaching device says so
  EXPECT_GE(skipped, 1u);   // devices after the breach never started
  // The partial run still renders everywhere, clearly marked.
  EXPECT_NE(render_fleet_text(report).find("PARTIAL"), std::string::npos);
  const std::string sarif = render_fleet_sarif(report);
  EXPECT_TRUE(lint::validate_sarif(sarif).ok);
  EXPECT_NE(sarif.find("\"executionSuccessful\":false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: byte-identical reports at 1/2/8 threads.

TEST(FleetDeterminism, ReportsAreByteIdenticalAcrossThreadCounts) {
  const std::vector<FleetSource> sources = synth_sources(10, 50, 7);
  FleetOptions options;
  options.compare = CompareMode::kPairs;
  const FleetReport serial = run_fleet(sources, options);
  const std::string text = render_fleet_text(serial);
  const std::string json = render_fleet_json(serial);
  const std::string sarif = render_fleet_sarif(serial);
  EXPECT_TRUE(lint::validate_sarif(sarif).ok);
  for (const std::size_t threads : {2u, 8u}) {
    Executor executor(threads);
    FleetOptions parallel = options;
    parallel.run.executor = &executor;
    const FleetReport report = run_fleet(sources, parallel);
    EXPECT_EQ(render_fleet_text(report), text) << threads << " threads";
    EXPECT_EQ(render_fleet_json(report), json) << threads << " threads";
    EXPECT_EQ(render_fleet_sarif(report), sarif) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// The CLI, in-process.

TEST(FleetCli, UsageErrorsExitTwo) {
  std::string err;
  EXPECT_EQ(cli({}, nullptr, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos);
  EXPECT_EQ(cli({"--no-such-flag", "x"}, nullptr, &err), 2);
  // Every simplification is proven; there is no flag to skip the proof.
  EXPECT_EQ(cli({"--no-prove", "x"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown option '--no-prove'"), std::string::npos)
      << err;
  EXPECT_EQ(cli({"--compare=sideways", "x"}, nullptr, &err), 2);
  EXPECT_EQ(cli({"--output=yaml", "x"}, nullptr, &err), 2);
  EXPECT_EQ(cli({"--generate=0", "--out=x"}, nullptr, &err), 2);
  EXPECT_EQ(cli({"--generate=3"}, nullptr, &err), 2);  // no --out
  EXPECT_EQ(cli({::testing::TempDir() + "no_such_fleet.manifest"}, nullptr,
                &err),
            2);
  const std::string bad =
      write_temp("fleet_bad.manifest", "pf firewall.conf\n");
  EXPECT_EQ(cli({bad}, nullptr, &err), 2);
  EXPECT_NE(err.find("line 1"), std::string::npos);
}

TEST(FleetCli, GeneratedFleetAnalysesEndToEnd) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::path(::testing::TempDir()) / "fleet_cli_gen").string();
  fs::remove_all(dir);
  std::string out;
  ASSERT_EQ(cli({"--generate=5", "--out=" + dir, "--rules=30"}, &out), 0);
  EXPECT_NE(out.find("wrote 5 device(s)"), std::string::npos);
  ASSERT_TRUE(fs::exists(fs::path(dir) / "fleet.manifest"));
  ASSERT_TRUE(fs::exists(fs::path(dir) / "site0000.fw"));

  // Directory scan and manifest intake see the same fleet.
  std::string dir_out;
  const int dir_code = cli({dir}, &dir_out);
  std::string man_out;
  const int man_code =
      cli({(fs::path(dir) / "fleet.manifest").string()}, &man_out);
  EXPECT_EQ(dir_code, man_code);
  EXPECT_NE(dir_out.find("fleet: 5 device(s)"), std::string::npos);
  EXPECT_NE(man_out.find("fleet: 5 device(s)"), std::string::npos);
  // The generator salts in redundancy; simplify must claw some back.
  EXPECT_NE(dir_out.find("proof proven"), std::string::npos);
}

TEST(FleetCli, SarifOutputIsDeterministicAndValid) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::path(::testing::TempDir()) / "fleet_cli_sarif").string();
  fs::remove_all(dir);
  ASSERT_EQ(cli({"--generate=4", "--out=" + dir, "--rules=25"}, nullptr), 0);
  std::string one;
  std::string eight;
  const int code1 = cli({"--output=sarif", "--threads=1", dir}, &one);
  const int code8 = cli({"--output=sarif", "--threads=8", dir}, &eight);
  EXPECT_EQ(code1, code8);
  EXPECT_EQ(one, eight);
  EXPECT_TRUE(lint::validate_sarif(one).ok);
}

TEST(FleetCli, RedundancyPassRunsByDefault) {
  // The CLI runs the library's default pass set; --disable=redundancy
  // takes the pass out.
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::path(::testing::TempDir()) / "fleet_cli_redundancy").string();
  fs::remove_all(dir);
  ASSERT_EQ(cli({"--generate=4", "--out=" + dir}, nullptr), 0);
  std::string with_pass;
  std::string without_pass;
  EXPECT_EQ(cli({"--output=sarif", dir}, &with_pass), 1);
  cli({"--output=sarif", "--disable=redundancy", dir}, &without_pass);
  const std::string finding = "\"ruleId\":\"policy.redundant-rule\"";
  EXPECT_NE(with_pass.find(finding), std::string::npos);
  EXPECT_EQ(without_pass.find(finding), std::string::npos);
  // The fleet's rule catalog describes lint checks as lint's does.
  EXPECT_NE(with_pass.find("{\"id\":\"policy.redundant-rule\","
                           "\"shortDescription\":{\"text\":\"removing "
                           "this rule leaves every packet's decision "
                           "unchanged\"}}"),
            std::string::npos);
}

TEST(FleetCli, ReportFileAndExitCodes) {
  namespace fs = std::filesystem;
  // A clean single-device fleet exits 0.
  const std::string clean = write_temp(
      "fleet_clean.fw", "discard sip=0.0.0.0/1\naccept sip=128.0.0.0/1\n");
  const std::string manifest = write_temp(
      "fleet_clean.manifest",
      "native " + fs::path(clean).filename().string() + "\n");
  std::string out;
  EXPECT_EQ(cli({manifest}, &out), 0) << out;
  EXPECT_NE(out.find("ok 1"), std::string::npos);

  // Findings exit 1, and --report lands the JSON document on disk.
  const std::string noisy = write_temp(
      "fleet_noisy.fw", "accept dport=25\naccept dport=25 proto=tcp\n"
                        "discard\n");
  const std::string noisy_manifest = write_temp(
      "fleet_noisy.manifest",
      "native " + fs::path(noisy).filename().string() + " name=noisy\n");
  const std::string report_path =
      ::testing::TempDir() + "fleet_report.json";
  EXPECT_EQ(cli({"--report=" + report_path, noisy_manifest}, &out), 1);
  std::ifstream in(report_path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"dfw-fleet-report-v1\""), std::string::npos);
  EXPECT_NE(buf.str().find("\"noisy\""), std::string::npos);
}

TEST(FleetCli, CorpusManifestMixesAllFormats) {
  const std::string manifest =
      std::string(DFW_CORPUS_DIR) + "/fleet/valid_basic.manifest";
  std::string out;
  const int code = cli({"--output=json", manifest}, &out);
  EXPECT_EQ(code, 1);  // the corpus seeds carry known lint findings
  EXPECT_NE(out.find("\"iptables\""), std::string::npos);
  EXPECT_NE(out.find("\"cisco\""), std::string::npos);
  EXPECT_NE(out.find("\"native\""), std::string::npos);
}

TEST(FleetCli, HelpExitsClean) {
  std::string out;
  EXPECT_EQ(cli({"--help"}, &out), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
  EXPECT_NE(out.find("--generate"), std::string::npos);
}

}  // namespace
}  // namespace dfw::fleet
