// Fleet-scale static analysis: one audit pipeline over many device
// configurations.
//
// A real deployment is not one firewall but hundreds to thousands of
// device configs in mixed syntaxes. run_fleet shards a fleet across the
// rt/ Executor and pushes every device through parse -> simplify
// (src/simplify/, every rewrite FDD-proven) -> lint (src/lint/), then
// optionally cross-compares the surviving policies (pairwise or N-way,
// the paper's Section 7.3 direct N-way comparison) — all under ONE shared
// RunContext, so a global budget or deadline degrades the batch into
// per-device partial statuses instead of an abort: devices that finished
// keep their findings, the device that breached reports kPartial, and
// devices whose tasks had not started report kSkipped.
//
// Determinism contract: per-device work is staged into preassigned index
// slots and aggregated serially, so for a run that completes (no budget
// breach) the fleet report — text, JSON, and SARIF — is byte-identical at
// every thread count. Under a breach the set of completed devices may
// legitimately vary with scheduling; the statuses are the honest record
// of what ran.
//
// Findings are deduplicated across devices by the lint layer's content
// fingerprints: configs stamped from one template reproduce the same
// defect everywhere, and the aggregate SARIF reports it once (first
// device in fleet order) with an occurrence count, instead of N times.

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fdd/compare.hpp"
#include "lint/engine.hpp"
#include "rt/govern.hpp"
#include "rt/run_options.hpp"
#include "simplify/simplify.hpp"

namespace dfw::fleet {

enum class DeviceFormat { kNative, kIptables, kIp6tables, kCisco };

/// Stable identifier string, e.g. "iptables" (also the manifest keyword).
const char* to_string(DeviceFormat format);

/// Parses a manifest/CLI format keyword; nullopt on an unknown name.
std::optional<DeviceFormat> parse_device_format(std::string_view name);

/// One fleet member, as named by a manifest line or a directory scan.
struct FleetItem {
  std::string path;  ///< as given; relative paths are the caller's affair
  DeviceFormat format = DeviceFormat::kNative;
  std::string chain = "INPUT";  ///< iptables/ip6tables chain
  std::string acl = "101";      ///< Cisco access-list id
  std::string name;             ///< display name; defaults to path
};

/// Parses a fleet manifest: one device per line,
///
///   <format> <path> [chain=NAME] [acl=ID] [name=NAME]
///
/// where <format> is native|iptables|ip6tables|cisco; blank lines and
/// #-comments are skipped. Returns nullopt with a "<line N>: ..."
/// message in *error (when non-null) on a malformed line.
std::optional<std::vector<FleetItem>> parse_fleet_manifest(
    std::string_view text, std::string* error);

/// Scans a directory (non-recursive) for device configs by extension —
/// .fw native, .rules iptables, .acl cisco — returning items sorted by
/// path, so scan order never shows in reports. Throws
/// std::filesystem::filesystem_error when the directory cannot be read.
std::vector<FleetItem> scan_fleet_dir(const std::string& dir);

/// One loaded device config: the manifest entry plus its text. Loading is
/// the caller's job (the CLI slurps files; tests inject strings), keeping
/// run_fleet pure and deterministic.
struct FleetSource {
  FleetItem item;
  std::string text;
};

/// What happened to one device.
enum class DeviceStatus {
  kOk,          ///< analysed completely, no findings
  kFindings,    ///< analysed completely, lint findings present
  kParseError,  ///< config failed to parse; nothing analysed
  kPartial,     ///< governance cut the device short; findings so far kept
  kSkipped,     ///< shared context already aborted before the task began
};

/// Stable identifier string, e.g. "parse-error" (also the report token).
const char* to_string(DeviceStatus status);

struct DeviceReport {
  FleetItem item;
  DeviceStatus status = DeviceStatus::kOk;
  std::string message;  ///< empty unless parse-error/partial/skipped
  SimplifyReport simplify;
  std::vector<lint::Diagnostic> diagnostics;
  /// True when the (simplified) policy ends in a catch-all — the
  /// syntactic comprehensiveness gate for the compare stage.
  bool comparable = false;
};

enum class CompareMode { kNone, kPairs, kNway };

/// One cross-device behavioural divergence: a traffic class plus the
/// decision each named device assigns it (decisions parallel to devices;
/// not all equal).
struct Divergence {
  std::vector<std::string> devices;
  std::vector<IntervalSet> conjuncts;
  std::vector<Decision> decisions;
  /// The class rendered in the rule-like report style ("S in ... ^ ..."),
  /// filled by run_fleet (renderers have no schema to format against).
  std::string text;
};

struct FleetOptions {
  /// Shared execution knobs. `run.executor` shards devices (and compare
  /// pairs); null analyses serially. `run.context` is the GLOBAL budget
  /// every device draws from — see the header comment for the partial
  /// semantics. `run.obs` receives fleet.* counters and the
  /// fleet.devices / fleet.compare phase spans.
  RunOptions run = {};

  /// Run the simplify stage (lint and compare then see the smaller
  /// proven-equivalent policy).
  bool simplify = true;

  /// Pass selection for the lint stage (LintOptions::passes/disabled);
  /// its `run` member is ignored likewise.
  lint::LintOptions lint;

  CompareMode compare = CompareMode::kNone;
  /// Divergence records kept in the report; the total is always counted
  /// (a capped report says so instead of silently truncating).
  std::size_t max_divergences = 64;
};

struct FleetReport {
  std::vector<DeviceReport> devices;  ///< input order
  /// Divergences in deterministic order (schema group, then pair, then
  /// decision-path order), capped at max_divergences.
  std::vector<Divergence> divergences;
  std::size_t divergences_total = 0;  ///< uncapped count
  bool compare_complete = true;       ///< compare stage ran to completion
  std::string compare_message;
  std::size_t findings_total = 0;     ///< lint findings across devices
  std::size_t findings_distinct = 0;  ///< distinct lint fingerprints
  /// Global verdict: false iff the shared context aborted (some device
  /// statuses are then kPartial/kSkipped).
  bool complete = true;
  ErrorCode status = ErrorCode::kOk;
  std::string message;
};

/// Analyses a fleet (see the header comment). Governance breaches are
/// absorbed into per-device statuses and the global verdict; parse errors
/// never throw (they are per-device statuses); other exceptions propagate.
FleetReport run_fleet(const std::vector<FleetSource>& sources,
                      const FleetOptions& options = {});

/// Human-readable per-device table plus totals.
std::string render_fleet_text(const FleetReport& report);

/// One JSON document, schema "dfw-fleet-report-v1": per-device records
/// (status, rule counts, simplify proof, findings) plus fleet summary and
/// divergences. Pure function of the report — byte-deterministic.
std::string render_fleet_json(const FleetReport& report);

/// Aggregate SARIF 2.1.0 log (passes lint::validate_sarif): one result
/// per DISTINCT lint fingerprint (first device in fleet order, occurrence
/// count in the message), plus fleet.divergence results and fleet.device-*
/// status results for parse-error/partial/skipped devices.
std::string render_fleet_sarif(const FleetReport& report);

}  // namespace dfw::fleet
