#include "fleet/fleet.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <set>
#include <utility>

#include "adapters/cisco.hpp"
#include "adapters/iptables.hpp"
#include "fw/parser.hpp"
#include "lint/sarif.hpp"
#include "obs/json.hpp"
#include "obs/names.hpp"
#include "rt/executor.hpp"

namespace dfw::fleet {
namespace {

/// FNV-1a over `s`, rendered as the lint layer's 16-hex-char fingerprint
/// shape — used for the fleet-level SARIF results (divergences, device
/// statuses), which have no lint Diagnostic to carry one.
std::string fnv_fingerprint(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

bool analysed(const DeviceReport& dev) {
  return dev.status == DeviceStatus::kOk ||
         dev.status == DeviceStatus::kFindings;
}

}  // namespace

const char* to_string(DeviceFormat format) {
  switch (format) {
    case DeviceFormat::kNative:
      return "native";
    case DeviceFormat::kIptables:
      return "iptables";
    case DeviceFormat::kIp6tables:
      return "ip6tables";
    case DeviceFormat::kCisco:
      return "cisco";
  }
  return "unknown";
}

std::optional<DeviceFormat> parse_device_format(std::string_view name) {
  if (name == "native") {
    return DeviceFormat::kNative;
  }
  if (name == "iptables") {
    return DeviceFormat::kIptables;
  }
  if (name == "ip6tables") {
    return DeviceFormat::kIp6tables;
  }
  if (name == "cisco") {
    return DeviceFormat::kCisco;
  }
  return std::nullopt;
}

const char* to_string(DeviceStatus status) {
  switch (status) {
    case DeviceStatus::kOk:
      return "ok";
    case DeviceStatus::kFindings:
      return "findings";
    case DeviceStatus::kParseError:
      return "parse-error";
    case DeviceStatus::kPartial:
      return "partial";
    case DeviceStatus::kSkipped:
      return "skipped";
  }
  return "unknown";
}

std::optional<std::vector<FleetItem>> parse_fleet_manifest(
    std::string_view text, std::string* error) {
  const auto fail = [error](std::size_t line_no, std::string message) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + std::move(message);
    }
    return std::nullopt;
  };

  std::vector<FleetItem> items;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }

    std::vector<std::string_view> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
        ++i;
      }
      std::size_t start = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t') {
        ++i;
      }
      if (i > start) {
        tokens.push_back(line.substr(start, i - start));
      }
    }
    if (tokens.empty() || tokens[0].front() == '#') {
      continue;
    }

    const std::optional<DeviceFormat> format = parse_device_format(tokens[0]);
    if (!format.has_value()) {
      return fail(line_no,
                  "unknown format '" + std::string(tokens[0]) +
                      "' (expected native|iptables|ip6tables|cisco)");
    }
    if (tokens.size() < 2) {
      return fail(line_no, "missing config path");
    }
    FleetItem item;
    item.format = *format;
    item.path = std::string(tokens[1]);
    for (std::size_t t = 2; t < tokens.size(); ++t) {
      const std::string_view token = tokens[t];
      if (token.rfind("chain=", 0) == 0) {
        item.chain = std::string(token.substr(6));
      } else if (token.rfind("acl=", 0) == 0) {
        item.acl = std::string(token.substr(4));
      } else if (token.rfind("name=", 0) == 0) {
        item.name = std::string(token.substr(5));
      } else {
        return fail(line_no, "unknown option '" + std::string(token) +
                                 "' (expected chain=|acl=|name=)");
      }
    }
    if (item.name.empty()) {
      item.name = item.path;
    }
    items.push_back(std::move(item));
  }
  return items;
}

std::vector<FleetItem> scan_fleet_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<FleetItem> items;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string ext = entry.path().extension().string();
    DeviceFormat format;
    if (ext == ".fw") {
      format = DeviceFormat::kNative;
    } else if (ext == ".rules") {
      format = DeviceFormat::kIptables;
    } else if (ext == ".acl") {
      format = DeviceFormat::kCisco;
    } else {
      continue;
    }
    FleetItem item;
    item.format = format;
    item.path = entry.path().string();
    item.name = entry.path().filename().string();
    items.push_back(std::move(item));
  }
  std::sort(items.begin(), items.end(),
            [](const FleetItem& a, const FleetItem& b) {
              return a.path < b.path;
            });
  return items;
}

FleetReport run_fleet(const std::vector<FleetSource>& sources,
                      const FleetOptions& options) {
  const std::size_t n = sources.size();
  RunContext* ctx = options.run.context;
  const ObsOptions obs = options.run.obs;

  FleetReport report;
  report.devices.resize(n);
  // Simplified policies staged per device for the compare stage (slot
  // layout, never touched by two tasks).
  std::vector<std::optional<Policy>> policies(n);
  const lint::LintEngine engine;

  const auto analyse = [&](std::size_t i) {
    DeviceReport& dev = report.devices[i];
    dev.item = sources[i].item;
    if (dev.item.name.empty()) {
      dev.item.name = dev.item.path;
    }
    if (govern::aborted(ctx)) {
      dev.status = DeviceStatus::kSkipped;
      dev.message = std::string("not started: shared context aborted (") +
                    to_string(ctx->abort_code()) + ")";
      return;
    }

    lint::LintInput input;
    std::optional<Policy> policy;
    try {
      const std::string& text = sources[i].text;
      switch (dev.item.format) {
        case DeviceFormat::kIptables:
          policy.emplace(parse_iptables_save(text, dev.item.chain,
                                             &input.adapter_notes));
          break;
        case DeviceFormat::kIp6tables:
          policy.emplace(parse_ip6tables_save(text, dev.item.chain,
                                              &input.adapter_notes));
          break;
        case DeviceFormat::kCisco:
          policy.emplace(
              parse_cisco_acl(text, dev.item.acl, &input.adapter_notes));
          break;
        case DeviceFormat::kNative:
          policy.emplace(
              parse_policy(five_tuple_schema(), default_decisions(), text));
          break;
      }
    } catch (const ParseError& e) {
      dev.status = DeviceStatus::kParseError;
      dev.message = e.what();
      return;
    }

    // Inside one device everything is serial; the fleet's parallelism is
    // the across-device fan-out. The GLOBAL context and sinks thread in.
    RunOptions device_run;
    device_run.context = ctx;
    device_run.obs = obs;

    // Simplify's analysis of the policy it returns goes on to lint, so
    // the device's arena serves both; this task owns it throughout.
    std::optional<PolicyAnalysis> analysis;
    if (options.simplify) {
      SimplifyOutcome outcome = simplify_policy(*policy, device_run);
      dev.simplify = outcome.report;
      if (!outcome.report.complete) {
        dev.status = DeviceStatus::kPartial;
        dev.message = outcome.report.message;
        return;
      }
      policy.emplace(std::move(outcome.policy));
      analysis = std::move(outcome.analysis);
    } else {
      dev.simplify.rules_before = policy->size();
      dev.simplify.rules_after = policy->size();
    }

    input.policy = &*policy;
    input.decisions = &default_decisions();
    input.source_name = dev.item.path;
    input.analysis = analysis ? &*analysis : nullptr;
    lint::LintOptions lint_options;
    lint_options.passes = options.lint.passes;
    lint_options.disabled = options.lint.disabled;
    lint_options.run = device_run;
    lint::LintReport lint_report = engine.run(input, lint_options);
    dev.diagnostics = std::move(lint_report.diagnostics);
    if (!lint_report.complete) {
      dev.status = DeviceStatus::kPartial;
      dev.message = lint_report.message;
    } else {
      dev.status = dev.diagnostics.empty() ? DeviceStatus::kOk
                                           : DeviceStatus::kFindings;
    }
    dev.comparable = policy->last_rule_is_catch_all();
    policies[i] = std::move(policy);
  };

  {
    PhaseSpan span(obs, "fleet.devices", "devices",
                   static_cast<std::uint64_t>(n));
    // Deliberately the UNgoverned fan-out: a shared-context abort must not
    // skip devices silently at the pool level — each task checks the
    // context itself and records an explicit kSkipped/kPartial status.
    if (Executor* executor = options.run.executor;
        executor != nullptr && n > 1) {
      executor->parallel_for(n, analyse);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        analyse(i);
      }
    }
  }

  if (govern::aborted(ctx)) {
    report.complete = false;
    report.status = ctx->abort_code();
    report.message = std::string("global budget exhausted (") +
                     to_string(report.status) +
                     "); per-device statuses mark what completed";
  }

  std::set<std::string> fingerprints;
  for (const DeviceReport& dev : report.devices) {
    report.findings_total += dev.diagnostics.size();
    for (const lint::Diagnostic& d : dev.diagnostics) {
      fingerprints.insert(d.fingerprint);
    }
  }
  report.findings_distinct = fingerprints.size();

  if (options.compare != CompareMode::kNone && !govern::aborted(ctx)) {
    PhaseSpan span(obs, "fleet.compare");
    // Schema groups among the devices that analysed cleanly and end in a
    // catch-all (the syntactic comprehensiveness gate construction needs).
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < n; ++i) {
      if (!policies[i].has_value() || !report.devices[i].comparable ||
          !analysed(report.devices[i])) {
        continue;
      }
      bool placed = false;
      for (std::vector<std::size_t>& group : groups) {
        if (policies[group[0]]->schema() == policies[i]->schema()) {
          group.push_back(i);
          placed = true;
          break;
        }
      }
      if (!placed) {
        groups.push_back({i});
      }
    }

    const auto record = [&](const std::vector<std::size_t>& members,
                            const Discrepancy& d) {
      ++report.divergences_total;
      if (report.divergences.size() >= options.max_divergences) {
        return;
      }
      Divergence v;
      for (const std::size_t idx : members) {
        v.devices.push_back(report.devices[idx].item.name);
      }
      v.conjuncts = d.conjuncts;
      v.decisions = d.decisions;
      v.text = lint::format_class(policies[members[0]]->schema(),
                                  d.conjuncts);
      report.divergences.push_back(std::move(v));
    };

    try {
      for (const std::vector<std::size_t>& group : groups) {
        if (group.size() < 2) {
          continue;
        }
        if (options.compare == CompareMode::kNway) {
          std::vector<Policy> members;
          members.reserve(group.size());
          for (const std::size_t idx : group) {
            members.push_back(*policies[idx]);
          }
          CompareOptions compare_options;
          compare_options.run = options.run;
          const CompareOutcome outcome =
              discrepancies_many_governed(members, compare_options);
          if (!outcome.complete) {
            report.compare_complete = false;
            report.compare_message = outcome.message;
          }
          for (const Discrepancy& d : outcome.discrepancies) {
            record(group, d);
          }
        } else {
          // All pairs, staged per pair index, merged serially in pair
          // order — deterministic at every thread count.
          std::vector<std::pair<std::size_t, std::size_t>> pairs;
          for (std::size_t a = 0; a < group.size(); ++a) {
            for (std::size_t b = a + 1; b < group.size(); ++b) {
              pairs.emplace_back(group[a], group[b]);
            }
          }
          std::vector<CompareOutcome> outcomes(pairs.size());
          const auto compare_pair = [&](std::size_t k) {
            CompareOptions compare_options;
            compare_options.run.context = ctx;
            compare_options.run.obs = obs;
            outcomes[k] = discrepancies_governed(*policies[pairs[k].first],
                                                 *policies[pairs[k].second],
                                                 compare_options);
          };
          if (Executor* executor = options.run.executor;
              executor != nullptr && pairs.size() > 1) {
            executor->parallel_for(pairs.size(), compare_pair);
          } else {
            for (std::size_t k = 0; k < pairs.size(); ++k) {
              compare_pair(k);
            }
          }
          for (std::size_t k = 0; k < pairs.size(); ++k) {
            if (!outcomes[k].complete) {
              report.compare_complete = false;
              report.compare_message = outcomes[k].message;
            }
            for (const Discrepancy& d : outcomes[k].discrepancies) {
              record({pairs[k].first, pairs[k].second}, d);
            }
          }
        }
      }
    } catch (const std::exception& e) {
      report.compare_complete = false;
      report.compare_message = e.what();
    }
    if (govern::aborted(ctx)) {
      report.complete = false;
      report.status = ctx->abort_code();
      report.message = std::string("global budget exhausted (") +
                       to_string(report.status) +
                       "); per-device statuses mark what completed";
    }
  }

  if (MetricsRegistry* metrics = obs.metrics) {
    std::size_t partial = 0;
    std::size_t skipped = 0;
    std::size_t parse_errors = 0;
    for (const DeviceReport& dev : report.devices) {
      partial += dev.status == DeviceStatus::kPartial ? 1 : 0;
      skipped += dev.status == DeviceStatus::kSkipped ? 1 : 0;
      parse_errors += dev.status == DeviceStatus::kParseError ? 1 : 0;
    }
    metrics->counter(names::kFleetDevices).add(n);
    metrics->counter(names::kFleetDevicePartial).add(partial);
    metrics->counter(names::kFleetDeviceSkipped).add(skipped);
    metrics->counter(names::kFleetParseErrors).add(parse_errors);
    metrics->counter(names::kFleetFindings).add(report.findings_total);
    metrics->counter(names::kFleetFindingsDistinct)
        .add(report.findings_distinct);
    metrics->counter(names::kFleetDivergences)
        .add(report.divergences_total);
  }
  return report;
}

std::string render_fleet_text(const FleetReport& report) {
  std::string out = "fleet: " + std::to_string(report.devices.size()) +
                    " device(s)\n";
  std::size_t counts[5] = {0, 0, 0, 0, 0};
  for (const DeviceReport& dev : report.devices) {
    ++counts[static_cast<std::size_t>(dev.status)];
    out += "  " + dev.item.name + "  " + to_string(dev.status);
    if (analysed(dev) || dev.status == DeviceStatus::kPartial) {
      out += "  rules " + std::to_string(dev.simplify.rules_before) +
             " -> " + std::to_string(dev.simplify.rules_after) + " (proof " +
             to_string(dev.simplify.proof) + ")";
      out += "  findings " + std::to_string(dev.diagnostics.size());
    }
    if (!dev.message.empty()) {
      out += "  [" + dev.message + "]";
    }
    out += "\n";
  }
  out += "summary: ok " + std::to_string(counts[0]) + ", findings " +
         std::to_string(counts[1]) + ", parse-error " +
         std::to_string(counts[2]) + ", partial " +
         std::to_string(counts[3]) + ", skipped " +
         std::to_string(counts[4]) + "\n";
  out += "findings: " + std::to_string(report.findings_total) + " total, " +
         std::to_string(report.findings_distinct) + " distinct\n";
  out += "divergences: " + std::to_string(report.divergences_total) +
         " (reported " + std::to_string(report.divergences.size()) + ")\n";
  for (const Divergence& v : report.divergences) {
    out += "  " + v.text + ":";
    for (std::size_t i = 0; i < v.devices.size(); ++i) {
      out += " " + v.devices[i] + "=" +
             default_decisions().name(v.decisions[i]);
    }
    out += "\n";
  }
  if (!report.compare_complete) {
    out += "compare partial: " + report.compare_message + "\n";
  }
  if (!report.complete) {
    out += "PARTIAL: " + report.message + "\n";
  }
  return out;
}

std::string render_fleet_json(const FleetReport& report) {
  std::string out = "{\"schema\":\"dfw-fleet-report-v1\",";
  out += "\"complete\":";
  out += report.complete ? "true" : "false";
  out += ",\"status\":" + json::quote(to_string(report.status));
  out += ",\"message\":" + json::quote(report.message);
  out += ",\"devices\":[";
  std::size_t counts[5] = {0, 0, 0, 0, 0};
  std::size_t rules_before = 0;
  std::size_t rules_after = 0;
  for (std::size_t i = 0; i < report.devices.size(); ++i) {
    const DeviceReport& dev = report.devices[i];
    ++counts[static_cast<std::size_t>(dev.status)];
    rules_before += dev.simplify.rules_before;
    rules_after += dev.simplify.rules_after;
    if (i != 0) {
      out += ",";
    }
    out += "{\"name\":" + json::quote(dev.item.name);
    out += ",\"path\":" + json::quote(dev.item.path);
    out += ",\"format\":" + json::quote(to_string(dev.item.format));
    out += ",\"status\":" + json::quote(to_string(dev.status));
    out += ",\"message\":" + json::quote(dev.message);
    out += ",\"rules_before\":" + std::to_string(dev.simplify.rules_before);
    out += ",\"rules_after\":" + std::to_string(dev.simplify.rules_after);
    out += ",\"proof\":" + json::quote(to_string(dev.simplify.proof));
    out += ",\"simplify_passes\":" + std::to_string(dev.simplify.passes);
    out += ",\"dead_eliminated\":" +
           std::to_string(dev.simplify.stats.dead_eliminated);
    out += ",\"adjacent_merged\":" +
           std::to_string(dev.simplify.stats.adjacent_merged);
    out += ",\"run_subsumed\":" +
           std::to_string(dev.simplify.stats.run_subsumed);
    out += ",\"run_merged\":" + std::to_string(dev.simplify.stats.run_merged);
    out += ",\"findings\":" + std::to_string(dev.diagnostics.size());
    out += "}";
  }
  out += "],\"summary\":{";
  out += "\"devices\":" + std::to_string(report.devices.size());
  out += ",\"ok\":" + std::to_string(counts[0]);
  out += ",\"findings\":" + std::to_string(counts[1]);
  out += ",\"parse_error\":" + std::to_string(counts[2]);
  out += ",\"partial\":" + std::to_string(counts[3]);
  out += ",\"skipped\":" + std::to_string(counts[4]);
  out += ",\"rules_before\":" + std::to_string(rules_before);
  out += ",\"rules_after\":" + std::to_string(rules_after);
  out += ",\"findings_total\":" + std::to_string(report.findings_total);
  out += ",\"findings_distinct\":" +
         std::to_string(report.findings_distinct);
  out += ",\"divergences\":" + std::to_string(report.divergences_total);
  out += ",\"divergences_reported\":" +
         std::to_string(report.divergences.size());
  out += "},\"compare\":{\"complete\":";
  out += report.compare_complete ? "true" : "false";
  out += ",\"message\":" + json::quote(report.compare_message);
  out += ",\"divergences\":[";
  for (std::size_t i = 0; i < report.divergences.size(); ++i) {
    const Divergence& v = report.divergences[i];
    if (i != 0) {
      out += ",";
    }
    out += "{\"class\":" + json::quote(v.text) + ",\"devices\":[";
    for (std::size_t d = 0; d < v.devices.size(); ++d) {
      if (d != 0) {
        out += ",";
      }
      out += json::quote(v.devices[d]);
    }
    out += "],\"decisions\":[";
    for (std::size_t d = 0; d < v.decisions.size(); ++d) {
      if (d != 0) {
        out += ",";
      }
      out += json::quote(default_decisions().name(v.decisions[d]));
    }
    out += "]}";
  }
  out += "]}}";
  return out;
}

namespace {

constexpr const char* kRuleDivergence = "fleet.divergence";
constexpr const char* kRuleParseError = "fleet.parse-error";
constexpr const char* kRulePartial = "fleet.device-partial";
constexpr const char* kRuleSkipped = "fleet.device-skipped";

/// One deduplicated lint finding: its first occurrence plus how many
/// devices reproduce it.
struct DedupedFinding {
  std::size_t device = 0;
  const lint::Diagnostic* diagnostic = nullptr;
  std::size_t occurrences = 0;
};

}  // namespace

std::string render_fleet_sarif(const FleetReport& report) {
  // Deduplicate by lint fingerprint, keeping fleet order (first device,
  // first diagnostic) so the aggregate is deterministic.
  std::vector<DedupedFinding> findings;
  {
    std::map<std::string, std::size_t> by_fingerprint;
    for (std::size_t dev = 0; dev < report.devices.size(); ++dev) {
      for (const lint::Diagnostic& d : report.devices[dev].diagnostics) {
        const auto [it, inserted] =
            by_fingerprint.emplace(d.fingerprint, findings.size());
        if (inserted) {
          findings.push_back(DedupedFinding{dev, &d, 1});
        } else {
          ++findings[it->second].occurrences;
        }
      }
    }
  }

  std::vector<lint::SarifResult> results;
  for (const DedupedFinding& f : findings) {
    const lint::Diagnostic& d = *f.diagnostic;
    std::string text = d.message;
    if (f.occurrences > 1) {
      text += " (seen on " + std::to_string(f.occurrences) + " devices)";
    }
    results.push_back({d.check_id, to_string(d.severity), std::move(text),
                       report.devices[f.device].item.path, d.line,
                       d.fingerprint});
  }
  for (const Divergence& v : report.divergences) {
    std::string text = "devices diverge on " + v.text + ":";
    std::string key = v.text;
    for (std::size_t i = 0; i < v.devices.size(); ++i) {
      const std::string decision =
          default_decisions().name(v.decisions[i]);
      text += " " + v.devices[i] + "=" + decision;
      key += "|" + v.devices[i] + "=" + decision;
    }
    results.push_back({kRuleDivergence, "warning", std::move(text),
                       v.devices.empty() ? "" : v.devices[0], 0,
                       fnv_fingerprint(key)});
  }
  for (const DeviceReport& dev : report.devices) {
    const char* rule = nullptr;
    const char* level = "warning";
    if (dev.status == DeviceStatus::kParseError) {
      rule = kRuleParseError;
      level = "error";
    } else if (dev.status == DeviceStatus::kPartial) {
      rule = kRulePartial;
    } else if (dev.status == DeviceStatus::kSkipped) {
      rule = kRuleSkipped;
    } else {
      continue;
    }
    results.push_back({rule, level, dev.item.name + ": " + dev.message,
                       dev.item.path, 0,
                       fnv_fingerprint(std::string(rule) + "|" +
                                       dev.item.name)});
  }
  const bool successful = report.complete && report.compare_complete;
  return lint::write_sarif(
      "dfw-fleet", results, successful,
      report.complete ? report.compare_message : report.message);
}

}  // namespace dfw::fleet
