#include "bench_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"

namespace dfw::bench {
namespace {

constexpr const char* kUsage =
    "usage: dfw_bench_diff [options] <baseline.json> <current.json>\n"
    "       dfw_bench_diff --validate-prom=FILE [--validate-jsonl=FILE]\n"
    "\n"
    "Diffs two dfw-bench-obs-v1 documents record by record and exits 1\n"
    "when any compared value's current/baseline ratio escapes the\n"
    "threshold window — the CI perf-regression gate (docs/benchmarks).\n"
    "\n"
    "matching and thresholds:\n"
    "  --max-ratio=R     fail a record when current/baseline > R\n"
    "                    (default 2.0; measured on wall_ns)\n"
    "  --min-ratio=R     fail when current/baseline < R (default 0 = off;\n"
    "                    catches a benchmark that silently stopped\n"
    "                    measuring anything)\n"
    "  --key-params=a,b  params forming record identity together with the\n"
    "                    record name (default: every param; measured\n"
    "                    params like lookups_per_sec must be excluded or\n"
    "                    no record ever matches itself)\n"
    "  --select=PREFIX   only compare records whose name starts with\n"
    "                    PREFIX (e.g. compile. when the quick run changes\n"
    "                    the classify workload)\n"
    "\n"
    "quantile comparison (in addition to wall_ns):\n"
    "  --hist=NAME       also compare a quantile of histogram NAME from\n"
    "                    each record's metrics snapshot; a pair with it on\n"
    "                    one side only is listed unmatched, and no pair\n"
    "                    with it on both is a usage error\n"
    "  --quantile=Q      which quantile, in (0,1] (default 0.99)\n"
    "\n"
    "output:\n"
    "  --report=FILE     write a dfw-bench-diff-v1 JSON report to FILE\n"
    "\n"
    "validator mode (no baseline/current needed):\n"
    "  --validate-prom=FILE   structurally validate a Prometheus text\n"
    "                    exposition file (obs/export.hpp)\n"
    "  --validate-jsonl=FILE  structurally validate a dfw-metrics-v1\n"
    "                    JSONL file\n"
    "\n"
    "exit codes: 0 within thresholds / valid, 1 breaches or validation\n"
    "failures, 2 usage or unreadable/malformed input\n";

constexpr std::string_view kTool = "dfw_bench_diff";

/// One parsed dfw-bench-obs-v1 record.
struct BenchRecord {
  std::string name;
  std::vector<std::pair<std::string, std::uint64_t>> params;
  std::uint64_t wall_ns = 0;
  const json::Value* metrics = nullptr;  ///< borrowed from the document
};

struct BenchDoc {
  std::string bench;
  json::Value root;  ///< owns everything `records` points into
  std::vector<BenchRecord> records;
};

std::optional<BenchDoc> load_bench(const std::string& path,
                                   std::ostream& err) {
  const auto text = cli::slurp(path, err, kTool);
  if (!text.has_value()) {
    return std::nullopt;
  }
  std::string parse_error;
  auto root = json::parse(*text, &parse_error);
  if (!root.has_value()) {
    err << kTool << ": " << path << ": " << parse_error << "\n";
    return std::nullopt;
  }
  BenchDoc doc;
  doc.root = std::move(*root);
  const json::Value* schema = doc.root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "dfw-bench-obs-v1") {
    err << kTool << ": " << path << ": not a dfw-bench-obs-v1 document\n";
    return std::nullopt;
  }
  if (const json::Value* bench = doc.root.find("bench");
      bench != nullptr && bench->is_string()) {
    doc.bench = bench->string;
  }
  const json::Value* records = doc.root.find("records");
  if (records == nullptr || !records->is_array()) {
    err << kTool << ": " << path << ": missing records array\n";
    return std::nullopt;
  }
  for (std::size_t i = 0; i < records->array.size(); ++i) {
    const json::Value& r = records->array[i];
    BenchRecord record;
    const json::Value* name = r.find("name");
    const json::Value* wall = r.find("wall_ns");
    if (name == nullptr || !name->is_string() || wall == nullptr ||
        !wall->is_number()) {
      err << kTool << ": " << path << ": record " << i
          << ": needs a string name and numeric wall_ns\n";
      return std::nullopt;
    }
    record.name = name->string;
    record.wall_ns = static_cast<std::uint64_t>(wall->number);
    if (const json::Value* params = r.find("params");
        params != nullptr && params->is_object()) {
      for (const auto& [key, value] : params->object) {
        if (!value.is_number()) {
          err << kTool << ": " << path << ": record " << i << ": param '"
              << key << "' is not a number\n";
          return std::nullopt;
        }
        record.params.emplace_back(key,
                                   static_cast<std::uint64_t>(value.number));
      }
    }
    record.metrics = r.find("metrics");
    doc.records.push_back(std::move(record));
  }
  return doc;
}

/// Stable identity of one record: name plus the selected params, in
/// sorted-by-key order so emission order never splits a match.
std::string record_key(const BenchRecord& record,
                       const std::vector<std::string>& key_params) {
  std::vector<std::pair<std::string, std::uint64_t>> selected;
  for (const auto& [key, value] : record.params) {
    if (key_params.empty() ||
        std::find(key_params.begin(), key_params.end(), key) !=
            key_params.end()) {
      selected.emplace_back(key, value);
    }
  }
  std::sort(selected.begin(), selected.end());
  std::string out = record.name;
  for (const auto& [key, value] : selected) {
    out += ' ';
    out += key;
    out += '=';
    out += std::to_string(value);
  }
  return out;
}

/// The p-quantile of histogram `hist_name` inside a record's metrics
/// object; nullopt when the record has no such histogram.
std::optional<double> record_quantile(const BenchRecord& record,
                                      const std::string& hist_name, double q,
                                      std::ostream& err,
                                      const std::string& path) {
  if (record.metrics == nullptr) {
    return std::nullopt;
  }
  const json::Value* histograms = record.metrics->find("histograms");
  if (histograms == nullptr) {
    return std::nullopt;
  }
  const json::Value* hist = histograms->find(hist_name);
  if (hist == nullptr) {
    return std::nullopt;
  }
  std::string error;
  const auto snapshot = histogram_from_json(*hist, &error);
  if (!snapshot.has_value()) {
    err << kTool << ": " << path << ": record '" << record.name
        << "': histogram '" << hist_name << "': " << error << "\n";
    return std::nullopt;
  }
  return snapshot->quantile(q);
}

/// One compared value's outcome.
struct DiffResult {
  std::string key;
  std::string metric;  ///< "wall_ns" or "p<q> <hist>"
  double baseline = 0;
  double current = 0;
  double ratio = 1.0;
  bool ok = true;
};

DiffResult compare(const std::string& key, std::string metric,
                   double baseline, double current, double max_ratio,
                   double min_ratio) {
  DiffResult result;
  result.key = key;
  result.metric = std::move(metric);
  result.baseline = baseline;
  result.current = current;
  if (baseline <= 0.0) {
    // A zero baseline has no meaningful ratio: identical zeros pass,
    // anything appearing from nowhere is flagged.
    result.ratio = current <= 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
  } else {
    result.ratio = current / baseline;
  }
  result.ok = result.ratio <= max_ratio &&
              (min_ratio <= 0.0 || result.ratio >= min_ratio);
  return result;
}

std::string json_escaped(const std::string& s) {
  std::string out;
  json::escape(out, s);
  return out;
}

void write_report(std::ostream& file, const std::string& baseline_path,
                  const std::string& current_path, double max_ratio,
                  double min_ratio, const std::vector<DiffResult>& results,
                  const std::vector<std::string>& unmatched) {
  std::size_t breaches = 0;
  for (const DiffResult& r : results) {
    breaches += r.ok ? 0 : 1;
  }
  file << "{\n  \"schema\": \"dfw-bench-diff-v1\",\n  \"baseline\": \""
       << json_escaped(baseline_path) << "\",\n  \"current\": \""
       << json_escaped(current_path) << "\",\n  \"max_ratio\": " << max_ratio
       << ",\n  \"min_ratio\": " << min_ratio
       << ",\n  \"compared\": " << results.size()
       << ",\n  \"breaches\": " << breaches << ",\n  \"results\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const DiffResult& r = results[i];
    file << (i == 0 ? "\n" : ",\n") << "    {\"key\": \""
         << json_escaped(r.key) << "\", \"metric\": \""
         << json_escaped(r.metric) << "\", \"baseline\": " << r.baseline
         << ", \"current\": " << r.current << ", \"ratio\": " << r.ratio
         << ", \"ok\": " << (r.ok ? "true" : "false") << "}";
  }
  file << "\n  ],\n  \"unmatched\": [";
  for (std::size_t i = 0; i < unmatched.size(); ++i) {
    file << (i == 0 ? "\n" : ",\n") << "    \""
         << json_escaped(unmatched[i]) << "\"";
  }
  file << "\n  ]\n}\n";
}

std::optional<double> parse_double(const std::string& s) {
  try {
    std::size_t end = 0;
    const double value = std::stod(s, &end);
    if (end != s.size() || !std::isfinite(value)) {
      return std::nullopt;
    }
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

int run_bench_diff_cli(const std::vector<std::string>& args,
                       std::ostream& out, std::ostream& err) {
  double max_ratio = 2.0;
  double min_ratio = 0.0;
  double quantile = 0.99;
  std::vector<std::string> key_params;
  bool key_params_set = false;
  std::string select;
  std::string hist_name;
  std::string report_path;
  std::string validate_prom;
  std::string validate_jsonl;
  std::vector<std::string> positional;

  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      out << kUsage;
      return cli::kExitClean;
    }
    if (const auto v = cli::flag_value(arg, "--max-ratio=")) {
      const auto r = parse_double(*v);
      if (!r.has_value() || *r <= 0.0) {
        err << kTool << ": bad --max-ratio value '" << *v << "'\n";
        return cli::kExitUsage;
      }
      max_ratio = *r;
    } else if (const auto v = cli::flag_value(arg, "--min-ratio=")) {
      const auto r = parse_double(*v);
      if (!r.has_value() || *r < 0.0) {
        err << kTool << ": bad --min-ratio value '" << *v << "'\n";
        return cli::kExitUsage;
      }
      min_ratio = *r;
    } else if (const auto v = cli::flag_value(arg, "--quantile=")) {
      const auto q = parse_double(*v);
      if (!q.has_value() || *q <= 0.0 || *q > 1.0) {
        err << kTool << ": bad --quantile value '" << *v << "'\n";
        return cli::kExitUsage;
      }
      quantile = *q;
    } else if (const auto v = cli::flag_value(arg, "--key-params=")) {
      key_params = cli::split_csv(*v);
      key_params_set = true;
    } else if (const auto v = cli::flag_value(arg, "--select=")) {
      select = *v;
    } else if (const auto v = cli::flag_value(arg, "--hist=")) {
      hist_name = *v;
    } else if (const auto v = cli::flag_value(arg, "--report=")) {
      report_path = *v;
    } else if (const auto v = cli::flag_value(arg, "--validate-prom=")) {
      validate_prom = *v;
    } else if (const auto v = cli::flag_value(arg, "--validate-jsonl=")) {
      validate_jsonl = *v;
    } else if (arg.rfind("--", 0) == 0) {
      err << kTool << ": unknown option '" << arg << "'\n" << kUsage;
      return cli::kExitUsage;
    } else {
      positional.push_back(arg);
    }
  }

  bool findings = false;

  // Validator mode runs first; it composes with a diff when both are
  // requested (one CI step, one artifact check).
  if (!validate_prom.empty()) {
    const auto text = cli::slurp(validate_prom, err, kTool);
    if (!text.has_value()) {
      return cli::kExitUsage;
    }
    const PromValidation v = validate_prometheus(*text);
    if (v.ok) {
      out << "prom ok: " << validate_prom << " (" << v.families
          << " families, " << v.samples << " samples)\n";
    } else {
      out << "prom INVALID: " << validate_prom << ": " << v.error << "\n";
      findings = true;
    }
  }
  if (!validate_jsonl.empty()) {
    const auto text = cli::slurp(validate_jsonl, err, kTool);
    if (!text.has_value()) {
      return cli::kExitUsage;
    }
    const JsonlValidation v = validate_metrics_jsonl(*text);
    if (v.ok) {
      out << "jsonl ok: " << validate_jsonl << " (" << v.records
          << " records)\n";
    } else {
      out << "jsonl INVALID: " << validate_jsonl << ": " << v.error << "\n";
      findings = true;
    }
  }

  if (positional.empty() &&
      (!validate_prom.empty() || !validate_jsonl.empty())) {
    return findings ? cli::kExitFindings : cli::kExitClean;
  }
  if (positional.size() != 2) {
    err << kUsage;
    return cli::kExitUsage;
  }

  const auto baseline = load_bench(positional[0], err);
  const auto current = load_bench(positional[1], err);
  if (!baseline.has_value() || !current.has_value()) {
    return cli::kExitUsage;
  }

  // Index the current run by identity key; walk the baseline in order.
  std::map<std::string, const BenchRecord*> current_by_key;
  for (const BenchRecord& record : current->records) {
    if (!select.empty() && record.name.rfind(select, 0) != 0) {
      continue;
    }
    current_by_key[record_key(record, key_params)] = &record;
  }

  std::vector<DiffResult> results;
  std::vector<std::string> unmatched;
  std::size_t hist_pairs = 0;  // matched pairs that both carry hist_name
  for (const BenchRecord& record : baseline->records) {
    if (!select.empty() && record.name.rfind(select, 0) != 0) {
      continue;
    }
    const std::string key = record_key(record, key_params);
    const auto it = current_by_key.find(key);
    if (it == current_by_key.end()) {
      unmatched.push_back(key);
      continue;
    }
    const BenchRecord& other = *it->second;
    results.push_back(compare(key, "wall_ns",
                              static_cast<double>(record.wall_ns),
                              static_cast<double>(other.wall_ns), max_ratio,
                              min_ratio));
    if (!hist_name.empty()) {
      const auto base_q =
          record_quantile(record, hist_name, quantile, err, positional[0]);
      const auto cur_q =
          record_quantile(other, hist_name, quantile, err, positional[1]);
      if (base_q.has_value() && cur_q.has_value()) {
        std::ostringstream metric;
        metric << "p" << quantile * 100 << " " << hist_name;
        results.push_back(compare(key, metric.str(), *base_q, *cur_q,
                                  max_ratio, min_ratio));
        ++hist_pairs;
      } else if (base_q.has_value() || cur_q.has_value()) {
        // A histogram on one side only: a renamed or dropped metric,
        // which the gate cannot compare.
        unmatched.push_back(key + " [" + hist_name + " only in " +
                            (base_q.has_value() ? "baseline" : "current") +
                            "]");
      }
    }
    current_by_key.erase(it);
  }
  for (const auto& [key, record] : current_by_key) {
    unmatched.push_back(key);
  }

  if (results.empty()) {
    // Nothing compared is a broken invocation (wrong --select or
    // --key-params), not a clean pass — CI must not green-light it.
    err << kTool << ": no records matched between " << positional[0]
        << " and " << positional[1] << "\n";
    return cli::kExitUsage;
  }
  if (!hist_name.empty() && hist_pairs == 0) {
    // Likewise a histogram gate that compared nothing.
    err << kTool << ": no matched record carries histogram '" << hist_name
        << "' in both " << positional[0] << " and " << positional[1]
        << "\n";
    return cli::kExitUsage;
  }

  for (const DiffResult& r : results) {
    if (!r.ok) {
      findings = true;
    }
    out << (r.ok ? "ok    " : "BREACH") << " " << r.key << " [" << r.metric
        << "] " << r.baseline << " -> " << r.current << " (x" << r.ratio
        << ")\n";
  }
  for (const std::string& key : unmatched) {
    out << "unmatched " << key << "\n";
  }
  out << results.size() << " compared, "
      << (findings ? "thresholds breached" : "all within thresholds")
      << " (max x" << max_ratio;
  if (min_ratio > 0.0) {
    out << ", min x" << min_ratio;
  }
  out << ")\n";
  if (key_params_set && key_params.empty()) {
    out << "note: --key-params= empty — records matched by name only\n";
  }

  if (!report_path.empty()) {
    std::ofstream file(report_path, std::ios::binary);
    if (!file) {
      err << kTool << ": cannot write " << report_path << "\n";
      return cli::kExitUsage;
    }
    write_report(file, positional[0], positional[1], max_ratio, min_ratio,
                 results, unmatched);
  }

  return findings ? cli::kExitFindings : cli::kExitClean;
}

}  // namespace dfw::bench
