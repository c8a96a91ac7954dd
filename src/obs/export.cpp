#include "obs/export.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace dfw {
namespace {

bool legal_name_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool legal_name_char(char c) {
  return legal_name_start(c) ||
         std::isdigit(static_cast<unsigned char>(c));
}

/// Dotted registry name -> legal Prometheus family name.
std::string sanitize(std::string_view prefix, std::string_view name) {
  std::string out(prefix);
  for (const char c : name) {
    out += legal_name_char(c) ? c : '_';
  }
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The cumulative (inclusive upper bound, count) series of one histogram.
/// Adjacent snapshot buckets can share an upper bound — the legacy zero
/// and v==1 buckets both render as le=0 — so equal bounds coalesce into
/// the later (larger) cumulative sample.
std::vector<std::pair<std::uint64_t, std::uint64_t>> cumulative_buckets(
    const HistogramSnapshot& h) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  std::uint64_t cum = 0;
  for (const auto& [lo, n] : h.buckets) {
    cum += n;
    const std::uint64_t le = Histogram::bucket_next_bound(lo, h.subbits) - 1;
    if (!out.empty() && out.back().first == le) {
      out.back().second = cum;
    } else {
      out.emplace_back(le, cum);
    }
  }
  return out;
}

}  // namespace

std::string MetricsExporter::prometheus(
    const MetricsSnapshot& snapshot) const {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string family = sanitize(kPrometheusPrefix, name);
    out += "# TYPE " + family + " counter\n";
    out += family + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string family = sanitize(kPrometheusPrefix, name);
    out += "# TYPE " + family + " histogram\n";
    for (const auto& [le, cum] : cumulative_buckets(h)) {
      out += family + "_bucket{le=\"" + std::to_string(le) + "\"} " +
             std::to_string(cum) + "\n";
    }
    out += family + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += family + "_sum " + std::to_string(h.sum) + "\n";
    out += family + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string MetricsExporter::jsonl(const MetricsSnapshot& snapshot,
                                   std::uint64_t seq,
                                   std::uint64_t uptime_ms) const {
  std::string out = "{\"schema\": \"dfw-metrics-v1\", \"seq\": ";
  out += std::to_string(seq);
  out += ", \"uptime_ms\": " + std::to_string(uptime_ms);
  out += ", \"source\": \"";
  json::escape(out, kSource);
  out += "\", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "" : ", ";
    first = false;
    out += "\"";
    json::escape(out, name);
    out += "\": " + std::to_string(value);
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += first ? "" : ", ";
    first = false;
    out += "\"";
    json::escape(out, name);
    out += "\": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + std::to_string(h.sum) +
           ", \"subbits\": " + std::to_string(h.subbits) + ", \"buckets\": [";
    bool first_bucket = true;
    for (const auto& [lo, n] : h.buckets) {
      out += first_bucket ? "" : ", ";
      first_bucket = false;
      out += "[";
      out += std::to_string(lo);
      out += ", ";
      out += std::to_string(n);
      out += "]";
    }
    out += "], \"p50\": " + format_double(h.quantile(0.50)) +
           ", \"p90\": " + format_double(h.quantile(0.90)) +
           ", \"p99\": " + format_double(h.quantile(0.99)) +
           ", \"p999\": " + format_double(h.quantile(0.999)) + "}";
  }
  out += "}}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Prometheus validation

namespace {

struct PromFail {
  std::size_t line;
  std::string message;
};

/// One histogram family's series under assembly.
struct HistSeries {
  std::vector<std::pair<double, std::uint64_t>> buckets;  ///< (le, cum)
  bool has_inf = false;
  std::uint64_t inf_value = 0;
  bool has_sum = false;
  bool has_count = false;
  std::uint64_t count_value = 0;
};

bool parse_number(std::string_view s, double& out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  const std::string copy(s);
  out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size();
}

}  // namespace

PromValidation validate_prometheus(std::string_view text) {
  PromValidation v;
  std::map<std::string, HistSeries> histograms;
  std::map<std::string, std::uint64_t> seen_samples;  // name+labels -> count
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& message) {
    v.ok = false;
    v.error = "line " + std::to_string(line_no) + ": " + message;
    return v;
  };

  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      // Only "# TYPE name type" is structural; HELP and comments pass.
      if (line.rfind("# TYPE ", 0) != 0) {
        continue;
      }
      std::string_view rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      if (space == std::string_view::npos) {
        return fail("TYPE line without a type");
      }
      const std::string name(rest.substr(0, space));
      const std::string type(rest.substr(space + 1));
      if (name.empty() || !legal_name_start(name[0]) ||
          !std::all_of(name.begin(), name.end(), legal_name_char)) {
        return fail("illegal family name '" + name + "'");
      }
      if (type != "counter" && type != "gauge" && type != "histogram" &&
          type != "summary" && type != "untyped") {
        return fail("unknown family type '" + type + "'");
      }
      if (!v.family_types.emplace(name, type).second) {
        return fail("duplicate TYPE for family '" + name + "'");
      }
      ++v.families;
      if (type == "histogram") {
        histograms.emplace(name, HistSeries{});
      }
      continue;
    }

    // Sample: name[{labels}] value
    std::size_t name_end = 0;
    while (name_end < line.size() && legal_name_char(line[name_end])) {
      ++name_end;
    }
    if (name_end == 0 || !legal_name_start(line[0])) {
      return fail("sample with an illegal metric name");
    }
    const std::string name(line.substr(0, name_end));
    std::string_view after = line.substr(name_end);
    std::string labels;
    std::string le_value;
    if (!after.empty() && after[0] == '{') {
      const std::size_t close = after.find('}');
      if (close == std::string_view::npos) {
        return fail("unterminated label set");
      }
      labels = std::string(after.substr(0, close + 1));
      // The only label this exporter emits; parse it when present.
      const std::string_view body = after.substr(1, close - 1);
      if (body.rfind("le=\"", 0) == 0 && body.size() >= 5 &&
          body.back() == '"') {
        le_value = std::string(body.substr(4, body.size() - 5));
      } else if (!body.empty()) {
        return fail("unsupported label set '" + labels + "'");
      }
      after = after.substr(close + 1);
    }
    if (after.empty() || after[0] != ' ') {
      return fail("sample without a value");
    }
    double value = 0;
    if (std::string_view sv = after.substr(1); !parse_number(sv, value)) {
      return fail("unparsable sample value '" + std::string(sv) + "'");
    }
    if (++seen_samples[name + labels] > 1) {
      return fail("duplicate sample '" + name + labels + "'");
    }
    ++v.samples;

    // Attribute the sample to a declared family.
    std::string family = name;
    std::string suffix;
    if (v.family_types.find(family) == v.family_types.end()) {
      for (const char* s : {"_bucket", "_sum", "_count"}) {
        const std::string_view tail(s);
        if (name.size() > tail.size() &&
            name.compare(name.size() - tail.size(), tail.size(), s) == 0) {
          const std::string base = name.substr(0, name.size() - tail.size());
          if (v.family_types.count(base) != 0) {
            family = base;
            suffix = s;
            break;
          }
        }
      }
    }
    const auto type_it = v.family_types.find(family);
    if (type_it == v.family_types.end()) {
      return fail("sample '" + name + "' precedes any TYPE declaration");
    }
    if (type_it->second == "histogram") {
      if (suffix.empty()) {
        return fail("bare sample for histogram family '" + family + "'");
      }
      HistSeries& series = histograms[family];
      if (value < 0 || (suffix != "_sum" && value != std::floor(value))) {
        return fail("non-integer histogram sample for '" + name + "'");
      }
      if (suffix == "_bucket") {
        if (le_value.empty()) {
          return fail("_bucket sample without an le label");
        }
        if (le_value == "+Inf") {
          series.has_inf = true;
          series.inf_value = static_cast<std::uint64_t>(value);
        } else {
          double le = 0;
          if (!parse_number(le_value, le)) {
            return fail("unparsable le '" + le_value + "'");
          }
          series.buckets.emplace_back(le,
                                      static_cast<std::uint64_t>(value));
        }
      } else if (suffix == "_sum") {
        if (series.has_sum) {
          return fail("duplicate _sum for '" + family + "'");
        }
        series.has_sum = true;
      } else {
        if (series.has_count) {
          return fail("duplicate _count for '" + family + "'");
        }
        series.has_count = true;
        series.count_value = static_cast<std::uint64_t>(value);
      }
    } else if (!suffix.empty() || !le_value.empty()) {
      return fail("histogram-style sample for " + type_it->second +
                  " family '" + family + "'");
    } else if (type_it->second == "counter" && value < 0) {
      return fail("negative counter '" + name + "'");
    }
  }

  // Whole-series checks per histogram family.
  for (auto& [family, series] : histograms) {
    line_no = 0;  // series errors are not line-local
    std::vector<std::pair<double, std::uint64_t>> buckets = series.buckets;
    std::sort(buckets.begin(), buckets.end());
    std::uint64_t prev = 0;
    for (const auto& [le, cum] : buckets) {
      if (cum < prev) {
        return fail("family '" + family +
                    "': cumulative bucket counts decrease");
      }
      prev = cum;
    }
    if (!series.has_inf) {
      return fail("family '" + family + "': no +Inf bucket");
    }
    if (prev > series.inf_value) {
      return fail("family '" + family + "': +Inf below a finite bucket");
    }
    if (!series.has_sum || !series.has_count) {
      return fail("family '" + family + "': missing _sum or _count");
    }
    if (series.count_value != series.inf_value) {
      return fail("family '" + family + "': _count != +Inf bucket");
    }
  }

  v.ok = true;
  return v;
}

// ---------------------------------------------------------------------------
// JSONL validation and parse-back

namespace {

bool number_field(const json::Value& object, const char* key, double& out) {
  const json::Value* v = object.find(key);
  if (v == nullptr || !v->is_number()) {
    return false;
  }
  out = v->number;
  return true;
}

}  // namespace

std::optional<HistogramSnapshot> histogram_from_json(const json::Value& value,
                                                     std::string* error) {
  const auto fail = [&](const char* message) {
    if (error != nullptr) {
      *error = message;
    }
    return std::nullopt;
  };
  if (!value.is_object()) {
    return fail("histogram is not an object");
  }
  double count = 0;
  double sum = 0;
  if (!number_field(value, "count", count) ||
      !number_field(value, "sum", sum)) {
    return fail("histogram without numeric count/sum");
  }
  HistogramSnapshot h;
  h.count = static_cast<std::uint64_t>(count);
  h.sum = static_cast<std::uint64_t>(sum);
  if (const json::Value* subbits = value.find("subbits")) {
    if (!subbits->is_number() || subbits->number < 0 ||
        subbits->number > Histogram::kMaxSubbits) {
      return fail("histogram with an out-of-range subbits");
    }
    h.subbits = static_cast<std::uint32_t>(subbits->number);
  }
  const json::Value* buckets = value.find("buckets");
  if (buckets == nullptr || !buckets->is_array()) {
    return fail("histogram without a buckets array");
  }
  std::uint64_t total = 0;
  std::uint64_t prev_lo = 0;
  for (const json::Value& pair : buckets->array) {
    if (!pair.is_array() || pair.array.size() != 2 ||
        !pair.array[0].is_number() || !pair.array[1].is_number()) {
      return fail("histogram bucket is not a [bound, count] pair");
    }
    const std::uint64_t lo =
        static_cast<std::uint64_t>(pair.array[0].number);
    const std::uint64_t n = static_cast<std::uint64_t>(pair.array[1].number);
    if (!h.buckets.empty() && lo < prev_lo) {
      return fail("histogram bucket bounds decrease");
    }
    prev_lo = lo;
    total += n;
    h.buckets.emplace_back(lo, n);
  }
  if (total != h.count) {
    return fail("histogram bucket counts do not sum to count");
  }
  return h;
}

std::optional<MetricsSnapshot> metrics_from_json(const json::Value& value,
                                                 std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return std::nullopt;
  };
  if (!value.is_object()) {
    return fail("metrics is not an object");
  }
  MetricsSnapshot snap;
  const json::Value* counters = value.find("counters");
  const json::Value* histograms = value.find("histograms");
  if (counters == nullptr || !counters->is_object() ||
      histograms == nullptr || !histograms->is_object()) {
    return fail("metrics without counters/histograms objects");
  }
  for (const auto& [name, counter] : counters->object) {
    if (!counter.is_number() || counter.number < 0) {
      return fail("counter '" + name + "' is not a non-negative number");
    }
    snap.counters[name] = static_cast<std::uint64_t>(counter.number);
  }
  for (const auto& [name, histogram] : histograms->object) {
    std::string sub_error;
    const auto h = histogram_from_json(histogram, &sub_error);
    if (!h.has_value()) {
      return fail("histogram '" + name + "': " + sub_error);
    }
    snap.histograms[name] = *h;
  }
  return snap;
}

JsonlValidation validate_metrics_jsonl(std::string_view text) {
  JsonlValidation v;
  const auto fail = [&](const std::string& message) {
    v.ok = false;
    v.error = "record " + std::to_string(v.records + 1) + ": " + message;
    return v;
  };

  bool have_prev_seq = false;
  double prev_seq = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (line.empty()) {
      continue;
    }
    std::string parse_error;
    const auto doc = json::parse(line, &parse_error);
    if (!doc.has_value()) {
      return fail("not JSON (" + parse_error + ")");
    }
    if (!doc->is_object()) {
      return fail("record is not an object");
    }
    const json::Value* schema = doc->find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->string != "dfw-metrics-v1") {
      return fail("missing dfw-metrics-v1 schema marker");
    }
    double seq = 0;
    double uptime = 0;
    if (!number_field(*doc, "seq", seq) ||
        !number_field(*doc, "uptime_ms", uptime)) {
      return fail("missing numeric seq/uptime_ms");
    }
    if (have_prev_seq && seq <= prev_seq) {
      return fail("seq does not increase");
    }
    have_prev_seq = true;
    prev_seq = seq;
    std::string error;
    if (!metrics_from_json(*doc, &error).has_value()) {
      return fail(error);
    }
    const json::Value* histograms = doc->find("histograms");
    for (const auto& [name, histogram] : histograms->object) {
      double p50 = 0;
      double p90 = 0;
      double p99 = 0;
      double p999 = 0;
      const bool has_quantiles = number_field(histogram, "p50", p50) &&
                                 number_field(histogram, "p90", p90) &&
                                 number_field(histogram, "p99", p99) &&
                                 number_field(histogram, "p999", p999);
      if (has_quantiles && (p50 > p90 || p90 > p99 || p99 > p999)) {
        return fail("histogram '" + name + "': quantiles out of order");
      }
    }
    ++v.records;
  }
  if (v.records == 0) {
    return fail("no records");
  }
  v.ok = true;
  return v;
}

}  // namespace dfw
