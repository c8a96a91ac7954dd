// Metrics export: the continuous-telemetry face of the obs layer.
//
// A MetricsSnapshot is an in-process value; a running daemon needs it on
// the wire, repeatedly, in formats downstream tooling already speaks. The
// MetricsExporter renders any snapshot two ways:
//
//   * Prometheus text exposition format — "# TYPE" families plus samples,
//     histograms as cumulative _bucket{le="..."}/_sum/_count series — the
//     scrape format, for pull-based collection of a point-in-time view.
//   * JSONL time-series records ("dfw-metrics-v1") — one self-contained
//     JSON object per line with a sequence number, uptime, the full
//     counter/histogram state, and precomputed p50/p90/p99/p999 per
//     histogram — the append-only format, for trending a daemon's life
//     across ticks (the serve reporter's --metrics-out file).
//
// Both formats get an in-repo structural validator, the same discipline as
// the Chrome-trace (obs/trace.hpp) and SARIF (lint/sarif.hpp) validators:
// CI never uploads an export the repo cannot itself vet. The JSONL side
// also parses back — histogram_from_json / metrics_from_json — which is
// what tools/dfw_bench_diff uses to recompute quantiles offline from
// dfw-bench-obs-v1 records.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace dfw::json {
struct Value;
}  // namespace dfw::json

namespace dfw {

class MetricsExporter {
 public:
  /// Prepended to every Prometheus family name (after sanitization);
  /// dotted registry names become e.g. dfw_serve_batch_ns.
  static constexpr std::string_view kPrometheusPrefix = "dfw_";
  /// The "source" field of every JSONL record.
  static constexpr std::string_view kSource = "dfw";

  /// The snapshot as a Prometheus text-exposition document: one
  /// "# TYPE name counter" + sample per counter, one histogram family
  /// (cumulative buckets keyed by inclusive integer upper bounds, then
  /// "+Inf", _sum, _count) per histogram. Deterministic: snapshot order,
  /// no timestamps.
  std::string prometheus(const MetricsSnapshot& snapshot) const;

  /// The snapshot as one dfw-metrics-v1 JSONL record (newline
  /// terminated): schema, seq, uptime_ms, source, counters, histograms —
  /// each histogram with its bucket resolution and p50/p90/p99/p999.
  /// Appending successive calls with increasing `seq` builds a valid
  /// time-series file.
  std::string jsonl(const MetricsSnapshot& snapshot, std::uint64_t seq,
                    std::uint64_t uptime_ms) const;
};

/// Result of validating a Prometheus text-exposition document.
struct PromValidation {
  bool ok = false;
  std::string error;         ///< first failure, with a line number; empty ok
  std::size_t families = 0;  ///< "# TYPE" declarations seen
  std::size_t samples = 0;   ///< sample lines seen
  std::map<std::string, std::string> family_types;  ///< name -> type
};

/// Structurally validates Prometheus text exposition: TYPE declarations
/// precede their samples, names are legal, values are numbers, histogram
/// families carry monotone cumulative buckets ending in an "+Inf" bucket
/// that equals _count, plus exactly one _sum and _count, and no sample is
/// duplicated. Strict by design — it vets this repo's exporter output (and
/// CI scrapes), not arbitrary exposition in the wild.
PromValidation validate_prometheus(std::string_view text);

/// Result of validating a dfw-metrics-v1 JSONL document.
struct JsonlValidation {
  bool ok = false;
  std::string error;        ///< first failure, with a record number
  std::size_t records = 0;  ///< lines that parsed as records
};

/// Structurally validates a dfw-metrics-v1 JSONL file: every non-empty
/// line is a JSON object with the schema marker, a strictly increasing
/// seq, numeric counters, and histograms whose bucket counts sum to their
/// count, whose bounds are non-decreasing, and whose quantile fields are
/// ordered p50 <= p90 <= p99 <= p999.
JsonlValidation validate_metrics_jsonl(std::string_view text);

/// Rebuilds a HistogramSnapshot from its JSON object form — either the
/// MetricsSnapshot::to_json() shape {"count","sum","buckets"} (subbits
/// defaults to 0) or the richer JSONL shape with "subbits". Returns
/// nullopt and fills `error` (when non-null) on a malformed object.
std::optional<HistogramSnapshot> histogram_from_json(const json::Value& value,
                                                     std::string* error);

/// Rebuilds a MetricsSnapshot from a {"counters":..,"histograms":..}
/// JSON object — the `metrics` member of dfw-bench-obs-v1 records and the
/// body of dfw-metrics-v1 JSONL lines. Extra per-histogram fields
/// (quantiles) are ignored; they are derived data.
std::optional<MetricsSnapshot> metrics_from_json(const json::Value& value,
                                                 std::string* error);

}  // namespace dfw
