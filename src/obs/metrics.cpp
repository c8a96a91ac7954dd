#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "fdd/stats.hpp"
#include "obs/names.hpp"
#include "rt/executor.hpp"
#include "rt/fault.hpp"
#include "rt/govern.hpp"

namespace dfw {

Histogram::Histogram(std::uint32_t subbits)
    : subbits_(std::min(subbits, kMaxSubbits)),
      buckets_(new std::atomic<std::uint64_t>[num_buckets(subbits_)]()) {}

std::size_t Histogram::num_buckets(std::uint32_t subbits) {
  subbits = std::min(subbits, kMaxSubbits);
  // One zero bucket, 2^(s+1)-1 exact buckets for [1, 2^(s+1)), and 2^s
  // sub-buckets for each of the 63-s remaining octaves.
  return (std::size_t{65} - subbits) << subbits;
}

std::size_t Histogram::bucket_of(std::uint64_t value, std::uint32_t subbits) {
  const std::uint32_t s = std::min(subbits, kMaxSubbits);
  if (value == 0) {
    return 0;
  }
  const std::uint32_t width = std::bit_width(value);
  if (width <= s + 1) {
    return static_cast<std::size_t>(value);  // the exact linear region
  }
  // Octave [2^(width-1), 2^width), sub-bucket from the s bits after the
  // leading one.
  const std::uint64_t sub =
      (value >> (width - 1 - s)) & ((std::uint64_t{1} << s) - 1);
  return (std::size_t{1} << (s + 1)) +
         static_cast<std::size_t>(width - s - 2) * (std::size_t{1} << s) +
         static_cast<std::size_t>(sub);
}

std::uint64_t Histogram::bucket_lower_bound(std::size_t i,
                                            std::uint32_t subbits) {
  const std::uint32_t s = std::min(subbits, kMaxSubbits);
  if (i <= 1) {
    return 0;  // the zero bucket, and the v==1 bucket's legacy 0 label
  }
  const std::size_t linear = std::size_t{1} << (s + 1);
  if (i < linear) {
    return i;
  }
  const std::size_t j = i - linear;
  const std::size_t octave = j >> s;  // octaves above the linear region
  const std::uint64_t sub = j & ((std::uint64_t{1} << s) - 1);
  return ((std::uint64_t{1} << s) + sub) << (octave + 1);
}

std::uint64_t Histogram::bucket_next_bound(std::uint64_t lo,
                                           std::uint32_t subbits) {
  const std::uint32_t s = std::min(subbits, kMaxSubbits);
  if (lo < (std::uint64_t{1} << (s + 1))) {
    return lo + 1;  // zero/linear region: single-value buckets
  }
  const std::uint64_t step = std::uint64_t{1} << (std::bit_width(lo) - 1 - s);
  const std::uint64_t next = lo + step;
  return next < lo ? ~std::uint64_t{0} : next;  // top bucket saturates
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // 1-based rank of the target observation under the nearest-rank rule.
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (const auto& [lo, n] : buckets) {
    if (seen + n >= target) {
      const std::uint64_t hi = Histogram::bucket_next_bound(lo, subbits);
      // Linear interpolation inside the bucket: rank 1 of n maps to the
      // lower bound, rank n to just below the upper.
      const double within = n <= 1 ? 0.0
                                   : static_cast<double>(target - seen - 1) /
                                         static_cast<double>(n - 1);
      const double width = static_cast<double>(hi - lo);
      return static_cast<double>(lo) +
             within * std::max(0.0, width - 1.0);
    }
    seen += n;
  }
  // Counts and buckets disagree (hand-built snapshot): report the top.
  return buckets.empty() ? 0.0
                         : static_cast<double>(buckets.back().first);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (subbits != other.subbits && count != 0 && other.count != 0) {
    throw std::logic_error(
        "HistogramSnapshot::merge: mismatched bucket resolutions");
  }
  if (count == 0) {
    subbits = other.subbits;
  }
  count += other.count;
  sum += other.sum;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  std::size_t a = 0;
  std::size_t b = 0;
  // Both lists are ordered by bucket index; equal bounds are the same
  // bucket except the legacy (0, n) pair, where the zero bucket precedes
  // the v==1 bucket on both sides — summing positionally keeps that shape.
  while (a < buckets.size() || b < other.buckets.size()) {
    if (b == other.buckets.size() ||
        (a < buckets.size() && buckets[a].first < other.buckets[b].first)) {
      merged.push_back(buckets[a++]);
    } else if (a == buckets.size() ||
               other.buckets[b].first < buckets[a].first) {
      merged.push_back(other.buckets[b++]);
    } else {
      merged.emplace_back(buckets[a].first,
                          buckets[a].second + other.buckets[b].second);
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
}

MetricsRegistry::MetricsRegistry(std::uint32_t histogram_subbits)
    : subbits_(std::min(histogram_subbits, Histogram::kMaxSubbits)) {}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(subbits_))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.count = histogram->count();
    h.sum = histogram->sum();
    h.subbits = histogram->subbits();
    const std::size_t buckets = Histogram::num_buckets(h.subbits);
    for (std::size_t i = 0; i < buckets; ++i) {
      const std::uint64_t n = histogram->bucket_count(i);
      if (n != 0) {
        h.buckets.emplace_back(Histogram::bucket_lower_bound(i, h.subbits),
                               n);
      }
    }
    snap.histograms.emplace(name, std::move(h));
  }
  return snap;
}

namespace {

void append_json_key(std::string& out, const std::string& name) {
  out += '"';
  for (const char c : name) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += "\": ";
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "" : ", ";
    first = false;
    append_json_key(out, name);
    out += std::to_string(value);
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "" : ", ";
    first = false;
    append_json_key(out, name);
    out += "{\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + std::to_string(h.sum) + ", \"buckets\": [";
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
    out += "]}";
  }
  out += "}}";
  return out;
}

void absorb(MetricsRegistry& registry, const ExecutorMetrics& metrics) {
  registry.counter("rt.executor.tasks_run").add(metrics.tasks_run);
  registry.counter("rt.executor.steals").add(metrics.steals);
  registry.counter("rt.executor.batches").add(metrics.batches);
  registry.counter("rt.executor.busy_ns")
      .add(static_cast<std::uint64_t>(metrics.busy_ms * 1e6));
}

void absorb(MetricsRegistry& registry, const ArenaStats& stats) {
  registry.counter("fdd.arena.unique_nodes").add(stats.unique_nodes);
  registry.counter("fdd.arena.unique_labels").add(stats.unique_labels);
  registry.counter("fdd.arena.node_queries").add(stats.node_queries);
  registry.counter("fdd.arena.node_hits").add(stats.node_hits);
  registry.counter("fdd.arena.label_queries").add(stats.label_queries);
  registry.counter("fdd.arena.label_hits").add(stats.label_hits);
  registry.counter("fdd.arena.append_cache_hits").add(stats.append_cache_hits);
  registry.counter("fdd.arena.append_cache_misses")
      .add(stats.append_cache_misses);
  registry.counter("fdd.arena.overlay_cache_hits")
      .add(stats.overlay_cache_hits);
  registry.counter("fdd.arena.overlay_cache_misses")
      .add(stats.overlay_cache_misses);
}

void absorb(MetricsRegistry& registry, const RunContext& context) {
  registry.counter("rt.govern.nodes_charged").add(context.nodes_charged());
  registry.counter("rt.govern.label_bytes_charged")
      .add(context.label_bytes_charged());
  registry.counter("rt.govern.rules_charged").add(context.rules_charged());
  registry.counter("rt.govern.aborted").add(context.aborted() ? 1 : 0);
}

namespace {

std::string fault_site_counter(const std::string& site, const char* leaf) {
  std::string name = names::kFaultSitePrefix;
  name += site;
  name += leaf;
  return name;
}

}  // namespace

void absorb(MetricsRegistry& registry, const FaultPlan& plan) {
  const std::vector<FaultPlan::SiteStats> stats = plan.stats();
  if (stats.empty()) {
    return;  // an unarmed plan registers no keys — snapshot bytes unchanged
  }
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
  for (const FaultPlan::SiteStats& s : stats) {
    registry.counter(fault_site_counter(s.site, ".hits")).add(s.hits);
    registry.counter(fault_site_counter(s.site, ".fires")).add(s.fires);
    hits += s.hits;
    fires += s.fires;
  }
  registry.counter(names::kFaultTotalHits).add(hits);
  registry.counter(names::kFaultTotalFires).add(fires);
}

void overlay(MetricsSnapshot& snapshot, const FaultPlan& plan) {
  const std::vector<FaultPlan::SiteStats> stats = plan.stats();
  if (stats.empty()) {
    return;  // an unarmed plan adds no keys — snapshot bytes unchanged
  }
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
  for (const FaultPlan::SiteStats& s : stats) {
    snapshot.counters[fault_site_counter(s.site, ".hits")] = s.hits;
    snapshot.counters[fault_site_counter(s.site, ".fires")] = s.fires;
    hits += s.hits;
    fires += s.fires;
  }
  snapshot.counters[names::kFaultTotalHits] = hits;
  snapshot.counters[names::kFaultTotalFires] = fires;
}

}  // namespace dfw
