// Workload "fleet": repeated fleet::run_fleet audits of one synthetic
// fleet (make_fleet: 100 native sites x 60 rules, from 10 base policies,
// each site drifted by the seed) with the library-default lint pass set,
// redundancy included, on an Executor of 2 threads. One operation is one
// run_fleet call on a chunk of the fleet: ten sites, one from each base,
// so every chunk costs about the same and a run holds enough of them for
// a median. The chunks are audited in turn until the run's time is up.
//
// Traced, each run_fleet audit is followed by the same chunk's per-device
// pipeline called from the benchmark (parse, simplify, lint) under spans,
// fanned out on the same executor the way run_fleet does it. The first
// traced audit of each chunk is followed by direct calls to
// redundant_rules, dead_rules and find_anomalies on every simplified
// site, also on the pool.

#include <cstdio>
#include <algorithm>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/anomaly.hpp"
#include "fleet/fleet.hpp"
#include "fw/format.hpp"
#include "fw/parser.hpp"
#include "gen/redundancy.hpp"
#include "lint/engine.hpp"
#include "rt/executor.hpp"
#include "simplify/simplify.hpp"
#include "synth/synth.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dfw::Policy;
namespace fleet = dfw::fleet;

constexpr std::size_t kSites = 100;
constexpr std::size_t kRulesPerSite = 60;
// The fleet is kTemplates make_fleet groups of kSites / kTemplates sites,
// each derived from its own base policy.
constexpr std::size_t kTemplates = 10;
// Chunk c holds site c of every group.
constexpr std::size_t kChunks = kSites / kTemplates;
constexpr std::uint64_t kBaseSeed = 2004;
constexpr double kDriftPercent = 2;
constexpr std::size_t kThreads = 2;
// Set-up: executor start plus an audit of a small fleet, before every
// kSetupEvery-th operation, so its median sees the whole run's machine.
constexpr std::size_t kWarmupSites = 4;
constexpr std::uint64_t kWarmupSeed = 20040628;
constexpr std::size_t kSetupEvery = 3;
// A run audits at least this many chunks after its first, so the median
// has ten samples beyond it, however slow the machine.
constexpr std::size_t kMinAudits = 21;

// Group t is make_fleet's sites from base seed kBaseSeed + t, the same for
// every run seed; `seed` then drifts each site by a kDriftPercent
// perturbation, as a re-audit after a round of edits would see it.
// README.md says why the bases stay fixed.
std::vector<fleet::FleetSource> make_sources(std::uint64_t seed,
                                             std::size_t sites,
                                             std::size_t templates) {
  dfw::Rng rng(seed);
  std::vector<Policy> policies;
  for (std::size_t t = 0; t < templates; ++t) {
    dfw::FleetSynthConfig config;
    config.sites = sites / templates;
    config.base.num_rules = kRulesPerSite;
    config.seed = kBaseSeed + t;
    for (const Policy& site : dfw::make_fleet(config)) {
      policies.push_back(dfw::perturb_policy(site, kDriftPercent, rng));
    }
  }
  std::vector<fleet::FleetSource> sources;
  char name[32];
  for (std::size_t i = 0; i < policies.size(); ++i) {
    std::snprintf(name, sizeof name, "site%04zu.fw", i);
    fleet::FleetSource source;
    source.item.format = fleet::DeviceFormat::kNative;
    source.item.path = name;
    source.item.name = name;
    source.text = dfw::format_policy(policies[i], dfw::default_decisions());
    sources.push_back(std::move(source));
  }
  return sources;
}

bool analysed(const fleet::DeviceReport& dev) {
  return dev.status == fleet::DeviceStatus::kOk ||
         dev.status == fleet::DeviceStatus::kFindings;
}

// What one device's audit produced, in a form both the run_fleet report
// and the traced decomposition yield.
struct DeviceResult {
  bool ok = false;
  std::size_t rules_before = 0;
  std::size_t rules_after = 0;
  std::size_t findings = 0;

  friend bool operator==(const DeviceResult&, const DeviceResult&) = default;
};

std::vector<DeviceResult> results_of(const fleet::FleetReport& report) {
  std::vector<DeviceResult> results;
  for (const fleet::DeviceReport& dev : report.devices) {
    results.push_back({analysed(dev), dev.simplify.rules_before,
                       dev.simplify.rules_after, dev.diagnostics.size()});
  }
  return results;
}

// The chunks of the fleet: chunk c is site c of every make_fleet group.
std::vector<std::vector<fleet::FleetSource>> make_chunks(
    const std::vector<fleet::FleetSource>& sources) {
  std::vector<std::vector<fleet::FleetSource>> chunks(kChunks);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    chunks[i % kChunks].push_back(sources[i]);
  }
  return chunks;
}

// What one traced audit measured beyond its ledger.
struct TracedAudit {
  double wall_ms = 0;
  // The most any one thread spent in parse + simplify + lint: the audit's
  // critical path as the layer spans see it.
  double busiest_thread_layers_ms = 0;
};

// The per-device pipeline of run_fleet, called from here under spans.
// Fills `results`, `simplified`, the ledger and the set of threads that
// ran devices.
TracedAudit traced_audit(const std::vector<fleet::FleetSource>& sources,
                         dfw::Executor& executor, Ledger& ledger,
                         std::vector<DeviceResult>& results,
                         std::vector<std::optional<Policy>>& simplified,
                         std::set<std::thread::id>& threads) {
  const std::size_t n = sources.size();
  results.assign(n, {});
  simplified.assign(n, std::nullopt);
  std::mutex mu;
  std::map<std::thread::id, double> layers_ms;
  const auto start = Clock::now();
  const dfw::lint::LintEngine engine;
  const dfw::Schema schema = dfw::five_tuple_schema();
  executor.parallel_for(n, [&](std::size_t i) {
    Ledger local;
    span(&local, "fleet.device", [&] {
      Policy policy = span(&local, "fw.parse", [&] {
        return dfw::parse_policy(schema, dfw::default_decisions(),
                                 sources[i].text);
      });
      dfw::SimplifyOutcome outcome = span(&local, "simplify.simplify", [&] {
        return dfw::simplify_policy(policy);
      });
      dfw::lint::LintInput input;
      input.policy = &outcome.policy;
      input.decisions = &dfw::default_decisions();
      input.source_name = sources[i].item.path;
      const dfw::lint::LintReport lint = span(&local, "lint.run", [&] {
        return engine.run(input, dfw::lint::LintOptions{});
      });
      results[i] = {outcome.report.complete && lint.complete,
                    outcome.report.rules_before, outcome.report.rules_after,
                    lint.diagnostics.size()};
      simplified[i] = std::move(outcome.policy);
    });
    const std::lock_guard<std::mutex> lock(mu);
    ledger.merge(local);
    threads.insert(std::this_thread::get_id());
    layers_ms[std::this_thread::get_id()] +=
        local.wall_ms({"fw.parse", "simplify.simplify", "lint.run"});
  });
  TracedAudit audit;
  audit.wall_ms = ms_since(start);
  for (const auto& [thread, ms] : layers_ms) {
    audit.busiest_thread_layers_ms =
        std::max(audit.busiest_thread_layers_ms, ms);
  }
  return audit;
}

// Direct calls into the analyses lint runs, on each simplified site.
void probe_analyses(const std::vector<std::optional<Policy>>& simplified,
                    dfw::Executor& executor, Ledger& ledger) {
  std::mutex mu;
  executor.parallel_for(simplified.size(), [&](std::size_t i) {
    if (!simplified[i].has_value() || simplified[i]->size() < 2 ||
        !simplified[i]->last_rule_is_catch_all()) {
      return;
    }
    const Policy& policy = *simplified[i];
    Ledger local;
    span(&local, "gen.redundant_rules",
         [&] { return dfw::redundant_rules(policy); });
    span(&local, "analysis.dead_rules",
         [&] { return dfw::dead_rules(policy); });
    span(&local, "analysis.find_anomalies",
         [&] { return dfw::find_anomalies(policy); });
    const std::lock_guard<std::mutex> lock(mu);
    ledger.merge(local);
  });
}

}  // namespace

Outcome run_fleet(const RunConfig& config) {
  Outcome out;
  const std::vector<std::vector<fleet::FleetSource>> chunks =
      make_chunks(make_sources(config.seed, kSites, kTemplates));
  const std::vector<fleet::FleetSource> warmup =
      make_sources(kWarmupSeed, kWarmupSites, 1);

  dfw::Executor executor(kThreads);
  fleet::FleetOptions options;
  options.run.executor = &executor;

  std::vector<double> setup_s;
  // The run's first audit pays for growing the heap and is kept out of
  // the figures (it is still checked).
  double cold_audit_ms = 0;
  std::vector<double> audit_ms;
  std::vector<std::optional<std::size_t>> reference_hash(kChunks);
  std::vector<std::vector<DeviceResult>> reference(kChunks);
  std::size_t rules_before = 0;
  std::size_t rules_after = 0;
  std::size_t findings = 0;
  // Traced only.
  Ledger ledger;
  std::set<std::thread::id> threads;
  std::vector<double> traced_ms;
  double paired_untraced_ms = 0;
  double busiest_thread_layers_ms = 0;
  double device_ms = 0;
  const auto start = Clock::now();
  for (std::size_t op = 0;
       op <= kMinAudits || ms_since(start) < config.seconds * 1e3; ++op) {
    if (op % kSetupEvery == 0) {
      const auto t_setup = Clock::now();
      {
        dfw::Executor fresh(kThreads);
        fleet::FleetOptions fresh_options;
        fresh_options.run.executor = &fresh;
        (void)fleet::run_fleet(warmup, fresh_options);
      }
      setup_s.push_back(ms_since(t_setup) / 1e3);
    }
    const std::size_t c = op % kChunks;
    const auto t0 = Clock::now();
    const fleet::FleetReport report = fleet::run_fleet(chunks[c], options);
    const double ms = ms_since(t0);
    if (op == 0) {
      cold_audit_ms = ms;
    } else {
      audit_ms.push_back(ms);
    }

    out.attempted += report.devices.size();
    for (const fleet::DeviceReport& dev : report.devices) {
      if (!analysed(dev)) {
        ++out.failed;
      }
      if (dev.simplify.proof != dfw::ProofStatus::kProven) {
        out.check_failed("fleet: " + dev.item.name +
                         " simplification proof is " +
                         dfw::to_string(dev.simplify.proof));
      }
    }
    const std::size_t hash = std::hash<std::string>{}(
        fleet::render_fleet_json(report) + fleet::render_fleet_sarif(report));
    if (!reference_hash[c].has_value()) {
      reference_hash[c] = hash;
      reference[c] = results_of(report);
      for (const DeviceResult& r : reference[c]) {
        rules_before += r.rules_before;
        rules_after += r.rules_after;
      }
      findings += report.findings_total;
    } else if (hash != *reference_hash[c]) {
      out.check_failed("fleet: JSON/SARIF report differs between audits");
    }

    if (config.trace && op > 0) {
      std::vector<DeviceResult> results;
      std::vector<std::optional<Policy>> simplified;
      Ledger audit;
      const TracedAudit traced = traced_audit(chunks[c], executor, audit,
                                              results, simplified, threads);
      traced_ms.push_back(traced.wall_ms);
      paired_untraced_ms += ms;
      busiest_thread_layers_ms += traced.busiest_thread_layers_ms;
      device_ms += audit.get("fleet.device").wall_ms;
      ledger.merge(audit);
      if (results != reference[c]) {
        out.check_failed("fleet: traced per-device pipeline disagrees with "
                         "run_fleet");
      }
      if (op <= kChunks) {
        probe_analyses(simplified, executor, ledger);
      }
    }
  }

  double busy_ms = 0;
  for (const double ms : audit_ms) {
    busy_ms += ms;
  }
  const double devices = static_cast<double>(audit_ms.size() * kTemplates);
  note("fleet: %zu sites x %zu rules in %zu chunks of %zu, %zu pool "
       "threads; rules %zu -> %zu after proven simplification, %zu lint "
       "findings",
       kSites, kRulesPerSite, kChunks, kTemplates, kThreads, rules_before,
       rules_after, findings);
  note("fleet: devices_per_s = %.3f 1/s, chunk audit_ms_p50 = %.3f ms "
       "(%zu audits after a first of %.3f ms), failed_frac = %.4f, "
       "peak_rss_mb = %.1f MB",
       devices * 1e3 / busy_ms, median(audit_ms), audit_ms.size(),
       cold_audit_ms,
       static_cast<double>(out.failed) / static_cast<double>(out.attempted),
       peak_rss_mb());

  if (!config.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("op_ms_p50", median(audit_ms), "ms");
    out.add("ops_per_s", devices * 1e3 / busy_ms, "1/s");
    return out;
  }

  for (const char* s :
       {"fw.parse", "simplify.simplify", "lint.run", "fleet.device",
        "gen.redundant_rules", "analysis.dead_rules",
        "analysis.find_anomalies"}) {
    out.add_span(ledger, s);
  }
  out.add("simplify.rules_removed_frac",
          static_cast<double>(rules_before - rules_after) /
              static_cast<double>(rules_before),
          "frac");
  out.add("fleet.rules_before", static_cast<double>(rules_before), "count");
  out.add("fleet.rules_after", static_cast<double>(rules_after), "count");
  double traced_total_ms = 0;
  for (const double ms : traced_ms) {
    traced_total_ms += ms;
  }
  const double pool_threads = static_cast<double>(threads.size());
  out.add("rt.pool_efficiency",
          device_ms / (traced_total_ms * pool_threads), "frac");
  const double traced_n = static_cast<double>(traced_ms.size());
  out.add("trace.e2e_ms", traced_total_ms / traced_n, "ms");
  out.add("trace.untraced_e2e_ms", paired_untraced_ms / traced_n, "ms");
  out.add("trace.overhead_frac", traced_total_ms / paired_untraced_ms - 1,
          "frac");
  // The layers account for the traced audit through its critical path:
  // the busiest pool thread's parse + simplify + lint time. The traced
  // audit's gap to run_fleet on the same chunk is trace.overhead_frac.
  out.add("trace.reconciled_frac",
          busiest_thread_layers_ms / traced_total_ms, "frac");
  note("fleet: run_fleet chunk audit %.3f ms; traced audit %.3f ms, whose "
       "busiest of %zu threads spent %.3f ms in parse+simplify+lint; "
       "devices %.3f ms + idle %.3f ms over all threads",
       paired_untraced_ms / traced_n, traced_total_ms / traced_n,
       threads.size(), busiest_thread_layers_ms / traced_n,
       device_ms / traced_n,
       (traced_total_ms * pool_threads - device_ms) / traced_n);
  return out;
}

}  // namespace perfbench
