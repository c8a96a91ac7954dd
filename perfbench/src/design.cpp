// Workload "design": the paper's diverse-design pipeline, closed loop, one
// client, serial (the library default).
//
// A session is three teams' firewalls: team A from synth_policy, B and C
// each a Section 8.2.1 perturbation of A at x = 10%. Policy text goes
// through parse_policy, DiverseDesign::submit x3, compare() (direct
// N-way), report() and resolve(plan_by_majority(...)) with method 1. The
// seed draws teams B and C, and the run length fixes how many sessions
// there are: kSessionsPerSecond per second of run, which takes about the
// run length on the reference machine (README.md). Each session runs
// once.
//
// Traced, every other session runs a second time under spans, right after
// its untraced run (which gives the tracing overhead): it first calls the
// minimal pipeline directly (build_reduced_fdd x3, shape_all,
// compare_fdds_many, generate_policy), then the workflow, so
// diverse.rework_factor can say how much of the workflow repeats that
// work.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "diverse/resolve.hpp"
#include "diverse/workflow.hpp"
#include "engine/trace.hpp"
#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "fdd/shape.hpp"
#include "fdd/stats.hpp"
#include "fw/format.hpp"
#include "fw/parser.hpp"
#include "gen/generate.hpp"
#include "synth/synth.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dfw::Decision;
using dfw::Policy;

constexpr std::size_t kTeams = 3;
constexpr std::size_t kTeamRules = 400;
constexpr double kPerturbPercent = 10;
constexpr double kSessionsPerSecond = 3;
// Traced runs trace every kTraceEvery-th session, which keeps them well
// inside the run's time limit.
constexpr std::size_t kTraceEvery = 2;
constexpr std::uint64_t kBaseSeed = 2004;
// Set-up: a fixed small warm-up session (independent of --seed), built
// from a fresh schema, before every kSetupEvery-th session. Spread over
// the run, its median sees the same machine the sessions do.
constexpr std::size_t kWarmupRules = 100;
constexpr std::uint64_t kWarmupSeed = 20040628;
constexpr std::size_t kSetupEvery = 5;
// Output check: sampled packets per session, plus one inside each of the
// first kCheckDiscrepancies discrepancies.
constexpr std::size_t kCheckPackets = 48;
constexpr std::size_t kCheckDiscrepancies = 32;

const char* const kTeamNames[kTeams] = {"A", "B", "C"};

using SessionInput = std::array<std::string, kTeams>;

// Team A of session s is drawn from kBaseSeed + s whatever the run's
// seed, and `seed` draws teams B and C: README.md says why the bases stay
// fixed.
std::vector<SessionInput> make_sessions(std::uint64_t seed,
                                        std::size_t count,
                                        std::size_t rules) {
  dfw::Rng rng(seed);
  dfw::SynthConfig config;
  config.num_rules = rules;
  std::vector<SessionInput> sessions;
  for (std::size_t s = 0; s < count; ++s) {
    dfw::Rng base_rng(kBaseSeed + s);
    const Policy a = dfw::synth_policy(config, base_rng);
    const Policy b = dfw::perturb_policy(a, kPerturbPercent, rng);
    const Policy c = dfw::perturb_policy(a, kPerturbPercent, rng);
    sessions.push_back({dfw::format_policy(a, dfw::default_decisions()),
                        dfw::format_policy(b, dfw::default_decisions()),
                        dfw::format_policy(c, dfw::default_decisions())});
  }
  return sessions;
}

struct SessionResult {
  dfw::DiverseDesign design{dfw::default_decisions()};
  std::vector<dfw::Discrepancy> discrepancies;
  std::optional<Policy> resolved;
  // Traced only: the direct pipeline's findings and diagram sizes.
  std::vector<dfw::Discrepancy> direct_discrepancies;
  std::size_t nodes = 0;
  // Time inside the session window spent on bookkeeping (diagram stats).
  double bookkeeping_ms = 0;
};

SessionResult run_session(const dfw::Schema& schema,
                          const SessionInput& input, Ledger* ledger) {
  SessionResult r;
  std::vector<Policy> teams;
  for (const std::string& text : input) {
    teams.push_back(span(ledger, "fw.parse", [&] {
      return dfw::parse_policy(schema, dfw::default_decisions(), text);
    }));
  }
  if (ledger != nullptr) {
    std::vector<dfw::Fdd> fdds;
    for (const Policy& team : teams) {
      fdds.push_back(span(ledger, "fdd.construct",
                          [&] { return dfw::build_reduced_fdd(team); }));
      const auto start = Clock::now();
      r.nodes += dfw::compute_stats(fdds.back()).nodes;
      r.bookkeeping_ms += ms_since(start);
    }
    span(ledger, "fdd.shape", [&] { dfw::shape_all(fdds); });
    r.direct_discrepancies = span(ledger, "fdd.compare",
                                  [&] { return dfw::compare_fdds_many(fdds); });
    span(ledger, "gen.generate", [&] { return dfw::generate_policy(fdds[0]); });
  }
  for (std::size_t t = 0; t < kTeams; ++t) {
    span(ledger, "diverse.submit",
         [&] { return r.design.submit(kTeamNames[t], std::move(teams[t])); });
  }
  r.discrepancies =
      span(ledger, "diverse.compare", [&] { return r.design.compare(); });
  span(ledger, "diverse.report", [&] { return r.design.report(); });
  r.resolved = span(ledger, "diverse.resolve", [&] {
    return r.design.resolve(dfw::plan_by_majority(r.discrepancies));
  });
  return r;
}

// Majority of the teams' decisions; ties go to team 0 (the arbiter).
Decision majority(const std::vector<Decision>& votes) {
  const auto count = [&](Decision d) {
    return std::count(votes.begin(), votes.end(), d);
  };
  Decision best = votes[0];
  for (const Decision d : votes) {
    if (count(d) > count(best)) {
      best = d;
    }
  }
  return best;
}

dfw::Packet packet_inside(const dfw::Discrepancy& d, dfw::Rng& rng) {
  dfw::Packet p;
  for (const dfw::IntervalSet& set : d.conjuncts) {
    const auto& runs = set.intervals();
    const dfw::Interval run = runs[rng() % runs.size()];
    const dfw::Value span_width = run.hi() - run.lo();
    p.push_back(span_width == ~dfw::Value{0}
                    ? rng()
                    : run.lo() + rng() % (span_width + 1));
  }
  return p;
}

// The resolved policy must decide every sampled packet as the majority of
// the three teams does.
void check_session(const SessionResult& r, std::uint64_t seed,
                   Outcome& out) {
  if (!r.resolved.has_value()) {
    out.check_failed("design: session produced no resolved policy");
    return;
  }
  dfw::Rng rng(seed);
  std::vector<dfw::Packet> packets =
      dfw::synth_trace(r.design.policy(0), kCheckPackets, rng);
  for (std::size_t i = 0;
       i < r.discrepancies.size() && i < kCheckDiscrepancies; ++i) {
    packets.push_back(packet_inside(r.discrepancies[i], rng));
  }
  for (const dfw::Packet& p : packets) {
    std::vector<Decision> votes;
    for (std::size_t t = 0; t < kTeams; ++t) {
      votes.push_back(r.design.policy(t).evaluate(p));
    }
    if (r.resolved->evaluate(p) != majority(votes)) {
      out.check_failed("design: resolved policy disagrees with the "
                       "teams' majority on a sampled packet");
      return;
    }
  }
}

}  // namespace

Outcome run_design(const RunConfig& config) {
  Outcome out;
  const auto count = static_cast<std::size_t>(
      std::ceil(config.seconds * kSessionsPerSecond));
  const std::vector<SessionInput> sessions =
      make_sessions(config.seed, count, kTeamRules);
  const dfw::Schema schema = dfw::five_tuple_schema();
  const std::vector<SessionInput> warmup =
      make_sessions(kWarmupSeed, 1, kWarmupRules);

  std::vector<double> setup_s;
  Ledger ledger;
  std::vector<double> session_ms;  // untraced
  std::vector<double> traced_ms;   // traced session windows
  double probes_ms = 0;            // direct-pipeline spans inside them
  double paired_untraced_ms = 0;   // the same sessions, untraced
  double bookkeeping_ms = 0;
  std::size_t nodes = 0;
  std::size_t fdds = 0;
  std::size_t discrepancies = 0;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    if (s % kSetupEvery == 0) {
      const auto t_setup = Clock::now();
      (void)run_session(dfw::five_tuple_schema(), warmup[0], nullptr);
      setup_s.push_back(ms_since(t_setup) / 1e3);
    }
    ++out.attempted;
    try {
      const auto t0 = Clock::now();
      SessionResult r = run_session(schema, sessions[s], nullptr);
      session_ms.push_back(ms_since(t0));
      check_session(r, config.seed ^ s, out);
      discrepancies += r.discrepancies.size();
      if (config.trace && s % kTraceEvery == 0) {
        Ledger session;
        const auto t1 = Clock::now();
        SessionResult traced = run_session(schema, sessions[s], &session);
        traced_ms.push_back(ms_since(t1) - traced.bookkeeping_ms);
        paired_untraced_ms += session_ms.back();
        bookkeeping_ms += traced.bookkeeping_ms;
        probes_ms += session.wall_ms({"fdd.construct", "fdd.shape",
                                      "fdd.compare", "gen.generate"});
        ledger.merge(session);
        nodes += traced.nodes;
        fdds += kTeams;
        if (traced.direct_discrepancies != r.discrepancies ||
            traced.discrepancies != r.discrepancies) {
          out.check_failed("design: direct and workflow comparisons "
                           "disagree");
        }
      }
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "design: session %zu failed: %s\n", s,
                   e.what());
    }
  }

  double busy_ms = 0;
  for (const double ms : session_ms) {
    busy_ms += ms;
  }
  const double n = static_cast<double>(session_ms.size());
  note("design: %zu sessions, %zu teams x %zu rules, x = %g%%; "
       "discrepancies per session %.1f",
       sessions.size(), kTeams, kTeamRules, kPerturbPercent,
       static_cast<double>(discrepancies) /
           static_cast<double>(sessions.size()));
  note("design: session_ms_p50 = %.3f ms (%zu samples), sessions_per_s = "
       "%.3f 1/s, failed_frac = %.4f, peak_rss_mb = %.1f MB",
       median(session_ms), session_ms.size(),
       busy_ms > 0 ? n * 1e3 / busy_ms : 0.0,
       static_cast<double>(out.failed) / static_cast<double>(out.attempted),
       peak_rss_mb());

  if (!config.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("op_ms_p50", median(session_ms), "ms");
    out.add("ops_per_s", busy_ms > 0 ? n * 1e3 / busy_ms : 0.0, "1/s");
    return out;
  }

  for (const char* s :
       {"fw.parse", "fdd.construct", "fdd.shape", "fdd.compare",
        "gen.generate", "diverse.submit", "diverse.compare",
        "diverse.report", "diverse.resolve"}) {
    out.add_span(ledger, s);
  }
  const double workflow_ms =
      ledger.wall_ms({"diverse.submit", "diverse.compare", "diverse.report",
                      "diverse.resolve"});
  const double minimal_ms = ledger.wall_ms(
      {"fdd.construct", "fdd.shape", "fdd.compare", "gen.generate"});
  const double parse_ms = ledger.get("fw.parse").wall_ms;
  double traced_total = 0;
  for (const double ms : traced_ms) {
    traced_total += ms;
  }
  const double traced_sessions = static_cast<double>(traced_ms.size());
  out.add("fdd.nodes",
          static_cast<double>(nodes) / static_cast<double>(fdds), "count");
  out.add("fdd.discrepancies",
          static_cast<double>(discrepancies) /
              static_cast<double>(sessions.size()),
          "count");
  out.add("diverse.rework_factor",
          minimal_ms > 0 ? workflow_ms / minimal_ms : 0.0, "ratio");
  out.add("trace.e2e_ms", traced_total / traced_sessions, "ms");
  out.add("trace.untraced_e2e_ms", paired_untraced_ms / traced_sessions,
          "ms");
  out.add("trace.overhead_frac",
          (traced_total - probes_ms) / paired_untraced_ms - 1,
          "frac");
  out.add("trace.reconciled_frac",
          (parse_ms + minimal_ms + workflow_ms) / traced_total, "frac");
  note("design: traced session %.3f ms = parse %.3f + direct pipeline %.3f "
       "+ workflow %.3f (+ %.3f ms diagram stats, excluded)",
       traced_total / traced_sessions, parse_ms / traced_sessions,
       minimal_ms / traced_sessions, workflow_ms / traced_sessions,
       bookkeeping_ms / traced_sessions);
  return out;
}

}  // namespace perfbench
