// Lint-engine tests: the witness contract (every error-severity semantic
// diagnostic reproduces its misbehavior against the policy), deterministic
// SARIF/JSON output across executors and thread counts, baseline
// suppression, governance partial results, and the CLI's exit-code
// contract driven in-process through run_lint_cli.

#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "adapters/cisco.hpp"
#include "adapters/iptables.hpp"
#include "lint/baseline.hpp"
#include "lint/cli.hpp"
#include "lint/engine.hpp"
#include "lint/render.hpp"
#include "lint/sarif.hpp"
#include "obs/metrics.hpp"
#include "rt/executor.hpp"
#include "rt/fault.hpp"
#include "simplify/simplify.hpp"
#include "synth/synth.hpp"
#include "test_util.hpp"

#ifndef DFW_CORPUS_DIR
#error "DFW_CORPUS_DIR must point at tests/corpus (set by CMake)"
#endif

namespace dfw::lint {
namespace {

using test::tiny2;
using test::tiny3;

Rule rule(const Schema& s, Interval x, Interval y, Decision d) {
  return Rule(s, {IntervalSet(x), IntervalSet(y)}, d);
}

LintReport lint(const Policy& policy, const LintOptions& options = {}) {
  LintInput input;
  input.policy = &policy;
  input.decisions = &default_decisions();
  return LintEngine().run(input, options);
}

const Diagnostic* find_check(const LintReport& report,
                             std::string_view check_id) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.check_id == check_id) {
      return &d;
    }
  }
  return nullptr;
}

std::size_t count_check(const LintReport& report, std::string_view check_id) {
  std::size_t n = 0;
  for (const Diagnostic& d : report.diagnostics) {
    n += d.check_id == check_id;
  }
  return n;
}

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  EXPECT_TRUE(out.good()) << path;
  return path;
}

int cli(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_lint_cli(args, out, err);
  if (out_text != nullptr) {
    *out_text = out.str();
  }
  if (err_text != nullptr) {
    *err_text = err.str();
  }
  return code;
}

// ---------------------------------------------------------------------------
// The witness contract: error-severity semantic findings reproduce.

TEST(LintWitness, ShadowedRuleWitnessNeverFirstMatchesTheRule) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 5), Interval(0, 7), kAccept),
                     rule(s, Interval(1, 2), Interval(1, 2), kDiscard),
                     Rule::catch_all(s, kAccept)});
  const LintReport report = lint(p);
  const Diagnostic* d = find_check(report, "policy.shadowed-rule");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->rule, 1u);
  EXPECT_EQ(d->related_rule, 0u);
  ASSERT_TRUE(d->witness.has_value());
  ASSERT_TRUE(d->witness->observed.has_value());
  const Packet pkt = witness_packet(*d->witness);
  // The packet lies inside the flagged rule's predicate, yet the rule
  // never first-matches it and the policy decides against the rule.
  EXPECT_TRUE(p.rule(1).matches(pkt));
  ASSERT_TRUE(p.first_match(pkt).has_value());
  EXPECT_NE(*p.first_match(pkt), 1u);
  EXPECT_EQ(p.evaluate(pkt), *d->witness->observed);
  EXPECT_NE(p.evaluate(pkt), p.rule(1).decision());
}

TEST(LintWitness, DeadRuleFromJointCoverageWitnessReproduces) {
  // Neither earlier rule alone shadows rule 3 — only their union does, so
  // the pair scan stays quiet and the semantic pass must carry the proof.
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 3), Interval(0, 7), kAccept),
                     rule(s, Interval(4, 7), Interval(0, 7), kAccept),
                     Rule::catch_all(s, kDiscard)});
  const LintReport report = lint(p);
  const Diagnostic* d = find_check(report, "policy.dead-rule");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->rule, 2u);
  EXPECT_EQ(find_check(report, "policy.shadowed-rule"), nullptr);
  ASSERT_TRUE(d->witness.has_value());
  const Packet pkt = witness_packet(*d->witness);
  EXPECT_TRUE(p.rule(2).matches(pkt));
  EXPECT_NE(*p.first_match(pkt), 2u);
  ASSERT_TRUE(d->witness->observed.has_value());
  EXPECT_EQ(p.evaluate(pkt), *d->witness->observed);
}

TEST(LintWitness, DeadRuleWitnessPrefersAClassDecidedOtherwise) {
  // r1 and r2 decide all of r3, r1's class first in path order and the
  // way r3 would. The witness is the first class decided otherwise, r2's;
  // a predicate whose classes all decide the rule's way keeps the first.
  const Schema s = tiny2();
  const Policy mixed(s, {rule(s, Interval(0, 3), Interval(0, 7), kAccept),
                         rule(s, Interval(4, 7), Interval(0, 7), kDiscard),
                         Rule::catch_all(s, kAccept)});
  const LintReport mixed_report = lint(mixed);
  const Diagnostic* d = find_check(mixed_report, "policy.dead-rule");
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->witness.has_value());
  EXPECT_EQ(d->witness->conjuncts[0], IntervalSet(Interval(4, 7)));
  EXPECT_EQ(d->witness->observed, kDiscard);

  const Policy alike(s, {rule(s, Interval(0, 3), Interval(0, 7), kAccept),
                         rule(s, Interval(4, 7), Interval(0, 3), kAccept),
                         rule(s, Interval(0, 7), Interval(0, 3), kAccept),
                         Rule::catch_all(s, kDiscard)});
  const LintReport alike_report = lint(alike);
  d = find_check(alike_report, "policy.dead-rule");
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->witness.has_value());
  EXPECT_EQ(d->witness->conjuncts[0], IntervalSet(Interval(0, 3)));
  EXPECT_EQ(d->witness->conjuncts[1], IntervalSet(Interval(0, 3)));
  EXPECT_EQ(d->witness->observed, kAccept);
}

TEST(LintWitness, NotComprehensiveWitnessFallsOffThePolicy) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 3), Interval(0, 7), kAccept)});
  const LintReport report = lint(p);
  const Diagnostic* d = find_check(report, "policy.not-comprehensive");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  ASSERT_TRUE(d->witness.has_value());
  EXPECT_FALSE(d->witness->observed.has_value());  // the class falls off
  const Packet pkt = witness_packet(*d->witness);
  EXPECT_FALSE(p.first_match(pkt).has_value());
  EXPECT_THROW(p.evaluate(pkt), std::logic_error);
}

TEST(LintWitness, PropertyViolationWitnessShowsObservedAndExpected) {
  const Schema s = tiny2();
  const Policy p(s, {Rule::catch_all(s, kDiscard)});
  LintInput input;
  input.policy = &p;
  input.decisions = &default_decisions();
  Property prop;
  prop.name = "x2-open";
  prop.scope = Query::any(s);
  prop.scope.constraints[0] = IntervalSet(Interval(2, 2));
  prop.scope.decision = kAccept;
  prop.mode = PropertyMode::kForAll;
  input.properties.push_back(prop);
  const LintReport report = LintEngine().run(input, {});
  const Diagnostic* d = find_check(report, "policy.decision-unreachable");
  ASSERT_NE(d, nullptr);  // nothing maps to accept in this policy
  const Diagnostic* v = find_check(report, "property.violation");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->severity, Severity::kError);
  ASSERT_TRUE(v->witness.has_value());
  ASSERT_TRUE(v->witness->observed.has_value());
  ASSERT_TRUE(v->witness->expected.has_value());
  EXPECT_EQ(*v->witness->expected, kAccept);
  const Packet pkt = witness_packet(*v->witness);
  EXPECT_EQ(pkt[0], 2u);  // inside the property's scope
  EXPECT_EQ(p.evaluate(pkt), *v->witness->observed);
  EXPECT_NE(p.evaluate(pkt), *v->witness->expected);
}

TEST(LintWitness, ExistsAndMalformedPropertiesAreWarnings) {
  const Schema s = tiny2();
  const Policy p(s, {Rule::catch_all(s, kDiscard)});
  LintInput input;
  input.policy = &p;
  input.decisions = &default_decisions();
  Property exists;
  exists.name = "some-accept";
  exists.scope = Query::any(s);
  exists.scope.decision = kAccept;
  exists.mode = PropertyMode::kExists;
  input.properties.push_back(exists);
  Property malformed;
  malformed.name = "no-decision";
  malformed.scope = Query::any(s);
  input.properties.push_back(malformed);
  const LintReport report = LintEngine().run(input, {});
  const Diagnostic* u = find_check(report, "property.unsatisfied");
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->severity, Severity::kWarning);
  EXPECT_FALSE(u->witness.has_value());  // absence finding: no witness
  EXPECT_NE(find_check(report, "property.malformed"), nullptr);
}

TEST(Lint, UnreachableDecisionNamedInMessage) {
  DecisionSet decisions;
  const Decision log = decisions.add("accept_log");
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 3), Interval(0, 7), kDiscard),
                     Rule::catch_all(s, kAccept)});
  LintInput input;
  input.policy = &p;
  input.decisions = &decisions;
  const LintReport report = LintEngine().run(input, {});
  ASSERT_NE(log, kAccept);
  const Diagnostic* d = find_check(report, "policy.decision-unreachable");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(count_check(report, "policy.decision-unreachable"), 1u);
  EXPECT_NE(d->message.find("accept_log"), std::string::npos);
}

TEST(Lint, MergeAdjacentAndCompactionNotes) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 3), Interval(0, 7), kAccept),
                     rule(s, Interval(4, 7), Interval(0, 7), kAccept),
                     Rule::catch_all(s, kDiscard)});
  const LintReport report = lint(p);
  const Diagnostic* merge = find_check(report, "rule.merge-adjacent");
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(merge->severity, Severity::kNote);
  EXPECT_EQ(merge->rule, 0u);
  EXPECT_EQ(merge->related_rule, 1u);
  EXPECT_NE(merge->message.find("x"), std::string::npos);
  // r1 + r2 fold into one catch-all-accept... which also makes the
  // whole-policy compaction note fire (2 rules suffice).
  EXPECT_NE(find_check(report, "policy.compactable"), nullptr);
}

// The compaction note counts the generated rules off the diagram; the
// count must be the size of the policy generation would emit.
void expect_compactable_counts_generation(const Policy& p,
                                          const std::string& what) {
  FddArena arena(p.schema());
  const ArenaNodeId root = arena.build_reduced(p);
  const std::size_t generated = arena.generate(root).size();
  EXPECT_EQ(arena.path_count(root), generated) << what;
  LintOptions options;
  options.passes = {"merge"};
  const LintReport report = lint(p, options);
  const Diagnostic* note = find_check(report, "policy.compactable");
  if (generated < p.size()) {
    ASSERT_NE(note, nullptr) << what;
    EXPECT_NE(note->message.find("an equivalent policy with " +
                                 std::to_string(generated) + " rules exists"),
              std::string::npos)
        << what << ": " << note->message;
  } else {
    EXPECT_EQ(note, nullptr) << what;
  }
}

TEST(Lint, CompactableCountEqualsGeneratedSize) {
  std::mt19937_64 rng(29);
  std::size_t noted = 0;
  for (const Schema& s : {tiny2(), tiny3()}) {
    for (int trial = 0; trial < 60; ++trial) {
      const Policy p = test::random_policy(s, 2 + trial % 14, rng);
      expect_compactable_counts_generation(
          p, "tiny trial " + std::to_string(trial));
      FddArena arena(s);
      noted += arena.generate(arena.build_reduced(p)).size() < p.size();
    }
  }
  EXPECT_GT(noted, 0u);  // the note fired on some of them
  FleetSynthConfig config;
  config.sites = 4;
  std::size_t site = 0;
  for (const Policy& p : make_fleet(config)) {
    expect_compactable_counts_generation(
        simplify_policy(p).policy, "fleet site " + std::to_string(site++));
  }
}

// ---------------------------------------------------------------------------
// Adapter-level lints surface through the engine with source lines.

TEST(Lint, IptablesAdapterNotesBecomeDiagnostics) {
  const std::string text =
      ":INPUT DROP [0:0]\n"
      ":INPUT DROP [0:0]\n"
      "-A INPUT --dport 25 -j ACCEPT\n";
  LintInput input;
  std::optional<Policy> p;
  ASSERT_NO_THROW(
      p.emplace(parse_iptables_save(text, "INPUT", &input.adapter_notes)));
  input.policy = &*p;
  input.decisions = &default_decisions();
  LintOptions options;
  options.passes = {"adapter"};
  const LintReport report = LintEngine().run(input, options);
  const Diagnostic* dup = find_check(report, "adapter.iptables.duplicate-chain");
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->line, 2u);
  const Diagnostic* port =
      find_check(report, "adapter.iptables.port-without-proto");
  ASSERT_NE(port, nullptr);
  EXPECT_EQ(port->line, 3u);
  EXPECT_EQ(port->severity, Severity::kWarning);
}

TEST(Lint, CiscoAdapterNotesBecomeDiagnostics) {
  const std::string text =
      "access-list 101 permit tcp any host 192.168.0.1 eq smtp log\n"
      "access-list 101 deny ip any any\n";
  LintInput input;
  std::optional<Policy> p;
  ASSERT_NO_THROW(
      p.emplace(parse_cisco_acl(text, "101", &input.adapter_notes)));
  input.policy = &*p;
  input.decisions = &default_decisions();
  LintOptions options;
  options.passes = {"adapter"};
  const LintReport report = LintEngine().run(input, options);
  const Diagnostic* log = find_check(report, "adapter.cisco.log-ignored");
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->line, 1u);
  EXPECT_NE(find_check(report, "adapter.cisco.redundant-implicit-deny"),
            nullptr);
}

// ---------------------------------------------------------------------------
// Engine mechanics: pass selection, fingerprints, input validation.

TEST(Lint, PassSelectionRunsOnlyNamedPasses) {
  const Schema s = tiny2();
  const Policy p(s, {Rule::catch_all(s, kAccept)});
  LintOptions options;
  options.passes = {"coverage"};
  const LintReport report = lint(p, options);
  EXPECT_EQ(report.passes_run, (std::vector<std::string>{"coverage"}));
  LintOptions disabled;
  disabled.disabled = {"coverage", "redundancy"};
  const LintReport rest = lint(p, disabled);
  for (const std::string& name : rest.passes_run) {
    EXPECT_NE(name, "coverage");
    EXPECT_NE(name, "redundancy");
  }
}

TEST(Lint, UnknownPassNameIsWarnedNotFatal) {
  const Schema s = tiny2();
  const Policy p(s, {Rule::catch_all(s, kAccept)});
  LintOptions options;
  options.passes = {"coverage", "no-such-pass"};
  const LintReport report = lint(p, options);
  EXPECT_TRUE(report.complete);
  const Diagnostic* d = find_check(report, "lint.unknown-pass");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("no-such-pass"), std::string::npos);
}

TEST(Lint, EveryDiagnosticCarriesAHexFingerprint) {
  std::mt19937_64 rng(31);
  const Policy p = test::random_policy(tiny3(), 12, rng);
  const LintReport report = lint(p);
  ASSERT_FALSE(report.diagnostics.empty());
  for (const Diagnostic& d : report.diagnostics) {
    ASSERT_EQ(d.fingerprint.size(), 16u) << d.check_id;
    for (const char c : d.fingerprint) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
    }
  }
}

TEST(Lint, FingerprintsSurviveRuleReordering) {
  // Fingerprints hash rule *texts*, not indices: moving an unrelated rule
  // around must not churn the baseline.
  const Schema s = tiny2();
  const Rule shadower = rule(s, Interval(0, 5), Interval(0, 7), kAccept);
  const Rule shadowed = rule(s, Interval(1, 2), Interval(1, 2), kDiscard);
  const Rule unrelated = rule(s, Interval(6, 7), Interval(0, 0), kDiscard);
  const Policy a(s, {shadower, shadowed, unrelated,
                     Rule::catch_all(s, kAccept)});
  const Policy b(s, {unrelated, shadower, shadowed,
                     Rule::catch_all(s, kAccept)});
  const LintReport ra = lint(a);
  const LintReport rb = lint(b);
  const Diagnostic* da = find_check(ra, "policy.shadowed-rule");
  const Diagnostic* db = find_check(rb, "policy.shadowed-rule");
  ASSERT_NE(da, nullptr);
  ASSERT_NE(db, nullptr);
  EXPECT_NE(da->rule, db->rule);  // the index moved...
  EXPECT_EQ(da->fingerprint, db->fingerprint);  // ...the identity did not
}

TEST(Lint, RejectsNullInput) {
  EXPECT_THROW(LintEngine().run(LintInput{}, LintOptions{}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Determinism: byte-identical reports across executors and thread counts.

TEST(Lint, ReportsAreByteIdenticalAcrossThreadCounts) {
  std::mt19937_64 rng(57);
  const Policy p = test::random_policy(tiny3(), 24, rng);
  LintInput input;
  input.policy = &p;
  input.decisions = &default_decisions();
  const LintEngine engine;
  const LintReport serial = engine.run(input, {});
  ASSERT_FALSE(serial.diagnostics.empty());
  const std::string sarif = render_sarif(input, serial);
  const std::string json = render_json(input, serial);
  const std::string text = render_text(input, serial);
  EXPECT_TRUE(validate_sarif(sarif).ok);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Executor executor(threads);
    LintOptions options;
    options.run.executor = &executor;
    const LintReport parallel = engine.run(input, options);
    EXPECT_EQ(render_sarif(input, parallel), sarif) << threads;
    EXPECT_EQ(render_json(input, parallel), json) << threads;
    EXPECT_EQ(render_text(input, parallel), text) << threads;
  }
  // And across repeated runs: pure function of (input, report).
  EXPECT_EQ(render_sarif(input, engine.run(input, {})), sarif);
}

// ---------------------------------------------------------------------------
// SARIF structural validation.

TEST(Sarif, EmittedLogValidatesAndNamesTheTool) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 5), Interval(0, 7), kAccept),
                     rule(s, Interval(1, 2), Interval(1, 2), kDiscard),
                     Rule::catch_all(s, kAccept)});
  LintInput input;
  input.policy = &p;
  input.decisions = &default_decisions();
  input.source_name = "example.fw";
  const LintReport report = LintEngine().run(input, {});
  const std::string sarif = render_sarif(input, report);
  const SarifValidation v = validate_sarif(sarif);
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("dfw-lint"), std::string::npos);
  EXPECT_NE(sarif.find("policy.shadowed-rule"), std::string::npos);
  EXPECT_NE(sarif.find("example.fw"), std::string::npos);
}

TEST(Sarif, ValidatorRejectsStructuralProblems) {
  EXPECT_FALSE(validate_sarif("not json at all").ok);
  EXPECT_FALSE(validate_sarif("{}").ok);
  EXPECT_FALSE(validate_sarif("[1,2,3]").ok);
  // Wrong version.
  EXPECT_FALSE(
      validate_sarif(
          R"({"version":"1.0.0","runs":[{"tool":{"driver":{"name":"x"}},"results":[]}]})")
          .ok);
  // Result references a rule missing from the catalog.
  const SarifValidation v = validate_sarif(
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"x","rules":[{"id":"a.b"}]}},"results":[{"ruleId":"c.d","level":"error","message":{"text":"m"}}]}]})");
  EXPECT_FALSE(v.ok);
  ASSERT_FALSE(v.problems.empty());
  // Bad level.
  EXPECT_FALSE(
      validate_sarif(
          R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"x","rules":[{"id":"a.b"}]}},"results":[{"ruleId":"a.b","level":"fatal","message":{"text":"m"}}]}]})")
          .ok);
  // Minimal valid log passes.
  EXPECT_TRUE(
      validate_sarif(
          R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"x","rules":[{"id":"a.b"}]}},"results":[{"ruleId":"a.b","level":"note","message":{"text":"m"}}]}]})")
          .ok);
}

// ---------------------------------------------------------------------------
// Baseline suppression: gate on new findings only.

TEST(Baseline, RoundTripSuppressesEverythingItRecorded) {
  const Schema s = tiny2();
  const Policy p(s, {rule(s, Interval(0, 5), Interval(0, 7), kAccept),
                     rule(s, Interval(1, 2), Interval(1, 2), kDiscard),
                     Rule::catch_all(s, kAccept)});
  LintReport report = lint(p);
  ASSERT_FALSE(report.diagnostics.empty());
  const std::size_t total = report.diagnostics.size();
  std::string error;
  const auto baseline = parse_baseline(render_baseline(report), &error);
  ASSERT_TRUE(baseline.has_value()) << error;
  EXPECT_EQ(apply_baseline(report, *baseline), total);
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST(Baseline, NewFindingSurvivesAnOldBaseline) {
  const Schema s = tiny2();
  const Rule shadower = rule(s, Interval(0, 5), Interval(0, 7), kAccept);
  const Rule shadowed = rule(s, Interval(1, 2), Interval(1, 2), kDiscard);
  const Policy before(s, {shadower, shadowed, Rule::catch_all(s, kAccept)});
  const auto baseline =
      parse_baseline(render_baseline(lint(before)), nullptr);
  ASSERT_TRUE(baseline.has_value());
  // Introduce a fresh finding: a redundant pair the baseline never saw.
  const Policy after(s, {shadower, shadowed,
                         rule(s, Interval(3, 4), Interval(3, 4), kAccept),
                         Rule::catch_all(s, kAccept)});
  LintReport report = lint(after);
  ASSERT_NE(find_check(report, "policy.redundant-pair"), nullptr);
  EXPECT_GT(apply_baseline(report, *baseline), 0u);
  // The old shadowing finding is suppressed; the new pair survives.
  EXPECT_EQ(find_check(report, "policy.shadowed-rule"), nullptr);
  EXPECT_NE(find_check(report, "policy.redundant-pair"), nullptr);
}

TEST(Baseline, ParserIsStrict) {
  std::string error;
  EXPECT_FALSE(parse_baseline("zzzz\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(parse_baseline("0123456789abcde\n", &error).has_value());
  EXPECT_FALSE(parse_baseline("0123456789ABCDEF\n", &error).has_value());
  EXPECT_FALSE(
      parse_baseline("0123456789abcdef trailing junk\n", &error).has_value());
  const auto ok = parse_baseline(
      "# comment\n\n0123456789abcdef  # policy.dead-rule\r\n"
      "fedcba9876543210\n0123456789abcdef\n",
      &error);
  ASSERT_TRUE(ok.has_value()) << error;
  EXPECT_EQ(ok->fingerprints.size(), 2u);  // sorted, deduplicated
  EXPECT_LE(ok->fingerprints[0], ok->fingerprints[1]);
}

TEST(Baseline, EmptyOrWhitespaceOnlyMeansNoSuppressions) {
  // An empty baseline is the natural starting state ("nothing accepted
  // yet"), not a parse error — strictness is for malformed *content*.
  for (const char* text :
       {"", "\n", "   \n\t\n", " \t\v\f\n", "\v\v", "\f", "\r\n\r\n",
        "\xEF\xBB\xBF", "\xEF\xBB\xBF\n  \n", "# only a comment\n"}) {
    std::string error;
    const auto baseline = parse_baseline(text, &error);
    ASSERT_TRUE(baseline.has_value())
        << "rejected as '" << error << "': " << ::testing::PrintToString(text);
    EXPECT_TRUE(baseline->fingerprints.empty());
  }
  // The BOM is tolerated in front of real content too.
  const auto ok =
      parse_baseline("\xEF\xBB\xBF" "0123456789abcdef  # policy.dead-rule\n",
                     nullptr);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->fingerprints.size(), 1u);
}

// ---------------------------------------------------------------------------
// Governance: a hostile policy under a node budget yields a *marked*
// partial result quickly instead of an exponential blowup.

Policy adversarial_policy(std::size_t n) {
  const Schema s({{"a", Interval(0, 4095), FieldKind::kInteger},
                  {"b", Interval(0, 4095), FieldKind::kInteger},
                  {"c", Interval(0, 4095), FieldKind::kInteger}});
  std::vector<Rule> rules;
  rules.reserve(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Value lo = (i * 4) % 2048;
    const IntervalSet span(Interval(lo, lo + 2048));
    rules.emplace_back(s, std::vector<IntervalSet>{span, span, span},
                       i % 2 == 0 ? kAccept : kDiscard);
  }
  rules.push_back(Rule::catch_all(s, kDiscard));
  return Policy(s, std::move(rules));
}

TEST(LintGovern, ThousandRulePolicyUnderNodeBudgetIsMarkedPartial) {
  const Policy p = adversarial_policy(1000);
  RunContext::Config config;
  config.budgets.max_nodes = 5000;
  RunContext context(std::move(config));
  LintOptions options;
  options.run.context = &context;
  LintInput input;
  input.policy = &p;
  input.decisions = &default_decisions();
  const LintReport report = LintEngine().run(input, options);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.status, ErrorCode::kNodeBudgetExceeded);
  EXPECT_FALSE(report.message.empty());
  EXPECT_FALSE(report.passes_run.empty());
  // The partial report renders with the partial banner everywhere.
  EXPECT_NE(render_text(input, report).find("PARTIAL"), std::string::npos);
  const std::string sarif = render_sarif(input, report);
  EXPECT_NE(sarif.find("\"executionSuccessful\":false"), std::string::npos);
  EXPECT_TRUE(validate_sarif(sarif).ok);
  EXPECT_NE(render_json(input, report).find("NodeBudgetExceeded"),
            std::string::npos);
}

TEST(LintGovern, RedundancyPassBreachIsMarkedPartial) {
  std::mt19937_64 rng(17);
  const Policy p = test::random_policy(tiny3(), 10, rng);
  // What the shared diagram and the coverage pass charge...
  Budgets budgets;
  budgets.max_nodes = 1000000;
  RunContext probe = RunContext::with_budgets(budgets);
  LintOptions options;
  options.passes = {"coverage"};
  options.run.context = &probe;
  ASSERT_TRUE(lint(p, options).complete);
  // ...plus one node: the redundancy pass's overlays, in the run's
  // analysis arena, breach.
  budgets.max_nodes = probe.nodes_charged() + 1;
  RunContext context = RunContext::with_budgets(budgets);
  options.passes = {"coverage", "redundancy"};
  options.run.context = &context;
  const LintReport report = lint(p, options);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.status, ErrorCode::kNodeBudgetExceeded);
  EXPECT_NE(report.message.find("'redundancy'"), std::string::npos);
  EXPECT_EQ(report.passes_run, std::vector<std::string>{"coverage"});
}

// A caller's analysis: the run reads it instead of building its own, and a
// breach or a fault in the redundancy pass's overlays leaves its arena
// exact once the run has detached from it.

Policy simplified_site() {
  FleetSynthConfig config;
  config.sites = 1;
  config.base.num_rules = 120;
  return simplify_policy(make_fleet(config)[0]).policy;
}

LintInput input_for(const Policy& p, PolicyAnalysis* analysis) {
  LintInput input;
  input.policy = &p;
  input.decisions = &default_decisions();
  input.analysis = analysis;
  return input;
}

void expect_rederives(PolicyAnalysis& analysis, const std::string& what) {
  EXPECT_EQ(analysis.arena().context(), nullptr) << what;
  EXPECT_EQ(analysis.arena().faults(), nullptr) << what;
  PolicyAnalysis fresh(analysis.policy());
  EXPECT_EQ(analysis.dead(), fresh.dead()) << what;
  EXPECT_EQ(analysis.redundant(), fresh.redundant()) << what;
  EXPECT_EQ(analysis.without_redundant().rules(),
            fresh.without_redundant().rules())
      << what;
}

TEST(LintGovern, CallersAnalysisIsReadAndMatchesAFreshRun) {
  const Policy p = simplified_site();
  PolicyAnalysis analysis(p);
  const std::size_t nodes = analysis.arena().unique_node_count();
  MetricsRegistry handed_metrics;
  LintOptions options;
  options.run.obs.metrics = &handed_metrics;
  const LintReport handed =
      LintEngine().run(input_for(p, &analysis), options);
  MetricsRegistry own_metrics;
  options.run.obs.metrics = &own_metrics;
  const LintReport own = LintEngine().run(input_for(p, nullptr), options);
  ASSERT_TRUE(handed.complete);
  EXPECT_EQ(render_json(input_for(p, nullptr), handed),
            render_json(input_for(p, nullptr), own));
  // The run built no chain of its own; the redundancy pass grew the
  // caller's arena, whose stats the run absorbed.
  EXPECT_EQ(handed_metrics.snapshot().histograms.count(
                "phase.prefix_roots_ns"),
            0u);
  EXPECT_EQ(own_metrics.snapshot().histograms.at("phase.prefix_roots_ns")
                .count,
            1u);
  EXPECT_GT(analysis.arena().unique_node_count(), nodes);
  EXPECT_EQ(handed_metrics.snapshot().counters.at("fdd.arena.unique_nodes"),
            analysis.arena().unique_node_count());
}

TEST(LintGovern, AnalysisOfAnotherPolicyIsRejected) {
  const Policy p = simplified_site();
  std::vector<Rule> rules = p.rules();
  rules.erase(rules.begin());
  PolicyAnalysis other(Policy(p.schema(), std::move(rules)));
  EXPECT_THROW(LintEngine().run(input_for(p, &other), LintOptions{}),
               std::invalid_argument);
}

TEST(LintGovern, RedundancyBreachLeavesTheCallersArenaExact) {
  const Policy p = simplified_site();
  RunContext probe;
  {
    PolicyAnalysis analysis(p);
    LintOptions options;
    options.passes = {"redundancy"};
    options.run.context = &probe;
    ASSERT_TRUE(LintEngine().run(input_for(p, &analysis), options).complete);
  }
  ASSERT_GT(probe.nodes_charged(), 10u);
  for (const std::size_t budget :
       {std::size_t{1}, probe.nodes_charged() / 2}) {
    const std::string what = "node budget " + std::to_string(budget);
    PolicyAnalysis analysis(p);
    RunContext tight = RunContext::with_budgets({.max_nodes = budget});
    LintOptions options;
    options.run.context = &tight;
    const LintReport report =
        LintEngine().run(input_for(p, &analysis), options);
    EXPECT_FALSE(report.complete) << what;
    EXPECT_EQ(report.status, ErrorCode::kNodeBudgetExceeded) << what;
    EXPECT_NE(report.message.find("'redundancy'"), std::string::npos)
        << what;
    expect_rederives(analysis, what);
  }
}

TEST(LintGovern, ArenaFaultInRedundancyLeavesTheCallersArenaExact) {
  const Policy p = simplified_site();
  for (const std::uint64_t fire_on : {3u, 300u}) {
    const std::string what = "fault on hit " + std::to_string(fire_on);
    FaultSpec spec;
    spec.site = fault::sites::kArenaAlloc;
    spec.fire_on = fire_on;
    FaultPlan plan(1, {spec});
    PolicyAnalysis analysis(p);
    LintOptions options;
    options.run.faults = &plan;
    const LintReport report =
        LintEngine().run(input_for(p, &analysis), options);
    EXPECT_FALSE(report.complete) << what;
    EXPECT_EQ(report.status, ErrorCode::kFaultInjected) << what;
    EXPECT_NE(report.message.find("'redundancy'"), std::string::npos)
        << what;
    EXPECT_EQ(plan.total_fires(), 1u) << what;
    expect_rederives(analysis, what);
  }
}

TEST(LintGovern, OwnAnalysisBreachOrFaultIsMarkedPartial) {
  // Without a caller's analysis the run builds one, hitting the
  // construct-phase site first and the arena's allocation site after.
  const Policy p = simplified_site();
  for (const char* site :
       {fault::sites::kConstructPhase, fault::sites::kArenaAlloc}) {
    FaultSpec spec;
    spec.site = site;
    spec.fire_on = 1;
    FaultPlan plan(1, {spec});
    LintOptions options;
    options.run.faults = &plan;
    const LintReport report = lint(p, options);
    EXPECT_FALSE(report.complete) << site;
    EXPECT_EQ(report.status, ErrorCode::kFaultInjected) << site;
    EXPECT_NE(report.message.find("pass '"), std::string::npos) << site;
  }
  RunContext tight = RunContext::with_budgets({.max_nodes = 5});
  LintOptions options;
  options.run.context = &tight;
  const LintReport report = lint(p, options);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.status, ErrorCode::kNodeBudgetExceeded);
}

TEST(LintGovern, RuleBudgetLeavesTheReportUngoverned) {
  // Lint generates no rules: the compaction note counts them. A one-rule
  // budget changes nothing, on a policy whose note fires and on one whose
  // generated policy would be far longer than itself.
  const Schema s = tiny2();
  const Policy compactable(s,
                           {rule(s, Interval(0, 3), Interval(0, 7), kAccept),
                            rule(s, Interval(4, 7), Interval(0, 7), kAccept),
                            Rule::catch_all(s, kDiscard)});
  for (const Policy& p : {compactable, simplified_site()}) {
    const LintReport ungoverned = lint(p);
    RunContext context = RunContext::with_budgets({.max_rules = 1});
    LintOptions options;
    options.run.context = &context;
    const LintReport governed = lint(p, options);
    ASSERT_TRUE(governed.complete) << governed.message;
    EXPECT_EQ(render_json(input_for(p, nullptr), governed),
              render_json(input_for(p, nullptr), ungoverned));
    EXPECT_EQ(context.rules_charged(), 0u);
  }
  EXPECT_NE(find_check(lint(compactable), "policy.compactable"), nullptr);
}

// ---------------------------------------------------------------------------
// CLI: the exit-code contract, in-process.

TEST(LintCli, CleanPolicyExitsZero) {
  const std::string path = write_temp(
      "lint_clean.fw", "discard sip=0.0.0.0/1\naccept sip=128.0.0.0/1\n");
  std::string out;
  std::string err;
  EXPECT_EQ(cli({path}, &out, &err), 0) << out << err;
  EXPECT_NE(out.find("0 error(s)"), std::string::npos);
}

TEST(LintCli, FindingsExitOne) {
  const std::string path = std::string(DFW_CORPUS_DIR) + "/native/basic.fw";
  std::string out;
  EXPECT_EQ(cli({path}, &out), 1);
  EXPECT_NE(out.find("["), std::string::npos);  // at least one [check-id]
}

TEST(LintCli, CorpusFingerprintsArePinned) {
  // Baselines store these: the bytes each finding's fingerprint hashes,
  // its anchored rules' text included, must not change.
  const std::string corpus = DFW_CORPUS_DIR;
  const std::vector<std::pair<std::vector<std::string>,
                              std::vector<std::string>>>
      cases = {
          {{corpus + "/native/basic.fw"},
           {"f97a332aa4083bb1", "af0bfbf3df2e538c", "55d9f496f78c278d",
            "88aab51b2e19b93b"}},
          {{corpus + "/native/multifield.fw"},
           {"ba9aa763ed195245", "5e3ee79eb1a5249e", "1ae2f1498144ad9c"}},
          {{"--format=iptables", corpus + "/iptables/basic.rules"},
           {"3e6775b36a2eb726"}},
          {{"--format=iptables", corpus + "/iptables/multiport.rules"},
           {"eeb0d3310e69d9c7", "b0c1a468887bffc9", "a8e70720fc5a7b77"}},
          {{"--format=cisco", "--acl=101", corpus + "/cisco/basic.acl"},
           {"06b39121af2e8257", "ddf903a5fe2852e5", "111daf85854ffa45",
            "03fe3bd9e15240a6"}},
      };
  const std::string key = "\"fingerprint\":\"";
  for (const auto& [args, expected] : cases) {
    std::vector<std::string> argv = args;
    argv.insert(argv.begin(), "--output=json");
    std::string out;
    EXPECT_EQ(cli(argv, &out), 1) << args.back();
    std::vector<std::string> found;
    for (std::size_t at = out.find(key); at != std::string::npos;
         at = out.find(key, at + 1)) {
      found.push_back(out.substr(at + key.size(), 16));
    }
    EXPECT_EQ(found, expected) << args.back();
  }
}

TEST(LintCli, UsageErrorsExitTwo) {
  std::string err;
  EXPECT_EQ(cli({}, nullptr, &err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos);
  EXPECT_EQ(cli({"--no-such-flag", "x"}, nullptr, &err), 2);
  EXPECT_EQ(cli({"--format=xml", "x"}, nullptr, &err), 2);
  EXPECT_EQ(cli({"--output=yaml", "x"}, nullptr, &err), 2);
  EXPECT_EQ(cli({"--threads=abc", "x"}, nullptr, &err), 2);
  EXPECT_EQ(cli({"a.fw", "b.fw"}, nullptr, &err), 2);
  EXPECT_EQ(cli({::testing::TempDir() + "definitely_missing.fw"}, nullptr,
                &err),
            2);
}

TEST(LintCli, MalformedAdapterInputsAreParseErrorsNotCrashes) {
  const std::string iptables =
      std::string(DFW_CORPUS_DIR) + "/lint/malformed.rules";
  std::string err;
  EXPECT_EQ(cli({"--format=iptables", iptables}, nullptr, &err), 2);
  EXPECT_NE(err.find("dfw_lint:"), std::string::npos);
  const std::string cisco = std::string(DFW_CORPUS_DIR) + "/lint/malformed.acl";
  EXPECT_EQ(cli({"--format=cisco", cisco}, nullptr, &err), 2);
  EXPECT_NE(err.find("dfw_lint:"), std::string::npos);
}

TEST(LintCli, AdapterFormatsLintEndToEnd) {
  const std::string iptables =
      std::string(DFW_CORPUS_DIR) + "/iptables/basic.rules";
  std::string out;
  EXPECT_EQ(cli({"--format=iptables", iptables}, &out), 1);
  const std::string cisco = std::string(DFW_CORPUS_DIR) + "/cisco/basic.acl";
  EXPECT_EQ(cli({"--format=cisco", "--acl=101", cisco}, &out), 1);
}

TEST(LintCli, SarifOutputValidatesViaTheCliValidator) {
  const std::string policy = std::string(DFW_CORPUS_DIR) + "/native/basic.fw";
  std::string sarif;
  EXPECT_EQ(cli({"--output=sarif", policy}, &sarif), 1);
  const std::string path = write_temp("lint_cli_report.sarif", sarif);
  std::string out;
  EXPECT_EQ(cli({"--validate-sarif=" + path}, &out), 0);
  EXPECT_NE(out.find("valid SARIF"), std::string::npos);
  const std::string bad = write_temp("lint_cli_bad.sarif", "{\"nope\":1}");
  std::string err;
  EXPECT_EQ(cli({"--validate-sarif=" + bad}, nullptr, &err), 1);
  EXPECT_FALSE(err.empty());
}

TEST(LintCli, BaselineWorkflowGatesOnNewFindingsOnly) {
  const std::string policy = std::string(DFW_CORPUS_DIR) + "/native/basic.fw";
  const std::string baseline = ::testing::TempDir() + "lint_cli_baseline.txt";
  std::string out;
  EXPECT_EQ(cli({"--write-baseline=" + baseline, policy}, &out), 0);
  EXPECT_NE(out.find("wrote"), std::string::npos);
  // Same policy, same baseline: everything suppressed, gate passes.
  EXPECT_EQ(cli({"--baseline=" + baseline, policy}, &out), 0);
  EXPECT_NE(out.find("suppressed by baseline"), std::string::npos);
  // A malformed baseline fails loudly rather than un-suppressing.
  const std::string bad = write_temp("lint_cli_baseline_bad.txt", "oops\n");
  std::string err;
  EXPECT_EQ(cli({"--baseline=" + bad, policy}, nullptr, &err), 2);
  EXPECT_NE(err.find("line 1"), std::string::npos);
}

TEST(LintCli, EmptyBaselineSuppressesNothingAndIsNotAUsageError) {
  // The fresh-project workflow: `touch baseline && dfw_lint --baseline=...`
  // must behave exactly like no baseline (exit 1 on findings, 0 when
  // clean), never exit 2. Whitespace-only and BOM-stamped variants ride
  // the same path.
  const std::string policy = std::string(DFW_CORPUS_DIR) + "/native/basic.fw";
  for (const auto& [name, text] :
       {std::pair<const char*, const char*>{"lint_cli_baseline_empty.txt", ""},
        {"lint_cli_baseline_ws.txt", " \t\v\f\n\v\f\n"},
        {"lint_cli_baseline_bom.txt", "\xEF\xBB\xBF"}}) {
    const std::string path = write_temp(name, text);
    std::string out;
    std::string err;
    EXPECT_EQ(cli({"--baseline=" + path, policy}, &out, &err), 1)
        << name << ": " << err;
    EXPECT_EQ(err.find("dfw_lint:"), std::string::npos) << name << ": " << err;
  }
  const std::string clean = write_temp(
      "lint_cli_clean_for_baseline.fw",
      "discard sip=0.0.0.0/1\naccept sip=128.0.0.0/1\n");
  const std::string empty = write_temp("lint_cli_baseline_empty2.txt", "");
  std::string out;
  EXPECT_EQ(cli({"--baseline=" + empty, clean}, &out), 0);
}

TEST(LintCli, BudgetedRunExitsOneWithPartialBanner) {
  const std::string path = write_temp("lint_cli_budget.fw", [] {
    std::string text;
    for (int i = 0; i < 200; ++i) {
      const int lo = (i * 16) % 2048;
      text += (i % 2 == 0 ? "accept" : "discard");
      text += " sport=" + std::to_string(lo) + "-" + std::to_string(lo + 2048);
      text += " dport=" + std::to_string(lo) + "-" + std::to_string(lo + 2048);
      text += "\n";
    }
    text += "discard\n";
    return text;
  }());
  std::string out;
  EXPECT_EQ(cli({"--max-nodes=2000", path}, &out), 1);
  EXPECT_NE(out.find("PARTIAL"), std::string::npos);
}

TEST(LintCli, ListPassesAndHelp) {
  std::string out;
  EXPECT_EQ(cli({"--list-passes"}, &out), 0);
  EXPECT_NE(out.find("dead-rules"), std::string::npos);
  EXPECT_NE(out.find("redundancy"), std::string::npos);
  EXPECT_EQ(cli({"--help"}, &out), 0);
  EXPECT_NE(out.find("exit codes"), std::string::npos);
}

TEST(LintCli, PassSelectionAndThreadsFlagsWork) {
  const std::string policy = std::string(DFW_CORPUS_DIR) + "/native/basic.fw";
  std::string serial;
  EXPECT_EQ(cli({"--output=json", "--passes=syntax-pairs", policy}, &serial),
            1);
  std::string threaded;
  EXPECT_EQ(cli({"--output=json", "--passes=syntax-pairs", "--threads=4",
                 policy},
                &threaded),
            1);
  EXPECT_EQ(serial, threaded);  // byte-identical across thread counts
}

}  // namespace
}  // namespace dfw::lint
