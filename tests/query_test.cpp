// Firewall query tests: answers must partition exactly the queried packet
// set, respect decision filters, and match brute-force evaluation.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fdd/arena.hpp"
#include "fw/parser.hpp"
#include "net/ipv4.hpp"
#include "query/query.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::all_packets;
using test::tiny3;

bool result_contains(const QueryResult& r, const Packet& pkt) {
  for (std::size_t f = 0; f < pkt.size(); ++f) {
    if (!r.conjuncts[f].contains(pkt[f])) {
      return false;
    }
  }
  return true;
}

TEST(Query, UnconstrainedQueryDescribesWholePolicy) {
  std::mt19937_64 rng(81);
  const Policy p = test::random_policy(tiny3(), 5, rng);
  const std::vector<QueryResult> results =
      run_query(p, Query::any(p.schema()));
  for (const Packet& pkt : all_packets(tiny3())) {
    int hits = 0;
    for (const QueryResult& r : results) {
      if (result_contains(r, pkt)) {
        ++hits;
        EXPECT_EQ(r.decision, p.evaluate(pkt));
      }
    }
    EXPECT_EQ(hits, 1) << "answers must partition the packet space";
  }
}

TEST(Query, FieldConstraintRestrictsAnswers) {
  std::mt19937_64 rng(82);
  const Policy p = test::random_policy(tiny3(), 5, rng);
  Query q = Query::any(p.schema());
  q.constraints[0] = IntervalSet(Interval(2, 3));
  const std::vector<QueryResult> results = run_query(p, q);
  for (const Packet& pkt : all_packets(tiny3())) {
    const bool in_scope = pkt[0] >= 2 && pkt[0] <= 3;
    int hits = 0;
    for (const QueryResult& r : results) {
      if (result_contains(r, pkt)) {
        ++hits;
        EXPECT_EQ(r.decision, p.evaluate(pkt));
      }
    }
    EXPECT_EQ(hits, in_scope ? 1 : 0);
  }
}

TEST(Query, DecisionFilterSelectsExactlyThatTraffic) {
  std::mt19937_64 rng(83);
  const Policy p = test::random_policy(tiny3(), 5, rng);
  Query q = Query::any(p.schema());
  q.decision = kDiscard;
  const std::vector<QueryResult> results = run_query(p, q);
  for (const Packet& pkt : all_packets(tiny3())) {
    bool covered = false;
    for (const QueryResult& r : results) {
      covered = covered || result_contains(r, pkt);
    }
    EXPECT_EQ(covered, p.evaluate(pkt) == kDiscard);
  }
}

TEST(Query, RealisticFiveTupleQuestion) {
  // "Which packets may reach the mail server's port 25?"
  const Schema schema = five_tuple_schema();
  const DecisionSet& ds = default_decisions();
  const Policy p = parse_policy(schema, ds,
                                "discard sip=224.168.0.0/16\n"
                                "accept dip=192.168.0.1 dport=25 proto=tcp\n"
                                "discard\n");
  Query q = Query::any(schema);
  q.constraints[1] = IntervalSet(Interval::point(*parse_ipv4("192.168.0.1")));
  q.constraints[3] = IntervalSet(Interval::point(25));
  q.decision = kAccept;
  const std::vector<QueryResult> results = run_query(p, q);
  ASSERT_EQ(results.size(), 1u);
  // Accepted: TCP only, and never from the malicious /16.
  EXPECT_EQ(results[0].conjuncts[4], IntervalSet(Interval::point(6)));
  EXPECT_FALSE(results[0].conjuncts[0].contains(*parse_ipv4("224.168.0.1")));
  const std::string report = format_query_results(schema, ds, results);
  EXPECT_NE(report.find("-> accept"), std::string::npos);
  EXPECT_NE(report.find("dport in 25"), std::string::npos);
}

TEST(Query, EmptyAnswerForContradiction) {
  const Schema schema = tiny3();
  const Policy p(schema, {Rule::catch_all(schema, kAccept)});
  Query q = Query::any(schema);
  q.decision = kDiscard;  // nothing is discarded
  EXPECT_TRUE(run_query(p, q).empty());
  EXPECT_NE(format_query_results(schema, default_decisions(), {})
                .find("no packets"),
            std::string::npos);
}

// Brute-force ground truth for the diagram walk on tiny schemas, with
// non-comprehensive policies among the inputs: the results are pairwise
// disjoint and cover exactly the queried packets some rule first-matches
// (with the filtered decision, when there is a filter), each under its
// first-match decision; reachable_decisions is the set of first-match
// decisions.
TEST(Query, RandomQueriesMatchFirstMatchOnTinySchemas) {
  std::mt19937_64 rng(83);
  std::uniform_int_distribution<int> coin(0, 2);
  for (int trial = 0; trial < 60; ++trial) {
    const Schema schema = trial % 2 == 0 ? test::tiny2() : tiny3();
    Policy p = test::random_policy(schema, 2 + trial % 6, rng);
    if (trial % 3 == 0) {
      std::vector<Rule> rules = p.rules();
      rules.pop_back();  // drop the catch-all: some packets fall off
      p = Policy(schema, std::move(rules));
    }
    const ArenaDiagram diagram = build_diagram(p, {});

    std::vector<Decision> first_match_decisions;
    for (const Packet& pkt : all_packets(schema)) {
      if (const auto rule = p.first_match(pkt)) {
        first_match_decisions.push_back(p.rule(*rule).decision());
      }
    }
    std::sort(first_match_decisions.begin(), first_match_decisions.end());
    first_match_decisions.erase(std::unique(first_match_decisions.begin(),
                                            first_match_decisions.end()),
                                first_match_decisions.end());
    EXPECT_EQ(reachable_decisions(diagram), first_match_decisions)
        << "trial " << trial;

    for (int round = 0; round < 5; ++round) {
      Query q = Query::any(schema);
      for (std::size_t f = 0; f < schema.field_count(); ++f) {
        if (coin(rng) != 0) {
          q.constraints[f] = test::random_set(schema.domain(f), rng);
        }
      }
      if (coin(rng) == 0) {
        q.decision = coin(rng) == 0 ? kAccept : kDiscard;
      }
      const std::vector<QueryResult> results = run_query(diagram, q);
      for (const Packet& pkt : all_packets(schema)) {
        bool queried = true;
        for (std::size_t f = 0; f < schema.field_count(); ++f) {
          queried = queried && (q.constraints[f].empty() ||
                                q.constraints[f].contains(pkt[f]));
        }
        const auto rule = p.first_match(pkt);
        const bool wanted =
            queried && rule.has_value() &&
            (!q.decision || p.rule(*rule).decision() == *q.decision);
        int hits = 0;
        for (const QueryResult& r : results) {
          if (result_contains(r, pkt)) {
            ++hits;
            ASSERT_TRUE(rule.has_value()) << "trial " << trial;
            EXPECT_EQ(r.decision, p.rule(*rule).decision())
                << "trial " << trial;
          }
        }
        EXPECT_EQ(hits, wanted ? 1 : 0) << "trial " << trial;
      }
    }
  }
}

TEST(Query, ValidatesArityAndDomains) {
  const Schema schema = tiny3();
  const Policy p(schema, {Rule::catch_all(schema, kAccept)});
  Query bad_arity;
  bad_arity.constraints.resize(2);
  EXPECT_THROW(run_query(p, bad_arity), std::invalid_argument);
  Query bad_domain = Query::any(schema);
  bad_domain.constraints[0] = IntervalSet(Interval(0, 99));
  EXPECT_THROW(run_query(p, bad_domain), std::invalid_argument);
}

}  // namespace
}  // namespace dfw
