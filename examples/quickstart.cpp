// Quickstart: the paper's running example end to end.
//
// Two teams design firewalls for the same requirement specification
// (Tables 1-2); we construct their FDDs (Figs. 2-3), shape them into
// semi-isomorphic form (Figs. 4-5), and print every functional discrepancy
// (Table 3). Run with --dot to additionally dump Graphviz for the four
// diagrams.

#include <cstring>
#include <iostream>

#include "diverse/discrepancy.hpp"
#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "fdd/dot.hpp"
#include "fdd/shape.hpp"
#include "fdd/stats.hpp"
#include "fw/format.hpp"
#include "fw/parser.hpp"

int main(int argc, char** argv) {
  using namespace dfw;
  const bool dump_dot = argc > 1 && std::strcmp(argv[1], "--dot") == 0;

  const Schema schema = example_schema();
  const DecisionSet& decisions = default_decisions();

  // Requirement specification (Section 2.1): the mail server 192.168.0.1
  // can receive e-mail; the malicious domain 224.168.0.0/16 is blocked;
  // everything else is accepted.
  const Policy team_a =
      parse_policy(schema, decisions,
                   "accept  I=0 D=192.168.0.1 N=25 P=tcp\n"
                   "discard I=0 S=224.168.0.0/16\n"
                   "accept\n");
  const Policy team_b =
      parse_policy(schema, decisions,
                   "discard I=0 S=224.168.0.0/16\n"
                   "accept  I=0 D=192.168.0.1 N=25 P=tcp\n"
                   "discard I=0 D=192.168.0.1\n"
                   "accept\n");

  std::cout << "== Team A's firewall (Table 1) ==\n"
            << format_policy_table(team_a, decisions) << "\n"
            << "== Team B's firewall (Table 2) ==\n"
            << format_policy_table(team_b, decisions) << "\n";

  // Step 1 — construction (Section 3).
  Fdd fa = build_fdd(team_a);
  Fdd fb = build_fdd(team_b);
  fa.validate();
  fb.validate();
  std::cout << "constructed FDD A: " << to_string(compute_stats(fa)) << "\n"
            << "constructed FDD B: " << to_string(compute_stats(fb)) << "\n";
  if (dump_dot) {
    std::cout << "\n-- FDD A (Fig. 2) --\n" << to_dot(fa, decisions)
              << "\n-- FDD B (Fig. 3) --\n" << to_dot(fb, decisions);
  }

  // Step 2 — shaping (Section 4).
  shape_pair(fa, fb);
  std::cout << "shaped FDD A:      " << to_string(compute_stats(fa)) << "\n"
            << "shaped FDD B:      " << to_string(compute_stats(fb)) << "\n"
            << "semi-isomorphic:   "
            << (semi_isomorphic(fa, fb) ? "yes" : "no") << "\n\n";
  if (dump_dot) {
    std::cout << "-- shaped FDD A (Fig. 4) --\n" << to_dot(fa, decisions)
              << "\n-- shaped FDD B (Fig. 5) --\n" << to_dot(fb, decisions);
  }

  // Step 3 — comparison (Section 5): Table 3.
  const std::vector<Discrepancy> diffs = compare_fdds(fa, fb);
  std::cout << "== Functional discrepancies (Table 3) ==\n"
            << format_discrepancy_report(schema, decisions, diffs,
                                         {"Team A", "Team B"});
  return 0;
}
