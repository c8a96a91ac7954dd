// Migration audit: verifying a firewall translation across vendors.
//
// A common operation the paper's comparison pipeline makes safe: a site
// migrates its edge filter from a Cisco router ACL to a Linux iptables
// host. Both configurations are parsed into the same policy model and
// compared — zero discrepancies proves the migration faithful; any
// discrepancy pinpoints, in rule-like terms, exactly which traffic the
// new firewall treats differently. We audit one faithful translation and
// one with two realistic translation mistakes.

#include <iostream>

#include "adapters/cisco.hpp"
#include "adapters/iptables.hpp"
#include "diverse/discrepancy.hpp"
#include "fdd/compare.hpp"
#include "rt/executor.hpp"

int main() {
  using namespace dfw;
  const DecisionSet& decisions = default_decisions();

  // Audits share one two-worker pool: each pairwise pipeline builds its
  // FDDs concurrently (output is identical to serial).
  Executor pool(2);
  CompareOptions compare_options;
  compare_options.run.executor = &pool;

  // The router configuration being retired.
  const Policy router = parse_cisco_acl(
      "access-list 120 remark edge filter, 2019-2026\n"
      "access-list 120 permit tcp any host 10.1.0.25 eq smtp\n"
      "access-list 120 permit tcp any 10.1.0.0 0.0.0.255 range 80 443\n"
      "access-list 120 permit udp any eq domain any\n"
      "access-list 120 deny ip 203.0.113.0 0.0.0.255 any\n"
      "access-list 120 permit tcp 10.9.0.0 0.0.255.255 any eq 22\n",
      "120");

  // A faithful iptables translation.
  const Policy faithful = parse_iptables_save(
      ":INPUT DROP [0:0]\n"
      "-A INPUT -d 10.1.0.25/32 -p tcp --dport 25 -j ACCEPT\n"
      "-A INPUT -d 10.1.0.0/24 -p tcp --dport 80:443 -j ACCEPT\n"
      "-A INPUT -p udp --sport 53 -j ACCEPT\n"
      "-A INPUT -s 203.0.113.0/24 -j DROP\n"
      "-A INPUT -s 10.9.0.0/16 -p tcp --dport 22 -j ACCEPT\n",
      "INPUT");

  std::cout << "== Faithful translation ==\n";
  const std::vector<Discrepancy> clean =
      discrepancies(router, faithful, compare_options);
  std::cout << format_discrepancy_report(router.schema(), decisions, clean,
                                         {"cisco", "iptables"})
            << "\n";

  // A buggy translation: --dport/--sport confused on the DNS rule, and
  // the ban demoted below the ssh rule. The comparison separates the two
  // edits precisely: the port confusion produces real discrepancies, while
  // the reorder is proved harmless (the ssh and ban predicates are
  // disjoint) and generates none — a semantic diff, not a textual one.
  const Policy buggy = parse_iptables_save(
      ":INPUT DROP [0:0]\n"
      "-A INPUT -d 10.1.0.25/32 -p tcp --dport 25 -j ACCEPT\n"
      "-A INPUT -d 10.1.0.0/24 -p tcp --dport 80:443 -j ACCEPT\n"
      "-A INPUT -p udp --dport 53 -j ACCEPT\n"
      "-A INPUT -s 10.9.0.0/16 -p tcp --dport 22 -j ACCEPT\n"
      "-A INPUT -s 203.0.113.0/24 -j DROP\n",
      "INPUT");

  std::cout << "== Buggy translation ==\n";
  const std::vector<Discrepancy> diffs =
      discrepancies(router, buggy, compare_options);
  std::cout << format_discrepancy_report(router.schema(), decisions, diffs,
                                         {"cisco", "iptables"});
  std::cout << "\nverdict: "
            << (diffs.empty() ? "safe to cut over"
                              : "DO NOT cut over — fix the classes above")
            << "\n";
  return diffs.empty() ? 1 : 0;  // the buggy one must show discrepancies
}
