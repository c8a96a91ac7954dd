// Diverse design, all three phases (Section 2): three teams design a
// firewall for a small campus network, the session discovers every
// functional discrepancy, a resolution plan arbitrates each one, and both
// resolution methods (Section 6) emit a final unanimously-agreed firewall.

#include <iostream>

#include "diverse/workflow.hpp"
#include "fw/format.hpp"
#include "fw/parser.hpp"
#include "rt/executor.hpp"

int main() {
  using namespace dfw;
  const Schema schema = five_tuple_schema();
  DecisionSet decisions;  // accept/discard

  // Session options: method-1 resolution, which corrects the diagram and
  // needs no base team, and a worker pool for the comparison phase
  // (results are identical to serial; drop the executor field to run on
  // the calling thread only).
  Executor pool(Executor::hardware_threads());
  WorkflowOptions options;
  options.resolution = ResolutionMethod::kCorrectedFdd;
  options.run.executor = &pool;
  DiverseDesign session(decisions, options);

  // Phase 1 — design. The spec: web (80/443, TCP) to 10.1.0.0/24 is open;
  // ssh only from the ops net 10.9.0.0/16; the scanner net 198.51.100.0/24
  // is banned outright; internal 10/8 <-> 10/8 traffic flows freely;
  // default deny.
  session.submit("red",
                 parse_policy(schema, decisions,
                              "discard sip=198.51.100.0/24\n"
                              "accept dip=10.1.0.0/24 dport=80,443 proto=tcp\n"
                              "accept sip=10.9.0.0/16 dport=22 proto=tcp\n"
                              "accept sip=10.0.0.0/8 dip=10.0.0.0/8\n"
                              "discard\n"));
  session.submit("green",
                 parse_policy(schema, decisions,
                              // green forgot to ban the scanner net first —
                              // a scanner can hit the web ports.
                              "accept dip=10.1.0.0/24 dport=80,443 proto=tcp\n"
                              "discard sip=198.51.100.0/24\n"
                              "accept sip=10.9.0.0/16 dport=22 proto=tcp\n"
                              "accept sip=10.0.0.0/8 dip=10.0.0.0/8\n"
                              "discard\n"));
  session.submit("blue",
                 parse_policy(schema, decisions,
                              // blue opened ssh to everyone by mistake and
                              // forgot UDP is not part of the web rule.
                              "discard sip=198.51.100.0/24\n"
                              "accept dip=10.1.0.0/24 dport=80,443\n"
                              "accept dport=22 proto=tcp\n"
                              "accept sip=10.0.0.0/8 dip=10.0.0.0/8\n"
                              "discard\n"));

  // Phase 2 — comparison.
  std::cout << "== Comparison phase ==\n" << session.report() << "\n";

  // Phase 3 — resolution. The spec is the arbiter: red's reading is the
  // intended one for every discrepancy here, so adopt red's decisions.
  const std::vector<Discrepancy> diffs = session.compare();
  ResolutionPlan plan;
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    plan.push_back(adopt(i, diffs[i], /*winner_team=*/0));
  }

  // Method 1 comes from the session options; method 2 overrides per call.
  const Policy via_fdd = session.resolve(plan);
  const Policy via_corrections =
      session.resolve(plan, ResolutionMethod::kPrependAndTrim,
                      /*base_team=*/2);

  std::cout << "== Final firewall, method 1 (corrected FDD, "
            << via_fdd.size() << " rules) ==\n"
            << format_policy(via_fdd, decisions) << "\n"
            << "== Final firewall, method 2 (corrections + original, "
            << via_corrections.size() << " rules) ==\n"
            << format_policy(via_corrections, decisions) << "\n"
            << "methods equivalent: "
            << (equivalent(via_fdd, via_corrections) ? "yes" : "no") << "\n"
            << "equivalent to red's design: "
            << (equivalent(via_fdd, session.policy(0)) ? "yes" : "no")
            << "\n";
  return 0;
}
