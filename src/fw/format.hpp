// Pretty-printing of rules, policies, and field value sets.
//
// Discrepancy reports must be "human readable ... in rulelike format"
// (paper, Sections 1.2 and 7.5). The formatter renders interval sets
// according to the field kind — CIDR prefixes for IPv4 fields (Section 7.1),
// mnemonics for protocols, ranges otherwise — and round-trips through the
// parser.

#pragma once

#include <string>

#include "fw/decision.hpp"
#include "fw/policy.hpp"

namespace dfw {

/// Renders one field's value set in parser syntax ("*", "25", "10-20",
/// "224.168.0.0/16", "tcp", comma unions).
std::string format_spec(const Field& field, const IntervalSet& set);

/// format_spec appended to `out`.
void append_spec(std::string& out, const Field& field, const IntervalSet& set);

/// Renders a rule in parser syntax: "<decision> f1=... f2=...". Fields whose
/// set is the whole domain are omitted.
std::string format_rule(const Schema& schema, const DecisionSet& decisions,
                        const Rule& rule);

/// format_rule appended to `out`.
void append_rule_text(std::string& out, const Schema& schema,
                      const DecisionSet& decisions, const Rule& rule);

/// Renders a whole policy, one rule per line, trailing newline included.
std::string format_policy(const Policy& policy, const DecisionSet& decisions);

/// Renders a policy as a numbered table resembling the paper's Tables 1-2.
std::string format_policy_table(const Policy& policy,
                                const DecisionSet& decisions);

}  // namespace dfw
