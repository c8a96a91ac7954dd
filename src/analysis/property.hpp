// Property checking.
//
// The paper's related work verifies access policies against declarative
// properties (its ref [8], Fisler et al.) and its own lineage answers
// firewall queries (ref [20]); combining the two gives a verification
// API for the design and resolution phases: assert that a policy
// satisfies statements like "no packet from the malicious domain is
// accepted" or "the mail server can receive TCP port 25", and get exact
// counterexample traffic classes when it does not.
//
// A Property constrains some fields and requires a decision for every (or
// some) packet in the constrained set:
//   kForAll — every matching packet must map to `required`
//   kExists — at least one matching packet must map to `required`

#pragma once

#include <string>
#include <vector>

#include "query/query.hpp"

namespace dfw {

enum class PropertyMode {
  kForAll,
  kExists,
};

struct Property {
  std::string name;      ///< for reports
  Query scope;           ///< constrained packet set + required decision
  PropertyMode mode = PropertyMode::kForAll;
};

/// Outcome of checking one property. For a failed kForAll,
/// counterexamples hold the traffic classes inside the scope whose
/// decision differs from the required one; for a failed kExists they are
/// empty (nothing in scope has the required decision).
struct PropertyResult {
  bool holds = false;
  std::vector<QueryResult> counterexamples;
};

/// Checks one property; the query's decision filter is the requirement
/// and must be set.
PropertyResult check_property(const Policy& policy, const Property& prop);

/// Checks a batch against one policy (the diagram is built once).
std::vector<PropertyResult> check_properties(
    const Policy& policy, const std::vector<Property>& props);

/// Renders a report line per property; counterexamples rendered rule-like.
std::string format_property_report(const Schema& schema,
                                   const DecisionSet& decisions,
                                   const std::vector<Property>& props,
                                   const std::vector<PropertyResult>& results);

}  // namespace dfw
