#include "analysis/property.hpp"

#include <stdexcept>

namespace dfw {
namespace {

PropertyResult check_on_diagram(const ArenaDiagram& diagram,
                                const Property& prop) {
  if (!prop.scope.decision.has_value()) {
    throw std::invalid_argument(
        "check_property: the property must require a decision");
  }
  PropertyResult result;
  switch (prop.mode) {
    case PropertyMode::kForAll: {
      // Counterexamples: scope traffic with any *other* decision.
      Query complement = prop.scope;
      complement.decision.reset();
      for (QueryResult& r : run_query(diagram, complement)) {
        if (r.decision != *prop.scope.decision) {
          result.counterexamples.push_back(std::move(r));
        }
      }
      result.holds = result.counterexamples.empty();
      return result;
    }
    case PropertyMode::kExists: {
      result.holds = !run_query(diagram, prop.scope).empty();
      return result;
    }
  }
  throw std::invalid_argument("check_property: unknown mode");
}

}  // namespace

PropertyResult check_property(const Policy& policy, const Property& prop) {
  return check_on_diagram(build_diagram(policy, {}), prop);
}

std::vector<PropertyResult> check_properties(
    const Policy& policy, const std::vector<Property>& props) {
  const ArenaDiagram diagram = build_diagram(policy, {});
  std::vector<PropertyResult> results;
  results.reserve(props.size());
  for (const Property& prop : props) {
    results.push_back(check_on_diagram(diagram, prop));
  }
  return results;
}

std::string format_property_report(
    const Schema& schema, const DecisionSet& decisions,
    const std::vector<Property>& props,
    const std::vector<PropertyResult>& results) {
  if (props.size() != results.size()) {
    throw std::invalid_argument(
        "format_property_report: property/result count mismatch");
  }
  std::string out;
  for (std::size_t i = 0; i < props.size(); ++i) {
    out += (results[i].holds ? "PASS " : "FAIL ") + props[i].name + "\n";
    for (const QueryResult& cx : results[i].counterexamples) {
      out += "      counterexample: " +
             format_query_results(schema, decisions, {cx});
    }
  }
  return out;
}

}  // namespace dfw
