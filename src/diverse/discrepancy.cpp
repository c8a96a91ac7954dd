#include "diverse/discrepancy.hpp"

#include "fw/format.hpp"

namespace dfw {
namespace {

std::string team_label(const std::vector<std::string>& names,
                       std::size_t i) {
  if (i < names.size() && !names[i].empty()) {
    return names[i];
  }
  std::string label = "team";
  label += std::to_string(i + 1);
  return label;
}

}  // namespace

std::string format_discrepancy(const Schema& schema,
                               const DecisionSet& decisions,
                               const Discrepancy& d,
                               const std::vector<std::string>& team_names) {
  std::string out;
  bool any_field = false;
  for (std::size_t i = 0; i < schema.field_count(); ++i) {
    if (d.conjuncts[i] == schema.domain_set(i)) {
      continue;
    }
    if (any_field) {
      out += " ^ ";
    }
    const Field& field = schema.field(i);
    out += field.name;
    out += " in ";
    out += format_spec(field, d.conjuncts[i]);
    any_field = true;
  }
  if (!any_field) {
    out += "all packets";
  }
  out += " : ";
  for (std::size_t i = 0; i < d.decisions.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += team_label(team_names, i);
    out += '=';
    out += decisions.name(d.decisions[i]);
  }
  return out;
}

std::string format_discrepancy_report(
    const Schema& schema, const DecisionSet& decisions,
    const std::vector<Discrepancy>& discrepancies,
    const std::vector<std::string>& team_names) {
  if (discrepancies.empty()) {
    return "no functional discrepancies: the firewalls are equivalent\n";
  }
  std::string out = "functional discrepancies (";
  out += std::to_string(discrepancies.size());
  out += "):\n";
  Value packets = 0;
  for (std::size_t i = 0; i < discrepancies.size(); ++i) {
    out += "  d";
    out += std::to_string(i + 1);
    out += ": ";
    out += format_discrepancy(schema, decisions, discrepancies[i],
                              team_names);
    out += '\n';
    const Value n = discrepancy_packet_count(discrepancies[i]);
    packets = (packets > UINT64_MAX - n) ? UINT64_MAX : packets + n;
  }
  out += "  total packets affected: ";
  if (packets == UINT64_MAX) {
    out += "2^64 or more (saturated)";
  } else {
    out += std::to_string(packets);
  }
  out += '\n';
  return out;
}

}  // namespace dfw
