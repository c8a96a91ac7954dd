#include "diverse/discrepancy.hpp"

#include "fw/format.hpp"

namespace dfw {
namespace {

void append_discrepancy(std::string& out, const Schema& schema,
                        const DecisionSet& decisions, const Discrepancy& d,
                        const std::vector<std::string>& team_names) {
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
    append_spec(out, field, d.conjuncts[i]);
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
    if (i < team_names.size() && !team_names[i].empty()) {
      out += team_names[i];
    } else {
      out += "team";
      out += std::to_string(i + 1);
    }
    out += '=';
    out += decisions.name(d.decisions[i]);
  }
}

}  // namespace

std::string format_discrepancy(const Schema& schema,
                               const DecisionSet& decisions,
                               const Discrepancy& d,
                               const std::vector<std::string>& team_names) {
  std::string out;
  append_discrepancy(out, schema, decisions, d, team_names);
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
    append_discrepancy(out, schema, decisions, discrepancies[i], team_names);
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
