#include "fw/parser.hpp"

#include <cctype>
#include <charconv>
#include <vector>

#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "net/prefix.hpp"

namespace dfw {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

// The `sep`-separated parts of a string, read in place and in order, empty
// parts included: "a,,b" is "a", "", "b", and "" is one empty part.
class Parts {
 public:
  Parts(std::string_view s, char sep) : rest_(s), sep_(sep) {}

  /// Sets `part` to the next part; false once every part has been read.
  bool next(std::string_view& part) {
    if (done_) {
      return false;
    }
    const std::size_t end = rest_.find(sep_);
    if (end == std::string_view::npos) {
      part = rest_;
      done_ = true;
    } else {
      part = rest_.substr(0, end);
      rest_.remove_prefix(end + 1);
    }
    return true;
  }

 private:
  std::string_view rest_;
  char sep_;
  bool done_ = false;
};

std::optional<Value> parse_uint(std::string_view s) {
  if (s.empty()) {
    return std::nullopt;
  }
  Value v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return std::nullopt;
  }
  return v;
}

// Parses one value according to the field's display kind.
std::optional<Value> parse_value(const Field& field, std::string_view s) {
  switch (field.kind) {
    case FieldKind::kIpv4:
      if (auto addr = parse_ipv4(s)) {
        return Value{*addr};
      }
      return parse_uint(s);
    case FieldKind::kProtocol:
      if (s == "tcp") {
        // The paper's example schema uses {0 = TCP, 1 = UDP}; the real
        // IANA numbers (6, 17, 1) apply on 8-bit protocol domains.
        return field.domain.hi() <= 1 ? Value{0} : Value{6};
      }
      if (s == "udp") {
        return field.domain.hi() <= 1 ? Value{1} : Value{17};
      }
      if (s == "icmp" && field.domain.hi() > 1) {
        return Value{1};
      }
      return parse_uint(s);
    case FieldKind::kInteger:
    case FieldKind::kIpv6Hi:  // raw 64-bit halves accept plain integers;
    case FieldKind::kIpv6Lo:  // CIDR syntax is handled before atoms split
      return parse_uint(s);
  }
  return std::nullopt;
}

// Parses one comma-atom into an interval.
Interval parse_atom(const Field& field, std::string_view atom,
                    std::size_t line) {
  // CIDR prefix?
  if (field.kind == FieldKind::kIpv4 &&
      atom.find('/') != std::string_view::npos) {
    const auto prefix = parse_prefix(atom);
    if (!prefix) {
      throw ParseError(line, "bad prefix '" + std::string(atom) + "'");
    }
    return prefix->to_interval();
  }
  // Range a-b? (careful: IPv4 ranges contain '.', plain '-' split is safe
  // because dotted quads never contain '-')
  const std::size_t dash = atom.find('-');
  if (dash != std::string_view::npos) {
    const auto lo = parse_value(field, trim(atom.substr(0, dash)));
    const auto hi = parse_value(field, trim(atom.substr(dash + 1)));
    if (!lo || !hi || *lo > *hi) {
      throw ParseError(line, "bad range '" + std::string(atom) + "'");
    }
    return Interval(*lo, *hi);
  }
  const auto v = parse_value(field, atom);
  if (!v) {
    throw ParseError(line, "bad value '" + std::string(atom) + "' for field " +
                               field.name);
  }
  return Interval::point(*v);
}

IntervalSet parse_spec(const Field& field, std::string_view spec,
                       std::size_t line) {
  if (spec == "*" || spec == "all") {
    return IntervalSet(field.domain);
  }
  IntervalSet set;
  Parts atoms(spec, ',');
  for (std::string_view atom; atoms.next(atom);) {
    atom = trim(atom);
    if (atom.empty()) {
      throw ParseError(line, "empty atom in spec '" + std::string(spec) + "'");
    }
    set.add(parse_atom(field, atom, line));
  }
  if (set.min() < field.domain.lo() || set.max() > field.domain.hi()) {
    throw ParseError(line, "spec '" + std::string(spec) +
                               "' exceeds domain of field " + field.name);
  }
  return set;
}

Rule parse_rule_line(const Schema& schema, const DecisionSet& decisions,
                     std::string_view line_text, std::size_t line) {
  Parts words(line_text, ' ');
  std::string_view token;
  const auto next_token = [&] {
    while (words.next(token)) {
      token = trim(token);
      if (!token.empty()) {
        return true;
      }
    }
    return false;
  };
  if (!next_token()) {
    throw ParseError(line, "empty rule");
  }
  const auto decision = decisions.find(token);
  if (!decision) {
    throw ParseError(line, "unknown decision '" + std::string(token) + "'");
  }
  // A field's conjunct stays empty until a pair sets it, so an empty one
  // is a field not yet seen; the unset ones take their domain at the end.
  std::vector<IntervalSet> conjuncts(schema.field_count());
  while (next_token()) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      throw ParseError(line, "expected field=spec, got '" +
                                 std::string(token) + "'");
    }
    const std::string_view name = token.substr(0, eq);
    const auto idx = schema.index_of(name);
    if (!idx) {
      throw ParseError(line, "unknown field '" + std::string(name) + "'");
    }
    if (!conjuncts[*idx].empty()) {
      throw ParseError(line, "field '" + std::string(name) + "' repeated");
    }
    const Field& field = schema.field(*idx);
    if (field.kind == FieldKind::kIpv6Lo) {
      throw ParseError(line, "field '" + std::string(name) +
                                 "' is the low half of an IPv6 address; "
                                 "set it via its high-half field");
    }
    const std::string_view spec = token.substr(eq + 1);
    if (field.kind == FieldKind::kIpv6Hi) {
      // One CIDR (or bare address) per rule: an IPv6 prefix is exactly one
      // conjunct over the (hi, lo) pair, a union of prefixes is not.
      if (spec == "*" || spec == "all") {
        conjuncts[*idx] = IntervalSet(field.domain);
        continue;  // the low half stays unset, so full-domain too
      }
      const auto prefix = parse_ipv6_prefix(spec);
      if (!prefix) {
        throw ParseError(line, "bad IPv6 prefix '" + std::string(spec) +
                                   "' for field " + field.name);
      }
      const auto [hi, lo] = prefix->to_intervals();
      conjuncts[*idx] = IntervalSet(hi);
      conjuncts[*idx + 1] = IntervalSet(lo);
      continue;
    }
    conjuncts[*idx] = parse_spec(field, spec, line);
  }
  for (std::size_t i = 0; i < conjuncts.size(); ++i) {
    if (conjuncts[i].empty()) {
      conjuncts[i] = IntervalSet(schema.domain(i));
    }
  }
  return Rule(schema, std::move(conjuncts), *decision);
}

}  // namespace

Rule parse_rule(const Schema& schema, const DecisionSet& decisions,
                std::string_view line) {
  return parse_rule_line(schema, decisions, line, 1);
}

Policy parse_policy(const Schema& schema, const DecisionSet& decisions,
                    std::string_view text) {
  std::vector<Rule> rules;
  std::size_t line_no = 0;
  Parts lines(text, '\n');
  for (std::string_view raw; lines.next(raw);) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string_view::npos) {
      raw = raw.substr(0, hash);
    }
    raw = trim(raw);
    if (raw.empty()) {
      continue;
    }
    rules.push_back(parse_rule_line(schema, decisions, raw, line_no));
  }
  if (rules.empty()) {
    throw ParseError(line_no, "policy has no rules");
  }
  return Policy(schema, std::move(rules));
}

}  // namespace dfw
