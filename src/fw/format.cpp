#include "fw/format.hpp"

#include <bit>
#include <charconv>

#include "net/ipv4.hpp"
#include "net/ipv6.hpp"

namespace dfw {
namespace {

void append_number(std::string& out, Value v) {
  char digits[20];
  const auto end = std::to_chars(digits, digits + sizeof digits, v).ptr;
  out.append(digits, end);
}

// A protocol value's mnemonic, or null where it prints as a number.
const char* protocol_name(const Field& field, Value v) {
  if (field.domain.hi() <= 1) {
    return v == 0 ? "tcp" : "udp";
  }
  switch (v) {
    case 1:
      return "icmp";
    case 6:
      return "tcp";
    case 17:
      return "udp";
    default:
      return nullptr;
  }
}

void append_range(std::string& out, const Interval& iv) {
  append_number(out, iv.lo());
  if (iv.lo() != iv.hi()) {
    out += '-';
    append_number(out, iv.hi());
  }
}

void append_interval(std::string& out, const Field& field,
                     const Interval& iv) {
  switch (field.kind) {
    case FieldKind::kIpv4: {
      // CIDR when one aligned block of 2^k addresses is the interval (the
      // minimal prefix cover is then that one prefix), else an address
      // range.
      const std::uint64_t span = iv.hi() - iv.lo();
      append_ipv4(out, static_cast<std::uint32_t>(iv.lo()));
      if ((span & (span + 1)) == 0 && (iv.lo() & span) == 0) {
        out += '/';
        append_number(out, static_cast<Value>(32 - std::popcount(span)));
      } else {
        out += '-';
        append_ipv4(out, static_cast<std::uint32_t>(iv.hi()));
      }
      return;
    }
    case FieldKind::kProtocol: {
      const char* name =
          iv.lo() == iv.hi() ? protocol_name(field, iv.lo()) : nullptr;
      if (name != nullptr) {
        out += name;
      } else {
        append_range(out, iv);
      }
      return;
    }
    case FieldKind::kInteger:
    case FieldKind::kIpv6Hi:
    case FieldKind::kIpv6Lo:
      // IPv6 halves reaching this path render as raw 64-bit ranges; the
      // rule formatter prints recognisable (hi, lo) pairs as CIDR instead.
      append_range(out, iv);
      return;
  }
  out += iv.to_string();
}

// Renders an IPv6 (hi, lo) conjunct pair as one CIDR when it has prefix
// shape; nullopt otherwise.
std::optional<std::string> ipv6_pair_as_prefix(const IntervalSet& hi,
                                               const IntervalSet& lo) {
  if (hi.run_count() != 1 || lo.run_count() != 1) {
    return std::nullopt;
  }
  const Interval h = hi.intervals().front();
  const Interval l = lo.intervals().front();
  const bool lo_full = l == Interval(0, UINT64_MAX);
  const auto aligned_block_bits = [](const Interval& iv) -> std::optional<int> {
    // Returns the number of free (suffix) bits of an aligned block.
    const std::uint64_t span = iv.hi() - iv.lo();
    if ((span & (span + 1)) != 0) {
      return std::nullopt;  // span+1 not a power of two
    }
    if (span == UINT64_MAX) {
      return iv.lo() == 0 ? std::optional<int>(64) : std::nullopt;
    }
    if ((iv.lo() & span) != 0) {
      return std::nullopt;  // unaligned
    }
    int bits = 0;
    std::uint64_t s = span;
    while (s != 0) {
      ++bits;
      s >>= 1;
    }
    return bits;
  };
  if (lo_full) {
    const auto free_bits = aligned_block_bits(h);
    if (!free_bits) {
      return std::nullopt;
    }
    return Ipv6Prefix{{h.lo(), 0}, 64 - *free_bits}.to_string();
  }
  if (h.lo() != h.hi()) {
    return std::nullopt;
  }
  const auto free_bits = aligned_block_bits(l);
  if (!free_bits) {
    return std::nullopt;
  }
  return Ipv6Prefix{{h.lo(), l.lo()}, 128 - *free_bits}.to_string();
}

}  // namespace

std::string format_spec(const Field& field, const IntervalSet& set) {
  std::string out;
  append_spec(out, field, set);
  return out;
}

void append_spec(std::string& out, const Field& field,
                 const IntervalSet& set) {
  const std::span<const Interval> runs = set.intervals();
  if (runs.size() == 1 && runs.front() == field.domain) {
    out += '*';
    return;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    append_interval(out, field, runs[i]);
  }
}

std::string format_rule(const Schema& schema, const DecisionSet& decisions,
                        const Rule& rule) {
  std::string out;
  append_rule_text(out, schema, decisions, rule);
  return out;
}

void append_rule_text(std::string& out, const Schema& schema,
                      const DecisionSet& decisions, const Rule& rule) {
  out += decisions.name(rule.decision());
  for (std::size_t i = 0; i < schema.field_count(); ++i) {
    const Field& field = schema.field(i);
    if (field.kind == FieldKind::kIpv6Hi) {
      const IntervalSet& hi = rule.conjunct(i);
      const IntervalSet& lo = rule.conjunct(i + 1);
      const bool both_full =
          hi == schema.domain_set(i) && lo == schema.domain_set(i + 1);
      if (both_full) {
        ++i;  // wildcard pair: omit, and skip the lo half
        continue;
      }
      if (const auto cidr = ipv6_pair_as_prefix(hi, lo)) {
        out += ' ';
        out += field.name;
        out += '=';
        out += *cidr;
        ++i;
        continue;
      }
      // Fall through: print both halves raw (report-style output).
    }
    if (rule.conjunct(i) == schema.domain_set(i)) {
      continue;
    }
    out += ' ';
    out += field.name;
    out += '=';
    append_spec(out, field, rule.conjunct(i));
  }
}

std::string format_policy(const Policy& policy,
                          const DecisionSet& decisions) {
  std::string out;
  for (const Rule& rule : policy.rules()) {
    append_rule_text(out, policy.schema(), decisions, rule);
    out += '\n';
  }
  return out;
}

std::string format_policy_table(const Policy& policy,
                                const DecisionSet& decisions) {
  std::string out;
  for (std::size_t i = 0; i < policy.size(); ++i) {
    out += "r";
    out += std::to_string(i + 1);
    out += ": ";
    const Rule& rule = policy.rule(i);
    for (std::size_t f = 0; f < policy.schema().field_count(); ++f) {
      const Field& field = policy.schema().field(f);
      out += field.name;
      out += " in ";
      append_spec(out, field, rule.conjunct(f));
      out += " ^ ";
    }
    // Replace the trailing " ^ " with the decision arrow.
    out.erase(out.size() - 3);
    out += " -> " + decisions.name(rule.decision()) + "\n";
  }
  return out;
}

}  // namespace dfw
