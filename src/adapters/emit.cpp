#include "adapters/emit.hpp"

#include <stdexcept>

#include "net/ipv4.hpp"
#include "net/prefix.hpp"

namespace dfw {
namespace {

// Field indices in five_tuple_schema().
constexpr std::size_t kSip = 0;
constexpr std::size_t kDip = 1;
constexpr std::size_t kSport = 2;
constexpr std::size_t kDport = 3;
constexpr std::size_t kProto = 4;

void require_five_tuple(const Policy& policy, const char* who) {
  if (!(policy.schema() == five_tuple_schema())) {
    throw std::invalid_argument(std::string(who) +
                                ": policy must use five_tuple_schema()");
  }
  if (!policy.last_rule_is_catch_all()) {
    throw std::invalid_argument(std::string(who) +
                                ": policy must end in a catch-all rule");
  }
}

bool is_full(const Schema& schema, std::size_t field, const IntervalSet& s) {
  return s == IntervalSet(schema.domain(field));
}

// One vendor-expressible slice of a model rule.
struct Atom {
  std::optional<Prefix> sip;     // nullopt = any
  std::optional<Prefix> dip;
  std::optional<Interval> sport; // nullopt = unconstrained
  std::optional<Interval> dport;
  std::optional<Value> proto;    // nullopt = ip/any
  Decision decision = kAccept;
};

std::vector<std::optional<Prefix>> address_pieces(const Schema& schema,
                                                  std::size_t field,
                                                  const IntervalSet& s) {
  if (is_full(schema, field, s)) {
    return {std::nullopt};
  }
  std::vector<std::optional<Prefix>> pieces;
  for (const Interval& run : s.intervals()) {
    for (const Prefix& p : interval_to_prefixes(run, 32)) {
      pieces.emplace_back(p);
    }
  }
  return pieces;
}

std::vector<std::optional<Interval>> port_pieces(const Schema& schema,
                                                 std::size_t field,
                                                 const IntervalSet& s) {
  if (is_full(schema, field, s)) {
    return {std::nullopt};
  }
  std::vector<std::optional<Interval>> pieces;
  for (const Interval& run : s.intervals()) {
    pieces.emplace_back(run);
  }
  return pieces;
}

std::vector<std::optional<Value>> proto_pieces(const Schema& schema,
                                               const IntervalSet& s,
                                               bool ports_constrained,
                                               const char* who) {
  if (is_full(schema, kProto, s)) {
    if (ports_constrained) {
      throw std::invalid_argument(
          std::string(who) +
          ": a rule constrains ports without pinning the protocol to "
          "tcp/udp — not expressible in this vendor language");
    }
    return {std::nullopt};
  }
  std::vector<std::optional<Value>> pieces;
  for (const Interval& run : s.intervals()) {
    for (Value v = run.lo(); v <= run.hi(); ++v) {
      pieces.emplace_back(v);
    }
  }
  if (ports_constrained) {
    for (const std::optional<Value>& v : pieces) {
      if (*v != 6 && *v != 17) {
        throw std::invalid_argument(
            std::string(who) +
            ": port constraints combined with a non-tcp/udp protocol are "
            "not expressible in this vendor language");
      }
    }
  }
  return pieces;
}

// Expands one model rule into vendor atoms, enforcing the expansion cap.
void expand_rule(const Policy& policy, const Rule& rule,
                 std::size_t max_expansion, const char* who,
                 std::vector<Atom>& out) {
  const Schema& schema = policy.schema();
  if (rule.decision() != kAccept && rule.decision() != kDiscard) {
    throw std::invalid_argument(std::string(who) +
                                ": only accept/discard are emittable");
  }
  const bool ports_constrained =
      !is_full(schema, kSport, rule.conjunct(kSport)) ||
      !is_full(schema, kDport, rule.conjunct(kDport));
  const auto sips = address_pieces(schema, kSip, rule.conjunct(kSip));
  const auto dips = address_pieces(schema, kDip, rule.conjunct(kDip));
  const auto sports = port_pieces(schema, kSport, rule.conjunct(kSport));
  const auto dports = port_pieces(schema, kDport, rule.conjunct(kDport));
  const auto protos =
      proto_pieces(schema, rule.conjunct(kProto), ports_constrained, who);

  const std::size_t expansion = sips.size() * dips.size() * sports.size() *
                                dports.size() * protos.size();
  if (out.size() + expansion > max_expansion) {
    throw std::length_error(
        std::string(who) + ": expansion exceeds the cap of " +
        std::to_string(max_expansion) +
        " vendor rules; raise max_expansion or simplify the policy");
  }
  for (const auto& sip : sips) {
    for (const auto& dip : dips) {
      for (const auto& sport : sports) {
        for (const auto& dport : dports) {
          for (const auto& proto : protos) {
            out.push_back({sip, dip, sport, dport, proto, rule.decision()});
          }
        }
      }
    }
  }
}

std::vector<Atom> expand_policy(const Policy& policy,
                                std::size_t max_expansion, const char* who) {
  std::vector<Atom> atoms;
  for (std::size_t i = 0; i + 1 < policy.size(); ++i) {
    expand_rule(policy, policy.rule(i), max_expansion, who, atoms);
  }
  return atoms;
}

const char* proto_name(Value v) {
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

}  // namespace

std::string emit_iptables_save(const Policy& policy, std::string_view chain,
                               std::size_t max_expansion) {
  require_five_tuple(policy, "emit_iptables_save");
  const Decision fallback = policy.rules().back().decision();
  if (fallback != kAccept && fallback != kDiscard) {
    throw std::invalid_argument(
        "emit_iptables_save: catch-all must be accept or discard");
  }
  const std::vector<Atom> atoms =
      expand_policy(policy, max_expansion, "emit_iptables_save");

  std::string out = "*filter\n:" + std::string(chain) + " " +
                    (fallback == kAccept ? "ACCEPT" : "DROP") + " [0:0]\n";
  for (const Atom& atom : atoms) {
    out += "-A " + std::string(chain);
    if (atom.sip) {
      out += " -s " + atom.sip->to_string();
    }
    if (atom.dip) {
      out += " -d " + atom.dip->to_string();
    }
    if (atom.proto) {
      const char* name = proto_name(*atom.proto);
      out += " -p " + (name ? std::string(name)
                            : std::to_string(*atom.proto));
    }
    const auto port_spec = [](const Interval& iv) {
      if (iv.lo() == iv.hi()) {
        return std::to_string(iv.lo());
      }
      return std::to_string(iv.lo()) + ":" + std::to_string(iv.hi());
    };
    if (atom.sport) {
      out += " --sport " + port_spec(*atom.sport);
    }
    if (atom.dport) {
      out += " --dport " + port_spec(*atom.dport);
    }
    out += atom.decision == kAccept ? " -j ACCEPT\n" : " -j DROP\n";
  }
  out += "COMMIT\n";
  return out;
}

std::string emit_cisco_acl(const Policy& policy, std::string_view acl_id,
                           std::size_t max_expansion) {
  require_five_tuple(policy, "emit_cisco_acl");
  const Decision fallback = policy.rules().back().decision();
  const std::vector<Atom> atoms =
      expand_policy(policy, max_expansion, "emit_cisco_acl");

  const auto address_spec = [](const std::optional<Prefix>& p) {
    if (!p) {
      return std::string("any");
    }
    if (p->length() == 32) {
      return "host " + format_ipv4(p->bits());
    }
    const Interval iv = p->to_interval();
    const std::uint32_t wildcard =
        static_cast<std::uint32_t>(iv.hi() - iv.lo());
    return format_ipv4(p->bits()) + " " + format_ipv4(wildcard);
  };
  const auto port_spec = [](const std::optional<Interval>& iv) {
    if (!iv) {
      return std::string();
    }
    if (iv->lo() == iv->hi()) {
      return " eq " + std::to_string(iv->lo());
    }
    return " range " + std::to_string(iv->lo()) + " " +
           std::to_string(iv->hi());
  };

  std::string out;
  for (const Atom& atom : atoms) {
    out += "access-list " + std::string(acl_id) + " " +
           (atom.decision == kAccept ? "permit " : "deny ");
    if (atom.proto) {
      const char* name = proto_name(*atom.proto);
      out += name ? std::string(name) : std::to_string(*atom.proto);
    } else {
      out += "ip";
    }
    out += " ";
    out += address_spec(atom.sip);
    out += port_spec(atom.sport);
    out += " ";
    out += address_spec(atom.dip);
    out += port_spec(atom.dport);
    out += "\n";
  }
  if (fallback == kAccept) {
    out += "access-list " + std::string(acl_id) + " permit ip any any\n";
  }
  // A discarding catch-all is Cisco's implicit deny: nothing to emit, but
  // an empty ACL is unparseable, so keep at least the explicit deny.
  if (atoms.empty() && fallback == kDiscard) {
    out += "access-list " + std::string(acl_id) + " deny ip any any\n";
  }
  return out;
}

}  // namespace dfw
