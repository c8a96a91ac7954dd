#include "lint/diagnostic.hpp"

#include <cstdint>
#include <stdexcept>

#include "fw/format.hpp"

namespace dfw::lint {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "unknown";
}

Packet witness_packet(const Witness& witness) {
  Packet p;
  p.reserve(witness.conjuncts.size());
  for (const IntervalSet& set : witness.conjuncts) {
    if (set.empty()) {
      throw std::logic_error("witness_packet: empty conjunct");
    }
    p.push_back(set.intervals().front().lo());
  }
  return p;
}

namespace {

// FNV-1a 64: tiny, dependency-free, and stable across platforms — all a
// baseline fingerprint needs.
class Fnv1a {
 public:
  void feed(std::string_view s) {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
    // Separator so ("ab","c") and ("a","bc") differ.
    hash_ ^= 0xffU;
    hash_ *= 0x100000001b3ULL;
  }

  std::string hex() const {
    static const char* const digits = "0123456789abcdef";
    std::string out(16, '0');
    std::uint64_t h = hash_;
    for (std::size_t i = 16; i-- > 0; h >>= 4) {
      out[i] = digits[h & 0xf];
    }
    return out;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::string compute_fingerprint(const Diagnostic& d, const Policy* policy,
                                const DecisionSet* decisions) {
  Fnv1a h;
  h.feed(d.check_id);
  std::string text;  // both anchored rules' text, built in turn
  const auto feed_rule = [&](std::size_t index) {
    if (index == kNoRule) {
      h.feed("");
      return;
    }
    if (policy != nullptr && decisions != nullptr && index < policy->size()) {
      // The rule's text, not its index: inserting an unrelated rule above
      // must not churn the baseline. The buffer is sized once for a
      // typical rule.
      text.clear();
      text.reserve(128);
      append_rule_text(text, policy->schema(), *decisions,
                       policy->rule(index));
      h.feed(text);
    } else {
      std::string tag = "#";
      tag += std::to_string(index);
      h.feed(tag);
    }
  };
  feed_rule(d.rule);
  feed_rule(d.related_rule);
  if (d.rule == kNoRule && d.related_rule == kNoRule) {
    // Whole-policy and adapter findings have no rule text to anchor on;
    // fall back to the message and source line.
    h.feed(d.message);
    h.feed(std::to_string(d.line));
  }
  return h.hex();
}

std::string format_class(const Schema& schema,
                         const std::vector<IntervalSet>& conjuncts) {
  std::string out;
  bool any_field = false;
  for (std::size_t f = 0; f < schema.field_count(); ++f) {
    if (conjuncts[f] == schema.domain_set(f)) {
      continue;
    }
    if (any_field) {
      out += " ^ ";
    }
    out += schema.field(f).name + " in " +
           format_spec(schema.field(f), conjuncts[f]);
    any_field = true;
  }
  if (!any_field) {
    out = "all packets";
  }
  return out;
}

}  // namespace dfw::lint
