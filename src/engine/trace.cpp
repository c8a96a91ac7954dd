#include "engine/trace.hpp"

#include <stdexcept>

namespace dfw {

std::vector<std::size_t> TraceStats::unexercised() const {
  std::vector<std::size_t> result;
  for (std::size_t i = 0; i < rule_hits.size(); ++i) {
    if (rule_hits[i] == 0) {
      result.push_back(i);
    }
  }
  return result;
}

TraceStats evaluate_trace(const Policy& policy,
                          std::span<const Packet> trace) {
  TraceStats stats;
  stats.rule_hits.assign(policy.size(), 0);
  for (const Packet& p : trace) {
    const auto match = policy.first_match(p);
    if (!match) {
      throw std::logic_error(
          "evaluate_trace: a packet fell through the policy");
    }
    ++stats.rule_hits[*match];
    const Decision d = policy.rule(*match).decision();
    if (d >= stats.decision_hits.size()) {
      stats.decision_hits.resize(d + 1, 0);
    }
    ++stats.decision_hits[d];
    ++stats.packets;
  }
  return stats;
}

std::vector<Packet> synth_trace(const Policy& policy, std::size_t count,
                                Rng& rng, double random_fraction) {
  if (random_fraction < 0 || random_fraction > 1) {
    throw std::invalid_argument("synth_trace: random_fraction out of range");
  }
  const Schema& schema = policy.schema();
  std::vector<Packet> trace;
  trace.reserve(count);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> rule_pick(0, policy.size() - 1);
  for (std::size_t i = 0; i < count; ++i) {
    Packet p;
    p.reserve(schema.field_count());
    if (coin(rng) < random_fraction) {
      for (std::size_t f = 0; f < schema.field_count(); ++f) {
        std::uniform_int_distribution<Value> v(schema.domain(f).lo(),
                                               schema.domain(f).hi());
        p.push_back(v(rng));
      }
    } else {
      const Rule& rule = policy.rule(rule_pick(rng));
      for (std::size_t f = 0; f < schema.field_count(); ++f) {
        // Sample a run, then a value inside it.
        const std::span<const Interval> runs = rule.conjunct(f).intervals();
        std::uniform_int_distribution<std::size_t> run_pick(0,
                                                            runs.size() - 1);
        const Interval& run = runs[run_pick(rng)];
        std::uniform_int_distribution<Value> v(run.lo(), run.hi());
        p.push_back(v(rng));
      }
    }
    trace.push_back(std::move(p));
  }
  return trace;
}

}  // namespace dfw
