// Shared helpers for the dfw test suite: tiny schemas whose packet spaces
// can be enumerated exhaustively, random policy generation over them, and
// brute-force semantic comparison. Property tests check the *algorithms*
// against brute force on these small universes, where every packet can be
// tried.

#pragma once

#include <random>
#include <vector>

#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "fdd/fdd.hpp"
#include "fdd/reduce.hpp"
#include "fdd/shape.hpp"
#include "fw/policy.hpp"

namespace dfw::test {

/// Two fields with domains [0,7] and [0,7]: 64 packets.
inline Schema tiny2() {
  return Schema({{"x", Interval(0, 7), FieldKind::kInteger},
                 {"y", Interval(0, 7), FieldKind::kInteger}});
}

/// Three fields with domains [0,5], [0,3], [0,3]: 96 packets.
inline Schema tiny3() {
  return Schema({{"x", Interval(0, 5), FieldKind::kInteger},
                 {"y", Interval(0, 3), FieldKind::kInteger},
                 {"z", Interval(0, 3), FieldKind::kInteger}});
}

/// Enumerates every packet of a schema (requires a small packet space).
inline std::vector<Packet> all_packets(const Schema& schema) {
  std::vector<Packet> packets;
  Packet current(schema.field_count(), 0);
  const auto recurse = [&](auto&& self, std::size_t field) -> void {
    if (field == schema.field_count()) {
      packets.push_back(current);
      return;
    }
    for (Value v = schema.domain(field).lo(); v <= schema.domain(field).hi();
         ++v) {
      current[field] = v;
      self(self, field + 1);
    }
  };
  recurse(recurse, 0);
  return packets;
}

/// A random interval within [domain.lo(), domain.hi()].
inline Interval random_interval(const Interval& domain, std::mt19937_64& rng) {
  std::uniform_int_distribution<Value> lo_pick(domain.lo(), domain.hi());
  const Value lo = lo_pick(rng);
  std::uniform_int_distribution<Value> hi_pick(lo, domain.hi());
  return Interval(lo, hi_pick(rng));
}

/// A random interval set: 1-2 runs within the domain.
inline IntervalSet random_set(const Interval& domain, std::mt19937_64& rng) {
  IntervalSet s(random_interval(domain, rng));
  std::uniform_int_distribution<int> coin(0, 2);
  if (coin(rng) == 0) {
    s.add(random_interval(domain, rng));
  }
  return s;
}

/// A random comprehensive policy: n-1 random rules plus a catch-all, with
/// random accept/discard decisions.
inline Policy random_policy(const Schema& schema, std::size_t n,
                            std::mt19937_64& rng) {
  std::vector<Rule> rules;
  std::uniform_int_distribution<int> coin(0, 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::vector<IntervalSet> conjuncts;
    for (std::size_t f = 0; f < schema.field_count(); ++f) {
      conjuncts.push_back(random_set(schema.domain(f), rng));
    }
    rules.emplace_back(schema, std::move(conjuncts),
                       coin(rng) == 0 ? kAccept : kDiscard);
  }
  rules.push_back(
      Rule::catch_all(schema, coin(rng) == 0 ? kAccept : kDiscard));
  return Policy(schema, std::move(rules));
}

/// Brute-force check that an FDD implements exactly the policy's mapping.
inline bool fdd_matches_policy(const Fdd& fdd, const Policy& policy) {
  for (const Packet& p : all_packets(policy.schema())) {
    if (fdd.evaluate(p) != policy.evaluate(p)) {
      return false;
    }
  }
  return true;
}

/// The paper-literal reduced FDD: Fig. 7 construction, then reduce().
inline Fdd reference_fdd(const Policy& policy) {
  Fdd fdd = build_fdd(policy);
  reduce(fdd);
  return fdd;
}

/// The reference comparison pipeline the production arena pipeline is
/// checked against: reference_fdd per policy, fragment-merged tree
/// shape_all, tree compare_fdds_many.
inline std::vector<Discrepancy> reference_discrepancies(
    const std::vector<Policy>& policies) {
  std::vector<Fdd> fdds;
  fdds.reserve(policies.size());
  for (const Policy& p : policies) {
    fdds.push_back(reference_fdd(p));
    fdds.back().validate();
  }
  shape_all(fdds);
  return compare_fdds_many(fdds);
}

}  // namespace dfw::test
