// Compiled-classifier tests: exhaustive differential agreement with the
// policy on small universes, random-probe agreement on five-tuple scale,
// structural compactness, and error paths.

#include <gtest/gtest.h>

#include "engine/classifier.hpp"
#include "synth/synth.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::tiny2;
using test::tiny3;

TEST(Classifier, AgreesWithPolicyExhaustively) {
  std::mt19937_64 rng(111);
  for (int trial = 0; trial < 25; ++trial) {
    const Policy p = test::random_policy(tiny3(), 6, rng);
    const Classifier c = Classifier::compile(p);
    for (const Packet& pkt : test::all_packets(tiny3())) {
      EXPECT_EQ(c.classify(pkt), p.evaluate(pkt));
    }
  }
}

TEST(Classifier, ConstantPolicy) {
  const Schema s = tiny2();
  const Classifier c =
      Classifier::compile(Policy(s, {Rule::catch_all(s, kDiscard)}));
  EXPECT_EQ(c.classify({0, 0}), kDiscard);
  EXPECT_EQ(c.classify({7, 7}), kDiscard);
  EXPECT_EQ(c.node_count(), 0u);  // the root is a bare decision
}

TEST(Classifier, AgreesOnFiveTupleRandomProbes) {
  SynthConfig config;
  config.num_rules = 120;
  Rng rng(112);
  const Policy p = synth_policy(config, rng);
  const Classifier c = Classifier::compile(p);
  std::uniform_int_distribution<Value> ip(0, UINT32_MAX);
  std::uniform_int_distribution<Value> port(0, 65535);
  std::uniform_int_distribution<Value> proto(0, 255);
  for (int probe = 0; probe < 5000; ++probe) {
    const Packet pkt = {ip(rng), ip(rng), port(rng), port(rng), proto(rng)};
    EXPECT_EQ(c.classify(pkt), p.evaluate(pkt));
  }
  // Probe rule corners too: corners are where off-by-one bugs live.
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    Packet lo;
    Packet hi;
    for (std::size_t f = 0; f < 5; ++f) {
      lo.push_back(p.rule(i).conjunct(f).min());
      hi.push_back(p.rule(i).conjunct(f).max());
    }
    EXPECT_EQ(c.classify(lo), p.evaluate(lo));
    EXPECT_EQ(c.classify(hi), p.evaluate(hi));
  }
}

TEST(Classifier, CompiledFormIsCompact) {
  SynthConfig config;
  config.num_rules = 200;
  Rng rng(113);
  const Policy p = synth_policy(config, rng);
  const ArenaDiagram diagram = build_diagram(p, {});
  const Classifier c = Classifier::compile(diagram);
  // One compiled node per unique nonterminal: shared subdiagrams compile
  // once, and only the terminals among the reachable nodes compile to no
  // node.
  EXPECT_LT(c.node_count(),
            diagram.arena->reachable_node_count(diagram.root));
  EXPECT_GT(c.slab_count(), 0u);
}

TEST(Classifier, CompileFromFddDirectly) {
  std::mt19937_64 rng(114);
  const Policy p = test::random_policy(tiny2(), 4, rng);
  const ArenaDiagram diagram = build_diagram(p, {});
  const Classifier c = Classifier::compile(diagram);
  for (const Packet& pkt : test::all_packets(tiny2())) {
    EXPECT_EQ(c.classify(pkt), diagram.arena->evaluate(diagram.root, pkt));
  }
}

TEST(Classifier, RejectsIncompleteFdd) {
  const Schema s = tiny2();
  const Policy partial(
      s, {Rule(s, {IntervalSet(Interval(0, 3)), IntervalSet(Interval(0, 7))},
               kAccept)});
  EXPECT_THROW(Classifier::compile(build_diagram(partial, {})),
               std::logic_error);
}

TEST(Classifier, RejectsWrongArity) {
  const Schema s = tiny2();
  const Classifier c =
      Classifier::compile(Policy(s, {Rule::catch_all(s, kAccept)}));
  EXPECT_THROW(c.classify({1}), std::invalid_argument);
}

}  // namespace
}  // namespace dfw
