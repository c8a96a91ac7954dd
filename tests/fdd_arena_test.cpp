// Tests for the hash-consed FDD arena (fdd/arena.hpp): interning
// invariants, canonical-by-construction equality with the tree pipeline's
// reduce(), lossless tree bridges, memoised semantic operations, and the
// randomized equivalence harness the arena's correctness argument rests
// on — arena and tree pipelines must be indistinguishable from outside.

#include "fdd/arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <random>
#include <string>

#include "analysis/policy_analysis.hpp"
#include "fdd/compare.hpp"
#include "fdd/construct.hpp"
#include "fdd/reduce.hpp"
#include "gen/generate.hpp"
#include "rt/fault.hpp"
#include "rt/govern.hpp"
#include "synth/synth.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

Packet random_packet(const Schema& schema, std::mt19937_64& rng) {
  Packet p(schema.field_count());
  for (std::size_t f = 0; f < schema.field_count(); ++f) {
    std::uniform_int_distribution<Value> pick(schema.domain(f).lo(),
                                              schema.domain(f).hi());
    p[f] = pick(rng);
  }
  return p;
}

TEST(FddArena, TerminalsAreInterned) {
  FddArena arena(test::tiny2());
  EXPECT_EQ(arena.terminal(kAccept), arena.terminal(kAccept));
  EXPECT_EQ(arena.terminal(kDiscard), arena.terminal(kDiscard));
  EXPECT_NE(arena.terminal(kAccept), arena.terminal(kDiscard));
  EXPECT_EQ(arena.unique_node_count(), 2u);
}

TEST(FddArena, LabelsAreInterned) {
  FddArena arena(test::tiny2());
  const IntervalSet a({Interval(0, 3)});
  const IntervalSet b({Interval(0, 3), Interval(5, 7)});
  EXPECT_EQ(arena.intern(a), arena.intern(a));
  EXPECT_NE(arena.intern(a), arena.intern(b));
  EXPECT_EQ(arena.label(arena.intern(b)), b);
  EXPECT_EQ(arena.stats().unique_labels, 2u);
}

TEST(FddArena, StructurallyIdenticalNodesShareAnId) {
  FddArena arena(test::tiny2());
  const ArenaNodeId acc = arena.terminal(kAccept);
  const ArenaNodeId dis = arena.terminal(kDiscard);
  const ArenaLabelId lo = arena.intern(IntervalSet(Interval(0, 3)));
  const ArenaLabelId hi = arena.intern(IntervalSet(Interval(4, 7)));
  const ArenaNodeId n1 = arena.internal(1, {{lo, acc}, {hi, dis}});
  const ArenaNodeId n2 = arena.internal(1, {{hi, dis}, {lo, acc}});
  EXPECT_EQ(n1, n2);  // edge order is normalised before interning
  const ArenaNodeId n3 = arena.internal(1, {{lo, dis}, {hi, acc}});
  EXPECT_NE(n1, n3);
}

TEST(FddArena, CanonicalMergesAndSplices) {
  const Schema schema = test::tiny2();
  FddArena arena(schema);
  const ArenaNodeId acc = arena.terminal(kAccept);
  const ArenaLabelId lo = arena.intern(IntervalSet(Interval(0, 3)));
  const ArenaLabelId hi = arena.intern(IntervalSet(Interval(4, 7)));
  // Both edges reach the same child: labels merge to the full domain, the
  // resulting single-edge node is spliced away.
  EXPECT_EQ(arena.canonical(1, {{lo, acc}, {hi, acc}}), acc);
  // A genuine split is kept.
  const ArenaNodeId dis = arena.terminal(kDiscard);
  const ArenaNodeId split = arena.canonical(1, {{lo, acc}, {hi, dis}});
  EXPECT_FALSE(arena.is_terminal(split));
  EXPECT_EQ(arena.edges(split).size(), 2u);
}

// A chain of `fields` binary fields, each node with two edges to the one
// node below it: 2^fields decision paths over `fields` + 1 nodes.
ArenaNodeId doubling_chain(FddArena& arena, std::size_t fields) {
  const ArenaLabelId zero = arena.intern(IntervalSet(Interval(0, 0)));
  const ArenaLabelId one = arena.intern(IntervalSet(Interval(1, 1)));
  ArenaNodeId node = arena.terminal(kAccept);
  for (std::size_t f = fields; f-- > 0;) {
    node = arena.internal(f, {{zero, node}, {one, node}});
  }
  return node;
}

Schema binary_fields(std::size_t count) {
  std::vector<Field> fields;
  for (std::size_t f = 0; f < count; ++f) {
    fields.push_back(
        {"f" + std::to_string(f), Interval(0, 1), FieldKind::kInteger});
  }
  return Schema(std::move(fields));
}

TEST(FddArena, PathCountIsTheGeneratedSizeAndSaturates) {
  FddArena small(binary_fields(3));
  const ArenaNodeId eight = doubling_chain(small, 3);
  EXPECT_EQ(small.path_count(eight), 8u);
  EXPECT_EQ(small.generate(eight).size(), 8u);
  EXPECT_EQ(small.path_count(FddArena::kEmpty), 0u);

  // 2^65 paths: the count stops at SIZE_MAX instead of wrapping. It
  // checkpoints the context and charges it no rules.
  FddArena arena(binary_fields(65));
  const ArenaNodeId root = doubling_chain(arena, 65);
  EXPECT_EQ(arena.reachable_node_count(root), 66u);
  RunContext context = RunContext::with_budgets({.max_rules = 1});
  arena.set_context(&context);
  EXPECT_EQ(arena.path_count(root), SIZE_MAX);
  EXPECT_EQ(context.rules_charged(), 0u);
}

TEST(FddArena, BuildReducedMatchesTreeReducedPipeline) {
  // Canonical-by-construction must land on the same diagram as the
  // paper-literal build-then-reduce: the reduced ordered FDD is unique.
  std::mt19937_64 rng(7);
  for (int round = 0; round < 40; ++round) {
    const Schema schema = round % 2 == 0 ? test::tiny2() : test::tiny3();
    const Policy policy = test::random_policy(schema, 8, rng);
    const Fdd tree = test::reference_fdd(policy);
    FddArena arena(schema);
    const ArenaNodeId root = arena.build_reduced(policy);
    const Fdd expanded = arena.to_fdd(root);
    EXPECT_TRUE(structurally_equal(expanded, tree));
    EXPECT_TRUE(test::fdd_matches_policy(expanded, policy));
    arena.validate(root);
    for (const Packet& p : test::all_packets(schema)) {
      EXPECT_EQ(arena.evaluate(root, p), policy.evaluate(p));
    }
  }
}

TEST(FddArena, BuildReducedMatchesReferenceOnSynthPolicies) {
  // At five-tuple scale, in one arena: build_reduced lands on the id of
  // the paper-literal reduced tree, and on the id of the forward fold
  // overlay(p_k, path(r_k)) that reaches it by another route.
  // Seed 2004 at 400 rules with two 10% perturbations is the shape of a
  // perfbench `design` session.
  struct Case {
    std::uint64_t seed;
    std::size_t rules;
    std::size_t perturbations;
  };
  const Schema schema = five_tuple_schema();
  FddArena arena(schema);
  for (const Case c : {Case{1, 200, 1}, Case{2, 200, 1}, Case{3, 200, 1},
                       Case{1, 400, 1}, Case{2004, 400, 2}}) {
    SynthConfig config;
    config.num_rules = c.rules;
    Rng rng(c.seed);
    std::vector<Policy> policies{synth_policy(config, rng)};
    for (std::size_t i = 0; i < c.perturbations; ++i) {
      policies.push_back(perturb_policy(policies.front(), 10.0, rng));
    }
    for (const Policy& policy : policies) {
      const ArenaNodeId root = arena.build_reduced(policy);
      EXPECT_EQ(arena.from_tree_canonical(test::reference_fdd(policy).root()),
                root)
          << "seed " << c.seed << ", " << c.rules << " rules";
      ArenaNodeId fold = FddArena::kEmpty;
      for (const Rule& rule : policy.rules()) {
        fold = arena.overlay(fold,
                             arena.append_rule(FddArena::kEmpty, rule));
      }
      EXPECT_EQ(fold, root) << "seed " << c.seed << ", " << c.rules
                            << " rules";
    }
  }
}

TEST(FddArena, ConstructionRecoversAfterAnUnwind) {
  // A breach or a fault unwinds the append walk with its scratch (memo
  // stamps, level buffers, per-rule label ids) mid-use. The same arena
  // must then build exactly what a fresh one does, and charge exactly the
  // nodes it materialises.
  SynthConfig config;
  config.num_rules = 400;
  Rng rng(1);
  const Policy policy = synth_policy(config, rng);
  const Policy other = perturb_policy(policy, 10.0, rng);

  RunContext idle;
  FddArena fresh(policy.schema());
  fresh.set_context(&idle);
  const ArenaNodeId expected = fresh.build_reduced(policy);
  EXPECT_EQ(idle.nodes_charged(), fresh.unique_node_count());

  const auto recovers = [&](FddArena& arena, const std::string& what) {
    arena.set_context(nullptr);
    arena.set_faults(nullptr);
    EXPECT_EQ(fresh.import(arena, arena.build_reduced(policy)), expected)
        << what;
    RunContext governed;
    arena.set_context(&governed);
    const std::size_t held = arena.unique_node_count();
    arena.build_reduced(other);
    EXPECT_EQ(governed.nodes_charged(), arena.unique_node_count() - held)
        << what;
  };
  for (const std::size_t budget : {5u, 50u, 500u, 1500u, 2500u}) {
    const std::string what = "node budget " + std::to_string(budget);
    RunContext tight = RunContext::with_budgets({.max_nodes = budget});
    FddArena arena(policy.schema());
    arena.set_context(&tight);
    try {
      arena.build_reduced(policy);
      ADD_FAILURE() << what << ": expected a breach";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kNodeBudgetExceeded) << what;
    }
    recovers(arena, what);
  }
  for (const std::uint64_t fire_on : {3u, 300u, 2000u}) {
    const std::string what = "fault on hit " + std::to_string(fire_on);
    FaultSpec spec;
    spec.site = fault::sites::kArenaAlloc;
    spec.fire_on = fire_on;
    FaultPlan plan(1, {spec});
    FddArena arena(policy.schema());
    arena.set_faults(&plan);
    try {
      arena.build_reduced(policy);
      ADD_FAILURE() << what << ": expected a fault";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kFaultInjected) << what;
    }
    recovers(arena, what);
  }
}

TEST(FddArena, DefaultBuildReducedFddUsesArenaAndMatchesTreePath) {
  std::mt19937_64 rng(11);
  for (int round = 0; round < 10; ++round) {
    const Policy policy = test::random_policy(test::tiny3(), 10, rng);
    EXPECT_TRUE(structurally_equal(build_reduced_fdd(policy),
                                   test::reference_fdd(policy)));
  }
}

TEST(FddArena, TreeRoundTripIsLossless) {
  std::mt19937_64 rng(3);
  for (int round = 0; round < 20; ++round) {
    const Policy policy = test::random_policy(test::tiny2(), 6, rng);
    const Fdd tree = test::reference_fdd(policy);
    FddArena arena(tree.schema());
    const ArenaNodeId root = arena.from_tree(tree.root());
    EXPECT_TRUE(structurally_equal(arena.to_fdd(root), tree));
  }
}

TEST(FddArena, FromTreeCanonicalIsReduce) {
  std::mt19937_64 rng(5);
  for (int round = 0; round < 20; ++round) {
    const Policy policy = test::random_policy(test::tiny3(), 8, rng);
    Fdd reduced = build_fdd(policy);
    FddArena arena(reduced.schema());
    const ArenaNodeId root = arena.from_tree_canonical(reduced.root());
    reduce(reduced);
    EXPECT_TRUE(structurally_equal(arena.to_fdd(root), reduced));
  }
}

TEST(FddArena, ImportIsStructurallyEqualToTheSource) {
  std::mt19937_64 rng(29);
  for (int round = 0; round < 20; ++round) {
    const Schema schema = round % 2 == 0 ? test::tiny2() : test::tiny3();
    const Policy policy = test::random_policy(schema, 8, rng);
    FddArena source(schema);
    const ArenaNodeId root = source.build_reduced(policy);
    // The destination already holds unrelated work, so ids differ.
    FddArena dest(schema);
    dest.build_reduced(test::random_policy(schema, 5, rng));
    const ArenaNodeId imported = dest.import(source, root);
    EXPECT_TRUE(
        structurally_equal(dest.to_fdd(imported), source.to_fdd(root)));
    dest.validate(imported);
    // An imported node keeps its source's completeness bit, partial
    // prefixes too.
    ArenaNodeId prefix = FddArena::kEmpty;
    for (const Rule& rule : policy.rules()) {
      prefix = source.append_rule(prefix, rule);
      EXPECT_EQ(dest.is_complete(dest.import(source, prefix)),
                source.is_complete(prefix));
    }
  }
}

TEST(FddArena, ImportReturnsTheExistingId) {
  std::mt19937_64 rng(31);
  for (int round = 0; round < 20; ++round) {
    const Policy policy = test::random_policy(test::tiny3(), 8, rng);
    FddArena source(policy.schema());
    const ArenaNodeId root = source.build_reduced(policy);

    FddArena dest(policy.schema());
    const ArenaNodeId first = dest.import(source, root);
    const std::size_t size = dest.unique_node_count();
    EXPECT_EQ(dest.import(source, root), first);
    EXPECT_EQ(dest.unique_node_count(), size);

    // A diagram the destination built itself is found, not copied.
    FddArena built(policy.schema());
    const ArenaNodeId own = built.build_reduced(policy);
    const std::size_t built_size = built.unique_node_count();
    EXPECT_EQ(built.import(source, root), own);
    EXPECT_EQ(built.unique_node_count(), built_size);
    EXPECT_EQ(built.import(built, own), own);
  }
}

TEST(FddArena, ImportChargesTheDestinationContext) {
  std::mt19937_64 rng(37);
  const Policy policy = test::random_policy(test::tiny3(), 10, rng);
  FddArena source(policy.schema());
  const ArenaNodeId root = source.build_reduced(policy);

  RunContext ctx;
  FddArena dest(policy.schema());
  dest.set_context(&ctx);
  dest.import(source, root);
  EXPECT_EQ(ctx.nodes_charged(), dest.unique_node_count());
  EXPECT_GT(ctx.label_bytes_charged(), 0u);
  dest.import(source, root);  // nothing new: nothing charged
  EXPECT_EQ(ctx.nodes_charged(), dest.unique_node_count());

  RunContext tight = RunContext::with_budgets({.max_nodes = 2});
  FddArena capped(policy.schema());
  capped.set_context(&tight);
  try {
    capped.import(source, root);
    FAIL() << "expected a node budget breach";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNodeBudgetExceeded);
  }
}

TEST(FddArena, ImportRejectsAnotherSchema) {
  FddArena source(test::tiny2());
  FddArena dest(test::tiny3());
  EXPECT_THROW(dest.import(source, source.terminal(kAccept)),
               std::invalid_argument);
}

TEST(FddArena, AppendIsCopyOnWrite) {
  // Appending never mutates existing ids: the old root keeps evaluating
  // the old policy after the append.
  const Schema schema = test::tiny2();
  std::mt19937_64 rng(13);
  const Policy policy = test::random_policy(schema, 6, rng);
  FddArena arena(schema);
  const ArenaNodeId root = arena.build_reduced(policy);
  std::vector<IntervalSet> conjuncts{IntervalSet(Interval(1, 2)),
                                     IntervalSet(Interval(0, 7))};
  // The appended rule loses to every earlier rule (first-match), so the
  // new root is the same function; the old root must be untouched too.
  const ArenaNodeId appended = arena.append_rule(
      root, Rule(schema, conjuncts, kAccept));
  for (const Packet& p : test::all_packets(schema)) {
    EXPECT_EQ(arena.evaluate(root, p), policy.evaluate(p));
    EXPECT_EQ(arena.evaluate(appended, p), policy.evaluate(p));
  }
}

TEST(FddArena, CompleteBitIsFullCoverage) {
  // A prefix root is complete exactly when its rules match every packet.
  std::mt19937_64 rng(23);
  for (int round = 0; round < 300; ++round) {
    const Schema schema = round % 2 == 0 ? test::tiny2() : test::tiny3();
    const std::vector<Packet> packets = test::all_packets(schema);
    const Policy policy = test::random_policy(schema, 6, rng);
    FddArena arena(schema);
    ArenaNodeId prefix = FddArena::kEmpty;
    for (std::size_t k = 0; k < policy.size(); ++k) {
      prefix = arena.append_rule(prefix, policy.rule(k));
      const bool covered =
          std::ranges::all_of(packets, [&](const Packet& p) {
            return std::any_of(policy.rules().begin(),
                               policy.rules().begin() +
                                   static_cast<std::ptrdiff_t>(k + 1),
                               [&](const Rule& r) { return r.matches(p); });
          });
      EXPECT_EQ(arena.is_complete(prefix), covered)
          << "round " << round << ", prefix " << k + 1;
    }
  }

  // On a 64-bit field the label sizes saturate: [0, 2^63) and
  // [2^63, 2^64 - 1) sum to the domain's saturated size, yet miss its top
  // value.
  const Schema v6 = five_tuple_v6_schema();
  const auto rule = [&](Value lo, Value hi, Decision d) {
    std::vector<IntervalSet> conjuncts;
    for (std::size_t f = 0; f < v6.field_count(); ++f) {
      conjuncts.push_back(v6.domain_set(f));
    }
    conjuncts[0] = IntervalSet(Interval(lo, hi));
    return Rule(v6, std::move(conjuncts), d);
  };
  const Value half = Value{1} << 63;
  FddArena arena(v6);
  const ArenaNodeId partial = arena.build_reduced(Policy(
      v6, {rule(0, half - 1, kAccept), rule(half, UINT64_MAX - 1, kDiscard)}));
  ASSERT_EQ(arena.field(partial), 0u);
  EXPECT_FALSE(arena.is_complete(partial));
  const ArenaNodeId complete = arena.append_rule(
      partial, rule(UINT64_MAX, UINT64_MAX, kAccept));
  ASSERT_EQ(arena.field(complete), 0u);
  EXPECT_TRUE(arena.is_complete(complete));
  EXPECT_NO_THROW(arena.validate(complete));
}

TEST(FddArena, AppendingToACompleteDiagramMaterialisesNothing) {
  // A complete diagram decides every packet, so any appended rule is dead:
  // the walk returns the root before it interns a label or a node.
  std::mt19937_64 rng(29);
  for (int round = 0; round < 40; ++round) {
    const Schema schema = round % 2 == 0 ? test::tiny2() : test::tiny3();
    FddArena arena(schema);
    const ArenaNodeId root =
        arena.build_reduced(test::random_policy(schema, 8, rng));
    ASSERT_TRUE(arena.is_complete(root));
    const Policy more = test::random_policy(schema, 6, rng);
    for (const Rule& rule : more.rules()) {
      const std::size_t nodes = arena.unique_node_count();
      const std::size_t labels = arena.stats().unique_labels;
      EXPECT_EQ(arena.append_rule(root, rule), root);
      EXPECT_EQ(arena.unique_node_count(), nodes);
      EXPECT_EQ(arena.stats().unique_labels, labels);
    }
  }
  SynthConfig config;
  config.num_rules = 200;
  Rng rng5(5);
  const Policy policy = synth_policy(config, rng5);
  FddArena arena(five_tuple_schema());
  const ArenaNodeId root = arena.build_reduced(policy);
  ASSERT_TRUE(arena.is_complete(root));
  const std::size_t nodes = arena.unique_node_count();
  const std::size_t labels = arena.stats().unique_labels;
  const Policy later = perturb_policy(policy, 10.0, rng5);
  for (const Rule& rule : later.rules()) {
    EXPECT_EQ(arena.append_rule(root, rule), root);
  }
  EXPECT_EQ(arena.unique_node_count(), nodes);
  EXPECT_EQ(arena.stats().unique_labels, labels);
}

TEST(FddArena, OverlayIsFirstMatchAcrossPartialDiagrams) {
  // overlay(a, b) decides like a where a decides, like b elsewhere. Over a
  // policy's prefixes it reproduces append_rule id for id, and folding the
  // rules' decision paths back to front reproduces build_reduced; on two
  // arbitrary partial diagrams it is first match, undecided exactly where
  // both are.
  std::mt19937_64 rng(19);
  for (const Schema& schema : {test::tiny2(), test::tiny3()}) {
    const std::vector<Packet> packets = test::all_packets(schema);
    for (int round = 0; round < 20; ++round) {
      const Policy policy = test::random_policy(schema, 8, rng);
      FddArena arena(schema);
      std::vector<ArenaNodeId> prefix{FddArena::kEmpty};
      for (const Rule& rule : policy.rules()) {
        const ArenaNodeId path = arena.append_rule(FddArena::kEmpty, rule);
        prefix.push_back(arena.append_rule(prefix.back(), rule));
        EXPECT_EQ(arena.overlay(prefix[prefix.size() - 2], path),
                  prefix.back());
      }
      // Prefixes end at build_reduced's root, and a rule adding no packet
      // leaves the root alone.
      const ArenaNodeId root = arena.build_reduced(policy);
      EXPECT_EQ(prefix.back(), root);
      EXPECT_EQ(arena.append_rule(root, policy.rules().back()), root);
      ArenaNodeId suffix = FddArena::kEmpty;
      for (std::size_t k = policy.size(); k-- > 0;) {
        suffix = arena.overlay(
            arena.append_rule(FddArena::kEmpty, policy.rule(k)), suffix);
      }
      EXPECT_EQ(suffix, root);

      // Two partial diagrams: each policy without its catch-all.
      const Policy other = test::random_policy(schema, 6, rng);
      const std::vector<Rule> a_rules(policy.rules().begin(),
                                      policy.rules().end() - 1);
      const std::vector<Rule> b_rules(other.rules().begin(),
                                      other.rules().end() - 1);
      const auto build = [&](const std::vector<Rule>& rules) {
        ArenaNodeId r = FddArena::kEmpty;
        for (const Rule& rule : rules) {
          r = arena.append_rule(r, rule);
        }
        return r;
      };
      const ArenaNodeId a = build(a_rules);
      const ArenaNodeId b = build(b_rules);
      EXPECT_EQ(arena.overlay(a, FddArena::kEmpty), a);
      EXPECT_EQ(arena.overlay(FddArena::kEmpty, b), b);
      const ArenaNodeId both = arena.overlay(a, b);
      std::vector<Rule> sequence = a_rules;
      sequence.insert(sequence.end(), b_rules.begin(), b_rules.end());
      ASSERT_NE(both, FddArena::kEmpty);
      EXPECT_EQ(both, build(sequence));
      for (const Packet& p : packets) {
        const auto match = std::find_if(
            sequence.begin(), sequence.end(),
            [&](const Rule& rule) { return rule.matches(p); });
        if (match == sequence.end()) {
          EXPECT_THROW(arena.evaluate(both, p), std::logic_error);
        } else {
          EXPECT_EQ(arena.evaluate(both, p), match->decision());
        }
      }
    }
  }
}

// The first-match decision of `rules`, or nullopt when the packet falls
// through them.
std::optional<Decision> first_match(const std::vector<Rule>& rules,
                                    const Packet& p) {
  for (const Rule& rule : rules) {
    if (rule.matches(p)) {
      return rule.decision();
    }
  }
  return std::nullopt;
}

TEST(FddArena, AgreeOutsideIsAgreementWhereTheMaskIsUndecided) {
  // agree_outside(m, x, y) holds exactly when every packet m leaves
  // undecided gets the same decision, or none, from x and y. The diagrams
  // are kEmpty and the prefixes and suffixes of random policies with and
  // without their catch-all, so the redundancy pass's triples
  // (p_k, S_k, S_{k+1}) come up beside arbitrary ones, kEmpty in each
  // position among them.
  std::mt19937_64 rng(27);
  std::size_t agreed = 0;
  std::size_t disagreed = 0;
  for (const Schema& schema : {test::tiny2(), test::tiny3()}) {
    const std::vector<Packet> packets = test::all_packets(schema);
    for (int round = 0; round < 20; ++round) {
      FddArena arena(schema);
      // Each diagram beside the rules it was built from; kEmpty first.
      std::vector<std::pair<ArenaNodeId, std::vector<Rule>>> pool{
          {FddArena::kEmpty, {}}};
      const auto add = [&](std::vector<Rule> rules) {
        ArenaNodeId root = FddArena::kEmpty;
        for (const Rule& rule : rules) {
          root = arena.append_rule(root, rule);
        }
        pool.emplace_back(root, std::move(rules));
      };
      std::vector<std::array<std::size_t, 3>> triples;  // pool indices
      for (const bool catch_all : {true, false}) {
        std::vector<Rule> rules = test::random_policy(schema, 8, rng).rules();
        if (!catch_all) {
          rules.pop_back();
        }
        const std::size_t n = rules.size();
        const std::size_t prefixes = pool.size();  // p_k at prefixes + k
        for (std::size_t k = 0; k <= n; ++k) {
          add({rules.begin(), rules.begin() + static_cast<std::ptrdiff_t>(k)});
        }
        const std::size_t suffixes = pool.size();  // S_k at suffixes + k
        for (std::size_t k = 0; k <= n; ++k) {
          add({rules.begin() + static_cast<std::ptrdiff_t>(k), rules.end()});
        }
        for (std::size_t k = 0; k < n; ++k) {
          triples.push_back({prefixes + k, suffixes + k, suffixes + k + 1});
        }
      }
      std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
      for (std::size_t i = 0; i < pool.size(); ++i) {
        triples.push_back({0, i, pick(rng)});
        triples.push_back({pick(rng), 0, i});
        triples.push_back({i, pick(rng), 0});
        triples.push_back({pick(rng), pick(rng), pick(rng)});
      }
      for (const auto& [m, x, y] : triples) {
        const bool expected =
            std::ranges::all_of(packets, [&](const Packet& p) {
              return first_match(pool[m].second, p).has_value() ||
                     first_match(pool[x].second, p) ==
                         first_match(pool[y].second, p);
            });
        const ArenaNodeId mask = pool[m].first;
        const ArenaNodeId a = pool[x].first;
        const ArenaNodeId b = pool[y].first;
        ASSERT_EQ(arena.agree_outside(mask, a, b), expected)
            << "round " << round << ", triple " << m << ' ' << x << ' ' << y;
        EXPECT_EQ(arena.overlay(mask, a) == arena.overlay(mask, b), expected);
        ++(expected ? agreed : disagreed);
      }
    }
  }
  EXPECT_GT(agreed, 0u);
  EXPECT_GT(disagreed, 0u);
}

TEST(FddArena, AgreeOutsideBuildsNothing) {
  // The walk only reads the arena: it creates no node or label, queries
  // neither unique table, and finishes under a node budget of one. Its
  // verdicts on a five-tuple policy's redundancy triples are the built
  // test's.
  SynthConfig config;
  config.num_rules = 200;
  Rng rng(4);
  const Policy policy = synth_policy(config, rng);
  const std::size_t n = policy.size();
  FddArena arena(five_tuple_schema());
  std::vector<ArenaNodeId> prefix{FddArena::kEmpty};
  for (const Rule& rule : policy.rules()) {
    prefix.push_back(arena.append_rule(prefix.back(), rule));
  }
  std::vector<ArenaNodeId> suffix(n + 1, FddArena::kEmpty);  // S_k
  for (std::size_t k = n; k-- > 0;) {
    suffix[k] = arena.overlay(
        arena.append_rule(FddArena::kEmpty, policy.rule(k)), suffix[k + 1]);
  }
  const std::size_t nodes = arena.unique_node_count();
  const ArenaStats before = arena.stats();
  std::vector<bool> verdicts;
  Budgets one;
  one.max_nodes = 1;
  RunContext context = RunContext::with_budgets(one);
  arena.set_context(&context);
  for (std::size_t k = 0; k < n; ++k) {
    verdicts.push_back(
        arena.agree_outside(prefix[k], suffix[k], suffix[k + 1]));
  }
  arena.set_context(nullptr);
  EXPECT_FALSE(context.aborted());
  EXPECT_EQ(context.nodes_charged(), 0u);
  EXPECT_EQ(context.label_bytes_charged(), 0u);
  EXPECT_EQ(arena.unique_node_count(), nodes);
  EXPECT_EQ(arena.stats().unique_labels, before.unique_labels);
  EXPECT_EQ(arena.stats().node_queries, before.node_queries);
  EXPECT_EQ(arena.stats().label_queries, before.label_queries);
  std::size_t redundant = 0;
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(verdicts[k],
              arena.overlay(prefix[k], suffix[k + 1]) == prefix[n])
        << "rule " << k;
    redundant += verdicts[k] ? 1 : 0;
  }
  EXPECT_GT(redundant, 0u);
  EXPECT_LT(redundant, n);
}

TEST(FddArena, OverlayMatchesAppendOnSynthPolicies) {
  // At five-tuple scale, in one arena: overlaying a rule's decision path
  // on a prefix is appending the rule, and every prefix overlaid on the
  // suffix after it is the whole policy. The redundancy oracle's overlay
  // walk is deterministic: two fresh arenas count the same memo hits and
  // misses and hold the same nodes.
  std::vector<Policy> policies;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SynthConfig config;
    config.num_rules = 200;
    Rng rng(seed);
    policies.push_back(synth_policy(config, rng));
  }
  FleetSynthConfig fleet;
  fleet.sites = 5;
  fleet.base.num_rules = 200;
  for (const Policy& site : make_fleet(fleet)) {
    policies.push_back(site);
  }
  FddArena arena(five_tuple_schema());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const Policy& policy = policies[i];
    const std::size_t n = policy.size();
    std::vector<ArenaNodeId> prefix{FddArena::kEmpty};
    for (std::size_t k = 0; k < n; ++k) {
      const ArenaNodeId path =
          arena.append_rule(FddArena::kEmpty, policy.rule(k));
      prefix.push_back(arena.append_rule(prefix[k], policy.rule(k)));
      ASSERT_EQ(arena.overlay(prefix[k], path), prefix[k + 1])
          << "policy " << i << ", rule " << k;
    }
    std::vector<ArenaNodeId> suffix(n + 1, FddArena::kEmpty);  // S_k
    for (std::size_t k = n; k-- > 0;) {
      suffix[k] = arena.overlay(
          arena.append_rule(FddArena::kEmpty, policy.rule(k)), suffix[k + 1]);
    }
    for (std::size_t k = 0; k <= n; ++k) {
      ASSERT_EQ(arena.overlay(prefix[k], suffix[k]), prefix[n])
          << "policy " << i << ", prefix " << k;
    }

    PolicyAnalysis first(policy);
    PolicyAnalysis second(policy);
    EXPECT_EQ(first.redundant(), second.redundant()) << "policy " << i;
    const ArenaStats a = first.arena().stats();
    const ArenaStats b = second.arena().stats();
    EXPECT_GT(a.overlay_cache_misses, 0u) << "policy " << i;
    EXPECT_EQ(a.overlay_cache_hits, b.overlay_cache_hits) << "policy " << i;
    EXPECT_EQ(a.overlay_cache_misses, b.overlay_cache_misses)
        << "policy " << i;
    EXPECT_EQ(first.arena().unique_node_count(),
              second.arena().unique_node_count())
        << "policy " << i;
  }
}

TEST(FddArena, ValidateMatchesTreeMessages) {
  const Schema schema = test::tiny2();
  FddArena arena(schema);
  // A partial diagram: field 0 only covers [0,3].
  const ArenaNodeId acc = arena.terminal(kAccept);
  const ArenaNodeId partial = arena.internal(
      0, {{arena.intern(IntervalSet(Interval(0, 3))), acc}});
  arena.validate(partial, /*require_complete=*/false);
  try {
    arena.validate(partial);
    FAIL() << "expected completeness violation";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "FDD: completeness violated at field x");
  }
}

// -- Randomized equivalence harness -----------------------------------------
//
// ~200 synthetic five-tuple policies (100 base/perturbed pairs): the arena
// pipeline and the paper-literal tree reference must agree decision-for-
// decision under packet sampling and produce byte-identical discrepancy
// reports.

TEST(FddArenaEquivalence, PairwiseDiscrepanciesMatchTreePipeline) {
  Rng rng(2026);
  std::mt19937_64 packet_rng(42);
  for (int round = 0; round < 100; ++round) {
    SynthConfig config;
    config.num_rules = 20 + static_cast<std::size_t>(round % 30);
    const Policy a = synth_policy(config, rng);
    const Policy b = perturb_policy(a, 20.0, rng);
    const std::vector<Discrepancy> via_arena = discrepancies(a, b);
    const std::vector<Discrepancy> via_tree =
        test::reference_discrepancies({a, b});
    ASSERT_EQ(via_arena, via_tree) << "round " << round;

    // Decision-for-decision agreement under packet sampling.
    FddArena arena(a.schema());
    const ArenaNodeId root = arena.build_reduced(a);
    const Fdd tree = test::reference_fdd(a);
    for (int s = 0; s < 20; ++s) {
      const Packet p = random_packet(a.schema(), packet_rng);
      const Decision expected = a.evaluate(p);
      EXPECT_EQ(arena.evaluate(root, p), expected);
      EXPECT_EQ(tree.evaluate(p), expected);
    }
  }
}

TEST(FddArenaEquivalence, NWayDiscrepanciesMatchTreePipeline) {
  Rng rng(99);
  for (int round = 0; round < 25; ++round) {
    SynthConfig config;
    config.num_rules = 25;
    const Policy a = synth_policy(config, rng);
    std::vector<Policy> teams{a, perturb_policy(a, 15.0, rng),
                              perturb_policy(a, 30.0, rng)};
    EXPECT_EQ(discrepancies_many(teams), test::reference_discrepancies(teams))
        << "round " << round;
  }
  // Small universes: 2-4 unrelated policies of 1-7 rules, where the teams'
  // diagrams test different fields at the same depth and the product walk
  // splits against nodes that skip the field.
  std::mt19937_64 tiny_rng(5);
  std::uniform_int_distribution<std::size_t> rules(1, 7);
  for (int round = 0; round < 1500; ++round) {
    const Schema schema = round % 2 == 0 ? test::tiny2() : test::tiny3();
    std::vector<Policy> teams;
    for (std::size_t t = 0; t < 2 + static_cast<std::size_t>(round % 3);
         ++t) {
      teams.push_back(test::random_policy(schema, rules(tiny_rng), tiny_rng));
    }
    ASSERT_EQ(discrepancies_many(teams), test::reference_discrepancies(teams))
        << "round " << round;
  }
}

TEST(FddArenaEquivalence, CompareCoversExactlyWhereAllPartialDiagramsDisagree) {
  // Policy prefixes are partial diagrams: the walk compares them where all
  // of them decide, without throwing, and kEmpty (no rule) decides nothing.
  std::mt19937_64 rng(31);
  std::uniform_int_distribution<std::size_t> prefix(0, 5);
  for (int round = 0; round < 200; ++round) {
    const Schema schema = round % 2 == 0 ? test::tiny2() : test::tiny3();
    FddArena arena(schema);
    std::vector<ArenaNodeId> roots;
    for (int t = 0; t < 2 + round % 2; ++t) {
      const Policy policy = test::random_policy(schema, 6, rng);
      ArenaNodeId root = FddArena::kEmpty;
      const std::size_t length = prefix(rng);
      for (std::size_t r = 0; r < length; ++r) {
        root = arena.append_rule(root, policy.rules()[r]);
      }
      roots.push_back(root);
    }
    const std::vector<Discrepancy> found = arena.compare(roots);
    if (std::ranges::find(roots, FddArena::kEmpty) != roots.end()) {
      EXPECT_TRUE(found.empty());
      continue;
    }
    for (const Packet& p : test::all_packets(schema)) {
      std::vector<Decision> decisions;
      for (const ArenaNodeId root : roots) {
        try {
          decisions.push_back(arena.evaluate(root, p));
        } catch (const std::logic_error&) {
          break;  // this diagram leaves p undecided
        }
      }
      const bool disagree =
          decisions.size() == roots.size() &&
          std::ranges::count(decisions, decisions.front()) !=
              static_cast<std::ptrdiff_t>(decisions.size());
      std::size_t covering = 0;
      for (const Discrepancy& d : found) {
        bool inside = true;
        for (std::size_t f = 0; f < p.size(); ++f) {
          inside = inside && d.conjuncts[f].contains(p[f]);
        }
        if (inside) {
          ++covering;
          EXPECT_EQ(d.decisions, decisions) << "round " << round;
        }
      }
      EXPECT_EQ(covering, disagree ? 1u : 0u) << "round " << round;
    }
  }
}

TEST(FddArenaEquivalence, GeneratedPoliciesStayEquivalent) {
  // gen off the DAG must produce exactly the tree generator's policy: the
  // election metric and tie-breaks are the same, memoisation only changes
  // the cost of computing them.
  std::mt19937_64 rng(23);
  for (int round = 0; round < 20; ++round) {
    const Schema schema = test::tiny3();
    const Policy policy = test::random_policy(schema, 9, rng);
    const Fdd fdd = test::reference_fdd(policy);
    const Policy generated = generate_policy(fdd);
    for (const Packet& p : test::all_packets(schema)) {
      EXPECT_EQ(generated.evaluate(p), policy.evaluate(p));
    }
  }
}

TEST(FddArenaEquivalence, StatsAreDeterministicAcrossRuns) {
  Rng rng_a(7);
  Rng rng_b(7);
  SynthConfig config;
  config.num_rules = 60;
  const Policy pa = synth_policy(config, rng_a);
  const Policy pb = synth_policy(config, rng_b);

  const auto run = [](const Policy& p) {
    FddArena arena(p.schema());
    const ArenaNodeId root = arena.build_reduced(p);
    arena.validate(root);
    return arena.stats();
  };
  const ArenaStats first = run(pa);
  const ArenaStats second = run(pb);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.unique_nodes, 0u);
  EXPECT_FALSE(to_string(first).empty());
}

TEST(FddArenaEquivalence, SharingShrinksTheDiagram) {
  // The whole point: on a nontrivial policy the hash-consed diagram holds
  // far fewer nodes than its tree expansion.
  Rng rng(1234);
  SynthConfig config;
  config.num_rules = 300;
  const Policy policy = synth_policy(config, rng);
  FddArena arena(policy.schema());
  const ArenaNodeId root = arena.build_reduced(policy);
  EXPECT_LT(arena.reachable_node_count(root),
            arena.expanded_node_count(root));
}

}  // namespace
}  // namespace dfw
