// Classifier equivalence harness: the compiled flat-slab classifier must
// produce byte-identical decisions to the interpreted FDD walk, to the
// policy's first-match evaluation, and (on the accept/discard fragment)
// to the BDD baseline. Probes mix exhaustive small universes, random
// five-tuple traffic, 64-bit IPv6 halves at their domain corners, and
// adversarial edge packets sitting exactly on interval boundaries, where
// off-by-one bugs live. Batch paths are checked at every run length the
// lane kernel treats differently, and for determinism across 1/2/8-thread
// executors: parallelism may reorder work, never output.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <span>
#include <stdexcept>

#include "bdd/packet_encode.hpp"
#include "engine/classifier.hpp"
#include "engine/slab_layout.hpp"
#include "fdd/arena.hpp"
#include "obs/names.hpp"
#include "rt/executor.hpp"
#include "synth/synth.hpp"
#include "test_util.hpp"

namespace dfw {
namespace {

using test::tiny2;
using test::tiny3;

/// Adversarial probes: every rule-conjunct corner and every domain corner,
/// in every combination pattern that stays one packet (per-field lows,
/// per-field highs, and low/high alternations).
std::vector<Packet> edge_packets(const Policy& policy) {
  const Schema& schema = policy.schema();
  const std::size_t d = schema.field_count();
  std::vector<Packet> probes;
  for (std::size_t i = 0; i < policy.size(); ++i) {
    Packet lo(d), hi(d), lohi(d), hilo(d);
    for (std::size_t f = 0; f < d; ++f) {
      lo[f] = policy.rule(i).conjunct(f).min();
      hi[f] = policy.rule(i).conjunct(f).max();
      lohi[f] = (f % 2 == 0) ? lo[f] : hi[f];
      hilo[f] = (f % 2 == 0) ? hi[f] : lo[f];
    }
    probes.push_back(lo);
    probes.push_back(hi);
    probes.push_back(lohi);
    probes.push_back(hilo);
    // One past / one before each corner (clamped to the domain) — the
    // packets adjacent to every boundary.
    for (std::size_t f = 0; f < d; ++f) {
      const Interval& domain = schema.domain(f);
      if (lo[f] > domain.lo()) {
        Packet p = lo;
        p[f] = lo[f] - 1;
        probes.push_back(std::move(p));
      }
      if (hi[f] < domain.hi()) {
        Packet p = hi;
        p[f] = hi[f] + 1;
        probes.push_back(std::move(p));
      }
    }
  }
  Packet domain_lo(d), domain_hi(d);
  for (std::size_t f = 0; f < d; ++f) {
    domain_lo[f] = schema.domain(f).lo();
    domain_hi[f] = schema.domain(f).hi();
  }
  probes.push_back(domain_lo);
  probes.push_back(domain_hi);
  return probes;
}

/// The longest batch batches_agree runs, and the most probes it reads
/// (offsets 0-7 into the probe list).
constexpr std::size_t kLongBatch = 515;
constexpr std::size_t kBatchProbes = kLongBatch + 7;

/// `packets` repeated and shuffled until batches_agree can read every
/// batch shape from it, so each eight-packet group mixes packets whose
/// walks end at different depths.
std::vector<Packet> batch_probes(const std::vector<Packet>& packets,
                                 std::mt19937_64& rng) {
  std::vector<Packet> probes;
  while (probes.size() < kBatchProbes) {
    probes.insert(probes.end(), packets.begin(), packets.end());
  }
  std::shuffle(probes.begin(), probes.end(), rng);
  return probes;
}

/// classify_into must return `want` (one decision per probe) for every
/// batch of 0-17 probes and of kLongBatch probes, starting at each offset
/// 0-7: full eight-lane groups, every remainder, a remainder alone, and
/// (past the default grain of 512) a chunk boundary. The output starts at
/// a value no decision takes, so a lane left unwritten shows.
void batches_agree(const Classifier& c, std::span<const Packet> probes,
                   std::span<const Decision> want) {
  ASSERT_EQ(probes.size(), want.size());
  ASSERT_GE(probes.size(), kBatchProbes);
  std::vector<std::size_t> lengths;
  for (std::size_t length = 0; length <= 17; ++length) {
    lengths.push_back(length);
  }
  lengths.push_back(kLongBatch);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t length : lengths) {
      std::vector<Decision> out(length, Decision{0xffff});
      c.classify_into(probes.subspan(offset, length), out);
      for (std::size_t i = 0; i < length; ++i) {
        ASSERT_EQ(out[i], want[offset + i])
            << "offset " << offset << " length " << length << " packet "
            << i;
      }
    }
  }
}

// The slab search's contract, against std::lower_bound: the first slab
// whose upper bound is >= v, and the last slab for v past every bound.
TEST(SlabSearch, MatchesStdLowerBoundAndClampsToTheLastSlab) {
  using engine_detail::Slab;
  for (std::size_t n = 1; n <= 33; ++n) {
    std::vector<Slab> run;
    Value upper = 2;
    for (std::size_t k = 0; k < n; ++k) {
      run.push_back({upper, static_cast<std::uint32_t>(k)});
      upper += 1 + k % 3;
    }
    for (Value v = 0; v <= run.back().upper + 2; ++v) {
      const auto first = std::lower_bound(
          run.begin(), run.end(), v,
          [](const Slab& slab, Value x) { return slab.upper < x; });
      const std::size_t want =
          first == run.end() ? n - 1
                             : static_cast<std::size_t>(first - run.begin());
      ASSERT_EQ(static_cast<std::size_t>(
                    engine_detail::branchless_lower_bound(run.data(), n, v) -
                    run.data()),
                want)
          << "n " << n << " v " << v;
    }
  }
}

TEST(ClassifierBackend, AgreesWithPolicyExhaustively) {
  std::mt19937_64 rng(711);
  std::mt19937_64 shuffle_rng(719);
  const std::vector<Packet> universe = test::all_packets(tiny3());
  for (int trial = 0; trial < 25; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    const Policy p = test::random_policy(tiny3(), 6, rng);
    const ArenaDiagram diagram = build_diagram(p, {});
    const std::vector<Packet> probes = batch_probes(universe, shuffle_rng);
    std::vector<Decision> want;
    for (const Packet& pkt : probes) {
      want.push_back(p.evaluate(pkt));
    }
    const Classifier c = Classifier::compile(diagram);
    for (const Packet& pkt : universe) {
      ASSERT_EQ(c.classify(pkt), p.evaluate(pkt));
    }
    ASSERT_NO_FATAL_FAILURE(batches_agree(c, probes, want));
  }
}

// The root is a decision and the layout has no nodes.
TEST(ClassifierBackend, ConstantPolicy) {
  const Schema s = tiny2();
  const ArenaDiagram diagram =
      build_diagram(Policy(s, {Rule::catch_all(s, kDiscard)}), {});
  std::mt19937_64 rng(718);
  const std::vector<Packet> probes =
      batch_probes(test::all_packets(s), rng);
  const std::vector<Decision> want(probes.size(), kDiscard);
  const Classifier c = Classifier::compile(diagram);
  EXPECT_EQ(c.node_count(), 0u);
  EXPECT_EQ(c.classify({0, 0}), kDiscard);
  EXPECT_EQ(c.classify({7, 7}), kDiscard);
  ASSERT_NO_FATAL_FAILURE(batches_agree(c, probes, want));
}

TEST(ClassifierBackend, FiveTupleRandomAndEdgeProbesAgree) {
  SynthConfig config;
  config.num_rules = 120;
  Rng rng(712);
  const Policy p = synth_policy(config, rng);
  const ArenaDiagram diagram = build_diagram(p, {});
  const Classifier c = Classifier::compile(diagram);

  std::vector<Packet> probes = edge_packets(p);
  std::uniform_int_distribution<Value> ip(0, UINT32_MAX);
  std::uniform_int_distribution<Value> port(0, 65535);
  std::uniform_int_distribution<Value> proto(0, 255);
  for (int probe = 0; probe < 3000; ++probe) {
    probes.push_back({ip(rng), ip(rng), port(rng), port(rng), proto(rng)});
  }

  std::vector<Decision> want;
  for (const Packet& pkt : probes) {
    want.push_back(diagram.arena->evaluate(diagram.root, pkt));
    ASSERT_EQ(p.evaluate(pkt), want.back());
    ASSERT_EQ(c.classify(pkt), want.back());
  }
  ASSERT_NO_FATAL_FAILURE(batches_agree(c, probes, want));
}

// The IPv6 halves span the whole 64-bit Value domain: slab bounds and the
// search's comparisons must hold at 2^63, where a signed reading flips,
// and at the domain's top, past which no bound exists.
TEST(ClassifierBackend, SixtyFourBitFieldsAgreeAtDomainCorners) {
  const Schema schema = five_tuple_v6_schema();
  constexpr Value kHalf = Value{1} << 63;
  const Value corners[] = {0, kHalf - 1, kHalf, UINT64_MAX};
  // Rules bounded on the corners, then random 64-bit ones and a catch-all.
  const auto rule = [&](std::vector<std::pair<std::size_t, Interval>> set,
                        Decision decision) {
    std::vector<IntervalSet> conjuncts;
    for (std::size_t f = 0; f < schema.field_count(); ++f) {
      conjuncts.emplace_back(schema.domain(f));
    }
    for (const auto& [field, interval] : set) {
      conjuncts[field] = IntervalSet(interval);
    }
    return Rule(schema, std::move(conjuncts), decision);
  };
  std::vector<Rule> rules = {
      rule({{0, Interval(kHalf, UINT64_MAX)}, {3, Interval(0, kHalf - 1)}},
           kAccept),
      rule({{1, Interval(kHalf - 1, kHalf)}}, kDiscard),
      rule({{2, Interval::point(UINT64_MAX)}, {6, Interval(6, 6)}}, kAccept),
      rule({{3, Interval::point(kHalf)}}, kDiscard),
      rule({{0, Interval(0, kHalf - 1)}, {2, Interval(kHalf, UINT64_MAX)}},
           kAccept),
  };
  std::mt19937_64 rng(720);
  const Policy random = test::random_policy(schema, 12, rng);
  for (std::size_t i = 0; i < random.size(); ++i) {
    rules.push_back(random.rule(i));
  }
  const Policy p(schema, std::move(rules));
  const Classifier c = Classifier::compile(build_diagram(p, {}));

  std::vector<Packet> probes = edge_packets(p);
  for (const Value sip : corners) {
    for (const Value sip_lo : corners) {
      for (const Value dip : corners) {
        for (const Value dip_lo : corners) {
          probes.push_back({sip, sip_lo, dip, dip_lo, 0, 0, 0});
          probes.push_back({sip, sip_lo, dip, dip_lo, 65535, 65535, 6});
        }
      }
    }
  }
  for (const Packet& pkt : probes) {
    ASSERT_EQ(c.classify(pkt), p.evaluate(pkt));
  }
  std::mt19937_64 shuffle_rng(721);
  const std::vector<Packet> batch = batch_probes(probes, shuffle_rng);
  std::vector<Decision> want;
  for (const Packet& pkt : batch) {
    want.push_back(p.evaluate(pkt));
  }
  ASSERT_NO_FATAL_FAILURE(batches_agree(c, batch, want));
}

TEST(ClassifierBackend, BddBaselineAgreesOnAcceptSet) {
  SynthConfig config;
  config.num_rules = 60;
  Rng rng(713);
  const Policy p = synth_policy(config, rng);
  const ArenaDiagram diagram = build_diagram(p, {});

  const BitLayout layout = layout_for(p.schema());
  BddManager mgr(layout.total_bits);
  const BddRef accept_set = encode_policy(mgr, layout, p);
  const Classifier c = Classifier::compile(diagram);

  std::uniform_int_distribution<Value> ip(0, UINT32_MAX);
  std::uniform_int_distribution<Value> port(0, 65535);
  std::uniform_int_distribution<Value> proto(0, 255);
  for (int probe = 0; probe < 1000; ++probe) {
    const Packet pkt = {ip(rng), ip(rng), port(rng), port(rng), proto(rng)};
    const bool accepted =
        mgr.evaluate(accept_set, encode_packet(layout, pkt));
    ASSERT_EQ(c.classify(pkt) == kAccept, accepted);
  }
}

TEST(ClassifierBackend, BatchDeterminismAcrossThreadCounts) {
  SynthConfig config;
  config.num_rules = 80;
  Rng rng(714);
  const Policy p = synth_policy(config, rng);
  const ArenaDiagram diagram = build_diagram(p, {});

  std::vector<Packet> packets;
  std::uniform_int_distribution<Value> ip(0, UINT32_MAX);
  std::uniform_int_distribution<Value> port(0, 65535);
  std::uniform_int_distribution<Value> proto(0, 255);
  for (int i = 0; i < 4000; ++i) {
    packets.push_back({ip(rng), ip(rng), port(rng), port(rng), proto(rng)});
  }

  CompileOptions options;
  options.batch_grain = 64;  // force many chunks even at 8 threads
  const Classifier c = Classifier::compile(diagram, options);

  const std::vector<Decision> serial = c.classify_batch(packets);
  ASSERT_EQ(serial.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    ASSERT_EQ(serial[i], c.classify(packets[i]));
  }
  for (const std::size_t threads : {2u, 8u}) {
    Executor pool(threads);
    RunOptions run;
    run.executor = &pool;
    EXPECT_EQ(c.classify_batch(packets, run), serial)
        << "threads=" << threads;
    std::vector<Decision> out(packets.size(), Decision{0xff});
    c.classify_into(packets, out, run);
    EXPECT_EQ(out, serial) << "threads=" << threads;
  }
  std::vector<Decision> out(packets.size(), Decision{0xff});
  c.classify_into(packets, out);
  EXPECT_EQ(out, serial);
}

// The layout flattens the hash-consed DAG, not its tree expansion: one
// compiled node per unique nonterminal the root reaches.
TEST(ClassifierBackend, CompilesOneSlabNodePerUniqueDiagramNode) {
  SynthConfig config;
  config.num_rules = 150;
  Rng rng(716);
  const ArenaDiagram diagram = build_diagram(synth_policy(config, rng), {});
  const FddArena& arena = *diagram.arena;
  ASSERT_GT(arena.expanded_node_count(diagram.root),
            arena.reachable_node_count(diagram.root))
      << "the diagram must share subdiagrams for this test to bite";
  std::set<ArenaNodeId> nonterminals;
  std::vector<ArenaNodeId> stack{diagram.root};
  while (!stack.empty()) {
    const ArenaNodeId id = stack.back();
    stack.pop_back();
    if (arena.is_terminal(id) || !nonterminals.insert(id).second) {
      continue;
    }
    for (const ArenaEdge& e : arena.edges(id)) {
      stack.push_back(e.target);
    }
  }
  EXPECT_EQ(Classifier::compile(diagram).node_count(), nonterminals.size());
}

TEST(ClassifierBackend, ClassifyIntoValidatesOutputSize) {
  std::mt19937_64 rng(715);
  const Policy p = test::random_policy(tiny2(), 4, rng);
  const Classifier c = Classifier::compile(p);
  const std::vector<Packet> packets = test::all_packets(tiny2());
  std::vector<Decision> short_out(packets.size() - 1);
  EXPECT_THROW(c.classify_into(packets, short_out), std::invalid_argument);
}

TEST(ClassifierBackend, CompilePhaseAndBatchMetricsRecorded) {
  std::mt19937_64 rng(717);
  const Policy p = test::random_policy(tiny3(), 6, rng);
  MetricsRegistry metrics;
  CompileOptions options;
  options.run.obs.metrics = &metrics;
  const Classifier c = Classifier::compile(p, options);
  EXPECT_EQ(metrics.histogram("phase.classifier.compile_ns").count(), 1u);

  const std::vector<Packet> packets = test::all_packets(tiny3());
  c.classify_batch(packets);
  c.classify_batch(packets);
  EXPECT_EQ(metrics.counter(names::kClassifierBatchCount).value(), 2u);
  EXPECT_EQ(metrics.counter(names::kClassifierLookupCount).value(),
            2 * packets.size());
  EXPECT_EQ(metrics.histogram(names::kClassifierBatchNs).count(), 2u);
}

}  // namespace
}  // namespace dfw
