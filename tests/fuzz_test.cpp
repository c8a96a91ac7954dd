// Robustness ("fuzz-lite") tests: every parser in the library must either
// succeed or throw its documented exception on arbitrary input — never
// crash, hang, or silently mis-parse. We drive each entry point with
// random byte salads and with deterministic mutations of valid inputs at
// three structural levels (byte, token, line), seeded from the checked-in
// corpus under tests/corpus/ so the suite stays reproducible and fast.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "adapters/cisco.hpp"
#include "adapters/iptables.hpp"
#include "engine/classifier.hpp"
#include "fdd/arena.hpp"
#include "fleet/fleet.hpp"
#include "fw/parser.hpp"
#include "lint/baseline.hpp"
#include "lint/sarif.hpp"
#include "serve/snapshot.hpp"

#ifndef DFW_CORPUS_DIR
#error "DFW_CORPUS_DIR must point at tests/corpus (set by CMake)"
#endif

namespace dfw {
namespace {

// ---------------------------------------------------------------------------
// Corpus loading

std::vector<std::string> load_corpus(const std::string& subdir) {
  const std::filesystem::path dir =
      std::filesystem::path(DFW_CORPUS_DIR) / subdir;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      paths.push_back(entry.path());
    }
  }
  // Directory iteration order is unspecified; sort for determinism.
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> seeds;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    seeds.push_back(std::move(buf).str());
  }
  EXPECT_FALSE(seeds.empty()) << "empty corpus directory: " << dir;
  return seeds;
}

// ---------------------------------------------------------------------------
// Mutators. Three structural levels: bytes (blind corruption), tokens
// (valid-looking pieces in wrong places), lines (records reordered,
// duplicated, or dropped). Token- and line-level mutants exercise much
// deeper parser states than byte flips because the lexer still succeeds.

std::string random_bytes(std::mt19937_64& rng, std::size_t max_len) {
  std::uniform_int_distribution<std::size_t> len(0, max_len);
  // Printable-heavy alphabet with the separators the parsers care about.
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 .:,/-=*#!\n\t";
  std::uniform_int_distribution<std::size_t> pick(0, sizeof(kAlphabet) - 2);
  std::string out;
  const std::size_t n = len(rng);
  for (std::size_t i = 0; i < n; ++i) {
    out += kAlphabet[pick(rng)];
  }
  return out;
}

std::string mutate(std::string text, std::mt19937_64& rng) {
  if (text.empty()) {
    return text;
  }
  std::uniform_int_distribution<std::size_t> pos(0, text.size() - 1);
  std::uniform_int_distribution<int> op(0, 2);
  static constexpr char kNoise[] = "0:,/-=*x\n";
  std::uniform_int_distribution<std::size_t> noise(0, sizeof(kNoise) - 2);
  switch (op(rng)) {
    case 0:  // flip a character
      text[pos(rng)] = kNoise[noise(rng)];
      break;
    case 1:  // delete a character
      text.erase(pos(rng), 1);
      break;
    default:  // duplicate a chunk
      text.insert(pos(rng), text.substr(pos(rng), 5));
      break;
  }
  return text;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) {
    parts.push_back(cur);
  }
  return parts;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (const std::string& p : parts) {
    out += p;
    out += sep;
  }
  return out;
}

// Token-level mutation: treat the input as whitespace-separated tokens and
// delete, duplicate, swap, or substitute whole tokens. Substitutions come
// from a pool of tokens that are individually valid somewhere in the
// grammar, so mutants frequently pass the lexer and die (or survive) deep
// inside semantic checks.
std::string mutate_tokens(const std::string& text, std::mt19937_64& rng) {
  static const char* kPool[] = {
      "accept", "discard", "any",  "host", "eq",   "0",     "65535",
      "tcp",    "N",       "T",    "E",    "root", "nodes", "-j",
      "0:7",    "1:0",     "4294967295", "18446744073709551615",
  };
  std::vector<std::string> lines = split(text, '\n');
  if (lines.empty()) {
    return text;
  }
  std::uniform_int_distribution<std::size_t> pick_line(0, lines.size() - 1);
  std::string& line = lines[pick_line(rng)];
  std::vector<std::string> toks = split(line, ' ');
  if (toks.empty()) {
    return text;
  }
  std::uniform_int_distribution<std::size_t> pick_tok(0, toks.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_pool(
      0, std::size(kPool) - 1);
  switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
    case 0:  // substitute
      toks[pick_tok(rng)] = kPool[pick_pool(rng)];
      break;
    case 1:  // delete
      toks.erase(toks.begin() + static_cast<long>(pick_tok(rng)));
      break;
    case 2:  // duplicate
      toks.insert(toks.begin() + static_cast<long>(pick_tok(rng)),
                  toks[pick_tok(rng)]);
      break;
    default:  // swap two tokens
      std::swap(toks[pick_tok(rng)], toks[pick_tok(rng)]);
      break;
  }
  std::string rebuilt;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (i != 0) {
      rebuilt += ' ';
    }
    rebuilt += toks[i];
  }
  line = rebuilt;
  return join(lines, '\n');
}

// Line-level mutation: delete, duplicate, or swap whole records. This is
// the interesting level for the record formats (snapshots, manifests),
// where inter-line invariants (header order, byte counts) carry the
// meaning.
std::string mutate_lines(const std::string& text, std::mt19937_64& rng) {
  std::vector<std::string> lines = split(text, '\n');
  if (lines.size() < 2) {
    return text;
  }
  std::uniform_int_distribution<std::size_t> pick(0, lines.size() - 1);
  switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
    case 0:  // delete a line
      lines.erase(lines.begin() + static_cast<long>(pick(rng)));
      break;
    case 1:  // duplicate a line
      lines.insert(lines.begin() + static_cast<long>(pick(rng)),
                   lines[pick(rng)]);
      break;
    default:  // swap two lines
      std::swap(lines[pick(rng)], lines[pick(rng)]);
      break;
  }
  return join(lines, '\n');
}

// Applies 1..3 mutations at a structural level chosen per iteration.
std::string mutant_of(const std::string& seed, int round,
                      std::mt19937_64& rng) {
  std::string input = seed;
  const int mutations = 1 + (round % 3);
  for (int m = 0; m < mutations; ++m) {
    switch ((round + m) % 3) {
      case 0:
        input = mutate(std::move(input), rng);
        break;
      case 1:
        input = mutate_tokens(input, rng);
        break;
      default:
        input = mutate_lines(input, rng);
        break;
    }
  }
  return input;
}

// ---------------------------------------------------------------------------
// Random-bytes smoke tests (kept from the original fuzz-lite harness).

TEST(Fuzz, NativeParserNeverCrashes) {
  std::mt19937_64 rng(1001);
  const Schema schema = five_tuple_schema();
  for (int i = 0; i < 400; ++i) {
    const std::string input = random_bytes(rng, 200);
    try {
      (void)parse_policy(schema, default_decisions(), input);
    } catch (const ParseError&) {
      // expected for garbage
    }
  }
}

TEST(Fuzz, MutatedNativeInputEitherParsesOrThrows) {
  std::mt19937_64 rng(1002);
  const std::string valid =
      "discard sip=224.168.0.0/16\n"
      "accept dip=192.168.0.1 dport=25 proto=tcp\n"
      "accept\n";
  const Schema schema = five_tuple_schema();
  for (int i = 0; i < 400; ++i) {
    std::string input = valid;
    const int mutations = 1 + (i % 4);
    for (int m = 0; m < mutations; ++m) {
      input = mutate(std::move(input), rng);
    }
    try {
      const Policy p = parse_policy(schema, default_decisions(), input);
      // If it parsed, it must be internally consistent.
      EXPECT_GE(p.size(), 1u);
    } catch (const ParseError&) {
    }
  }
}

TEST(Fuzz, IptablesParserNeverCrashes) {
  std::mt19937_64 rng(1003);
  const std::string valid =
      ":INPUT DROP [0:0]\n"
      "-A INPUT -s 10.0.0.0/8 -p tcp --dport 25 -j ACCEPT\n";
  for (int i = 0; i < 400; ++i) {
    const std::string input =
        (i % 2 == 0) ? random_bytes(rng, 200) : mutate(valid, rng);
    try {
      (void)parse_iptables_save(input, "INPUT");
    } catch (const ParseError&) {
    }
  }
}

TEST(Fuzz, CiscoParserNeverCrashes) {
  std::mt19937_64 rng(1004);
  const std::string valid =
      "access-list 101 permit tcp any host 192.168.0.1 eq smtp\n"
      "access-list 101 deny ip 224.168.0.0 0.0.255.255 any\n";
  for (int i = 0; i < 400; ++i) {
    const std::string input =
        (i % 2 == 0) ? random_bytes(rng, 200) : mutate(valid, rng);
    try {
      (void)parse_cisco_acl(input, "101");
    } catch (const ParseError&) {
    }
  }
}

// ---------------------------------------------------------------------------
// Corpus-driven structure-aware fuzzing. Every seed in tests/corpus/ must
// parse unmutated; its mutants must parse or throw the documented
// exception.

TEST(CorpusFuzz, SeedsAreValid) {
  const Schema schema = five_tuple_schema();
  for (const std::string& seed : load_corpus("native")) {
    EXPECT_NO_THROW((void)parse_policy(schema, default_decisions(), seed))
        << seed;
  }
  for (const std::string& seed : load_corpus("iptables")) {
    EXPECT_NO_THROW((void)parse_iptables_save(seed, "INPUT")) << seed;
  }
  for (const std::string& seed : load_corpus("cisco")) {
    EXPECT_NO_THROW((void)parse_cisco_acl(seed, "101")) << seed;
  }
}

TEST(CorpusFuzz, NativeMutants) {
  std::mt19937_64 rng(2001);
  const Schema schema = five_tuple_schema();
  for (const std::string& seed : load_corpus("native")) {
    for (int i = 0; i < 300; ++i) {
      const std::string input = mutant_of(seed, i, rng);
      try {
        const Policy p = parse_policy(schema, default_decisions(), input);
        EXPECT_GE(p.size(), 1u);
      } catch (const ParseError&) {
      }
    }
  }
}

TEST(CorpusFuzz, IptablesMutants) {
  std::mt19937_64 rng(2002);
  for (const std::string& seed : load_corpus("iptables")) {
    for (int i = 0; i < 300; ++i) {
      const std::string input = mutant_of(seed, i, rng);
      try {
        const Policy p = parse_iptables_save(input, "INPUT");
        EXPECT_GE(p.size(), 1u);
      } catch (const ParseError&) {
      }
    }
  }
}

TEST(CorpusFuzz, CiscoMutants) {
  std::mt19937_64 rng(2003);
  for (const std::string& seed : load_corpus("cisco")) {
    for (int i = 0; i < 300; ++i) {
      const std::string input = mutant_of(seed, i, rng);
      try {
        const Policy p = parse_cisco_acl(input, "101");
        EXPECT_GE(p.size(), 1u);
      } catch (const ParseError&) {
      }
    }
  }
}

/// A random diagram interned verbatim with FddArena::internal: each
/// nonterminal cuts its field's domain into two to five runs and spreads
/// them over up to four edges, and its children sit at later fields (some
/// skipped). About one node in eight loses an edge, which leaves the
/// diagram incomplete. Cut points are kept per field for the probes.
struct RandomPartition {
  FddArena& arena;
  std::mt19937_64& rng;
  std::vector<std::vector<Value>> cuts;
  bool complete = true;

  ArenaNodeId node(std::size_t field) {
    const Schema& schema = arena.schema();
    if (field >= schema.field_count() || (field > 0 && rng() % 4 == 0)) {
      return arena.terminal(static_cast<Decision>(rng() % 2));
    }
    const Interval domain = schema.domain(field);
    std::uniform_int_distribution<Value> pick(domain.lo() + 1, domain.hi());
    std::vector<Value> points;
    const std::size_t runs = 2 + rng() % 4;
    while (points.size() + 1 < runs) {
      const Value p = pick(rng);
      if (std::find(points.begin(), points.end(), p) == points.end()) {
        points.push_back(p);
      }
    }
    std::sort(points.begin(), points.end());
    cuts[field].insert(cuts[field].end(), points.begin(), points.end());
    std::vector<IntervalSet> labels(1 + rng() % 4);
    Value lo = domain.lo();
    for (std::size_t r = 0; r < runs; ++r) {
      const Value hi = r + 1 < runs ? points[r] - 1 : domain.hi();
      labels[rng() % labels.size()].add(Interval(lo, hi));
      lo = hi + 1;
    }
    std::erase_if(labels, [](const IntervalSet& l) { return l.empty(); });
    if (labels.size() > 1 && rng() % 8 == 0) {
      labels.erase(labels.begin() + static_cast<long>(rng() % labels.size()));
      complete = false;
    }
    std::vector<ArenaEdge> edges;
    for (const IntervalSet& label : labels) {
      edges.push_back({arena.intern(label), node(field + 1 + rng() % 2)});
    }
    return arena.internal(field, std::move(edges));
  }

  Packet probe() {
    const Schema& schema = arena.schema();
    Packet packet;
    for (std::size_t f = 0; f < schema.field_count(); ++f) {
      const std::vector<Value>& points = cuts[f];
      if (!points.empty() && rng() % 2 == 0) {
        // A cut point or the value just below it: both sides of a run
        // boundary.
        packet.push_back(points[rng() % points.size()] - rng() % 2);
      } else {
        std::uniform_int_distribution<Value> pick(schema.domain(f).lo(),
                                                  schema.domain(f).hi());
        packet.push_back(pick(rng));
      }
    }
    return packet;
  }
};

// The compiled classifier on hostile diagrams: random partitions interned
// verbatim (not canonical). An incomplete one must be refused with
// std::logic_error — a structured dfw::Error escapes and fails the test —
// and a complete one must agree with the arena's own walk on in-domain
// packets.
TEST(CorpusFuzz, ClassifierBackendCompileOnFddSeeds) {
  std::mt19937_64 rng(2006);
  const Schema schema = five_tuple_schema();
  std::size_t complete_seen = 0;
  std::size_t incomplete_seen = 0;
  for (int i = 0; i < 200; ++i) {
    auto arena = std::make_shared<FddArena>(schema);
    RandomPartition partition{*arena, rng, {}};
    partition.cuts.resize(schema.field_count());
    const ArenaDiagram diagram{arena, partition.node(0)};
    if (!partition.complete) {
      ++incomplete_seen;
      EXPECT_THROW((void)Classifier::compile(diagram), std::logic_error);
      continue;
    }
    ++complete_seen;
    const Classifier compiled = Classifier::compile(diagram);
    for (int probe = 0; probe < 40; ++probe) {
      const Packet packet = partition.probe();
      ASSERT_EQ(compiled.classify(packet),
                arena->evaluate(diagram.root, packet));
    }
  }
  EXPECT_GT(complete_seen, 0u);
  EXPECT_GT(incomplete_seen, 0u);
}

// The lint CLI's own input surfaces: baseline files and SARIF logs. Both
// are accept-or-reject parsers (no exceptions in their contract), so the
// invariant is simply "never crash, never hang" — plus agreement between
// parse_baseline's return value and its error report.
TEST(CorpusFuzz, LintBaselineAndSarifSurfaces) {
  std::mt19937_64 rng(2005);
  const std::vector<std::string> seeds = load_corpus("lint");
  for (const std::string& seed : seeds) {
    for (int i = 0; i < 200; ++i) {
      const std::string input =
          (i % 5 == 0) ? random_bytes(rng, 200) : mutant_of(seed, i, rng);
      std::string error;
      const auto baseline = lint::parse_baseline(input, &error);
      if (baseline.has_value()) {
        EXPECT_TRUE(error.empty()) << input;
        EXPECT_TRUE(std::is_sorted(baseline->fingerprints.begin(),
                                   baseline->fingerprints.end()));
      } else {
        EXPECT_FALSE(error.empty()) << input;
      }
      const lint::SarifValidation v = lint::validate_sarif(input);
      EXPECT_EQ(v.ok, v.problems.empty());
    }
  }
}

TEST(CorpusFuzz, LintSeedsBehaveAsDocumented) {
  // The checked-in seeds pin the surfaces' contracts: the baseline seed
  // parses, the SARIF seed validates, and the malformed adapter inputs
  // raise ParseError (the CLI's exit-2 path), never anything else.
  for (const std::string& seed : load_corpus("lint")) {
    if (seed.find("fingerprint") != std::string::npos ||
        seed.rfind("# dfw-lint", 0) == 0) {
      EXPECT_TRUE(lint::parse_baseline(seed, nullptr).has_value()) << seed;
    }
    if (seed.find("\"version\"") != std::string::npos) {
      EXPECT_TRUE(lint::validate_sarif(seed).ok) << seed;
    }
    if (seed.rfind(":INPUT", 0) == 0) {
      EXPECT_THROW((void)parse_iptables_save(seed, "INPUT"), ParseError);
    }
    if (seed.rfind("access-list", 0) == 0) {
      EXPECT_THROW((void)parse_cisco_acl(seed, "101"), ParseError);
    }
  }
}

// The serve snapshot loader ("dfws 2", and "dfws 1" for older files;
// serve/snapshot.hpp) boots a daemon from disk, so its input can be torn
// writes, disk corruption or stale files. Its contract is the narrowest
// in the library: decode or throw dfw::Error — nothing else, ever.

TEST(Fuzz, SnapshotDecoderNeverCrashes) {
  std::mt19937_64 rng(1006);
  const Schema schema = five_tuple_schema();
  for (int i = 0; i < 400; ++i) {
    const std::string input =
        (i % 2 == 0) ? random_bytes(rng, 300)
        : (i % 4 == 1) ? "dfws 1\nsequence 2\n" + random_bytes(rng, 250)
                       : "dfws 2\nsequence 2\n" + random_bytes(rng, 250);
    try {
      (void)serve::snapshot::decode(schema, default_decisions(), input);
    } catch (const Error&) {
      // the documented (and only) failure mode
    }
  }
}

TEST(CorpusFuzz, SnapshotSeedsBehaveAsDocumented) {
  // Filename prefixes pin the contract: valid_* seeds decode, and so do
  // legacy_* ones (written by a layout since removed); bad_* seeds (bad
  // magic, truncation, checksum flip, unknown backend) throw dfw::Error.
  const Schema schema = five_tuple_schema();
  const std::filesystem::path dir =
      std::filesystem::path(DFW_CORPUS_DIR) / "snapshot";
  std::size_t valid_seen = 0;
  std::size_t bad_seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string seed = std::move(buf).str();
    if (name.rfind("valid_", 0) == 0 || name.rfind("legacy_", 0) == 0) {
      ++valid_seen;
      const auto data =
          serve::snapshot::decode(schema, default_decisions(), seed);
      EXPECT_GE(data.sequence, 1u) << name;
    } else if (name.rfind("bad_", 0) == 0) {
      ++bad_seen;
      EXPECT_THROW(
          (void)serve::snapshot::decode(schema, default_decisions(), seed),
          Error)
          << name;
    } else {
      ADD_FAILURE() << "unclassified snapshot seed: " << name;
    }
  }
  EXPECT_GE(valid_seen, 1u);
  EXPECT_GE(bad_seen, 3u);
}

TEST(CorpusFuzz, SnapshotMutants) {
  std::mt19937_64 rng(2007);
  const Schema schema = five_tuple_schema();
  for (const std::string& seed : load_corpus("snapshot")) {
    for (int i = 0; i < 300; ++i) {
      const std::string input = mutant_of(seed, i, rng);
      try {
        const auto data =
            serve::snapshot::decode(schema, default_decisions(), input);
        // The checksum makes accidental acceptance astronomically
        // unlikely, but any accepted mutant must be fully coherent.
        EXPECT_GE(data.sequence, 1u);
      } catch (const Error&) {
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The fleet manifest parser (fleet/fleet.hpp) eats operator-authored
// files; it must accept or reject (nullopt plus a line-numbered message),
// never crash.

TEST(Fuzz, FleetManifestParserNeverCrashes) {
  std::mt19937_64 rng(4242);
  for (int i = 0; i < 2000; ++i) {
    const std::string input = random_bytes(rng, 200);
    std::string error;
    const auto parsed = fleet::parse_fleet_manifest(input, &error);
    if (!parsed.has_value()) {
      EXPECT_FALSE(error.empty()) << input;
      EXPECT_NE(error.find("line "), std::string::npos) << input;
    }
  }
}

TEST(CorpusFuzz, FleetManifestSeedsBehaveAsDocumented) {
  // Filename prefixes pin the contract: valid_* seeds parse (and their
  // referenced sibling-corpus paths exist); bad_* seeds are rejected
  // with a line-numbered message.
  const std::filesystem::path dir =
      std::filesystem::path(DFW_CORPUS_DIR) / "fleet";
  std::size_t valid_seen = 0;
  std::size_t bad_seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string seed = std::move(buf).str();
    std::string error;
    const auto parsed = fleet::parse_fleet_manifest(seed, &error);
    if (name.rfind("valid_", 0) == 0) {
      ++valid_seen;
      ASSERT_TRUE(parsed.has_value()) << name << ": " << error;
      EXPECT_FALSE(parsed->empty()) << name;
      for (const fleet::FleetItem& item : *parsed) {
        EXPECT_TRUE(std::filesystem::exists(dir / item.path))
            << name << " references missing " << item.path;
      }
    } else if (name.rfind("bad_", 0) == 0) {
      ++bad_seen;
      EXPECT_FALSE(parsed.has_value()) << name;
      EXPECT_NE(error.find("line "), std::string::npos) << name;
    } else {
      ADD_FAILURE() << "unclassified fleet seed: " << name;
    }
  }
  EXPECT_GE(valid_seen, 1u);
  EXPECT_GE(bad_seen, 3u);
}

TEST(CorpusFuzz, FleetManifestMutants) {
  std::mt19937_64 rng(2008);
  for (const std::string& seed : load_corpus("fleet")) {
    for (int i = 0; i < 300; ++i) {
      const std::string input = mutant_of(seed, i, rng);
      std::string error;
      const auto parsed = fleet::parse_fleet_manifest(input, &error);
      if (!parsed.has_value()) {
        EXPECT_FALSE(error.empty());
      }
    }
  }
}

TEST(Fuzz, ValidInputsStillParseAfterNoOpMutationCheck) {
  // Sanity guard on the harness itself: the unmutated inputs must parse.
  const Schema schema = five_tuple_schema();
  EXPECT_NO_THROW(parse_policy(schema, default_decisions(),
                               "discard sip=224.168.0.0/16\naccept\n"));
  EXPECT_NO_THROW(parse_iptables_save(
      ":INPUT DROP [0:0]\n-A INPUT -p tcp -j ACCEPT\n", "INPUT"));
  EXPECT_NO_THROW(
      parse_cisco_acl("access-list 101 permit ip any any\n", "101"));
}

}  // namespace
}  // namespace dfw
