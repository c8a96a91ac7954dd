#include "fdd/serialize.hpp"

#include <charconv>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fdd/arena.hpp"

namespace dfw {
namespace {

// Expansion ceiling for ungoverned v2 loads: a DAG of a few hundred bytes
// can describe a tree of 2^64 nodes, so expansion must be bounded even
// when the caller did not pass a RunContext.
constexpr std::size_t kDefaultExpansionCap = 1u << 22;  // ~4M nodes

void emit(const FddNode& node, std::string& out) {
  if (node.is_terminal()) {
    out += "T " + std::to_string(node.decision) + "\n";
    return;
  }
  out += "N " + std::to_string(node.field) + " " +
         std::to_string(node.edges.size()) + "\n";
  for (const FddEdge& e : node.edges) {
    out += "E ";
    const std::vector<Interval>& runs = e.label.intervals();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (i != 0) {
        out += ",";
      }
      out += std::to_string(runs[i].lo()) + ":" +
             std::to_string(runs[i].hi());
    }
    out += "\n";
    emit(*e.target, out);
  }
}

void emit_label(const IntervalSet& label, std::string& out) {
  const std::vector<Interval>& runs = label.intervals();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    out += std::to_string(runs[i].lo()) + ":" + std::to_string(runs[i].hi());
  }
}

// Line-cursor over the serialized text.
struct Reader {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t line_no = 0;

  std::size_t remaining() const {
    return pos >= text.size() ? 0 : text.size() - pos;
  }

  std::string_view next_line() {
    if (pos > text.size()) {
      throw std::invalid_argument("deserialize_fdd: unexpected end of input");
    }
    const std::size_t nl = text.find('\n', pos);
    std::string_view line;
    if (nl == std::string_view::npos) {
      line = text.substr(pos);
      pos = text.size() + 1;
    } else {
      line = text.substr(pos, nl - pos);
      pos = nl + 1;
    }
    ++line_no;
    return line;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw std::invalid_argument("deserialize_fdd: line " +
                                std::to_string(line_no) + ": " + message);
  }
};

std::uint64_t parse_number(Reader& r, std::string_view s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    r.fail("bad number '" + std::string(s) + "'");
  }
  return v;
}

IntervalSet parse_label(Reader& r, std::string_view s) {
  IntervalSet set;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string_view item =
        s.substr(start, comma == std::string_view::npos
                            ? std::string_view::npos
                            : comma - start);
    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos) {
      r.fail("edge label item without ':'");
    }
    const std::uint64_t lo = parse_number(r, item.substr(0, colon));
    const std::uint64_t hi = parse_number(r, item.substr(colon + 1));
    if (lo > hi) {
      r.fail("inverted interval in edge label");
    }
    set.add(Interval(lo, hi));
    if (comma == std::string_view::npos) {
      break;
    }
    start = comma + 1;
  }
  if (set.empty()) {
    r.fail("empty edge label");
  }
  return set;
}

// v1 recursive-descent node parser. `min_field` enforces the FDD field
// order *at parse time* — a nonterminal's field must be at least the
// parent's field + 1 — which both reports violations with a line number
// and bounds the recursion depth by the schema's field count, so hostile
// deeply-nested input cannot overflow the stack before validate() runs.
std::unique_ptr<FddNode> parse_node(Reader& r, const Schema& schema,
                                    std::size_t min_field) {
  const std::string_view line = r.next_line();
  if (line.size() < 2 || line[1] != ' ') {
    r.fail("expected node line, got '" + std::string(line) + "'");
  }
  const std::string_view body = line.substr(2);
  if (line[0] == 'T') {
    const std::uint64_t decision = parse_number(r, body);
    if (decision > UINT16_MAX) {
      r.fail("decision id out of range");
    }
    return FddNode::make_terminal(static_cast<Decision>(decision));
  }
  if (line[0] != 'N') {
    r.fail("expected 'N' or 'T' line");
  }
  const std::size_t space = body.find(' ');
  if (space == std::string_view::npos) {
    r.fail("node line needs field and edge count");
  }
  const std::uint64_t field = parse_number(r, body.substr(0, space));
  const std::uint64_t edge_count = parse_number(r, body.substr(space + 1));
  if (field >= schema.field_count()) {
    r.fail("field index " + std::to_string(field) + " out of range (schema "
           "has " + std::to_string(schema.field_count()) + " fields)");
  }
  if (field < min_field) {
    r.fail("field order violated: field " + std::to_string(field) +
           " under an ancestor with field >= " + std::to_string(min_field));
  }
  if (edge_count == 0) {
    r.fail("nonterminal node with zero edges");
  }
  // Every edge needs at least an 'E' line and a node line; bounding the
  // count by the remaining input defuses reserve bombs ("N 0 9999999999").
  if (edge_count > r.remaining()) {
    r.fail("edge count " + std::to_string(edge_count) +
           " exceeds the remaining input");
  }
  auto node = FddNode::make_internal(static_cast<std::size_t>(field));
  node->edges.reserve(static_cast<std::size_t>(edge_count));
  for (std::uint64_t e = 0; e < edge_count; ++e) {
    const std::string_view edge_line = r.next_line();
    if (edge_line.size() < 2 || edge_line[0] != 'E' || edge_line[1] != ' ') {
      r.fail("expected edge line");
    }
    IntervalSet label = parse_label(r, edge_line.substr(2));
    node->edges.emplace_back(
        std::move(label),
        parse_node(r, schema, static_cast<std::size_t>(field) + 1));
  }
  return node;
}

// ---------------------------------------------------------------------------
// v2: explicit-id DAG records, interned straight into an arena.

// Parses the records after the schema line into `arena` and returns the
// root's id there. Records that describe one subdiagram twice intern to
// one node.
ArenaNodeId parse_dag(FddArena& arena, Reader& r) {
  const std::string_view nodes_line = r.next_line();
  if (nodes_line.substr(0, 6) != "nodes ") {
    r.fail("missing 'nodes' line");
  }
  const std::uint64_t count = parse_number(r, nodes_line.substr(6));
  if (count == 0) {
    r.fail("node count must be positive");
  }
  // Every record needs at least one line of input.
  if (count > r.remaining()) {
    r.fail("node count " + std::to_string(count) +
           " exceeds the remaining input");
  }
  const Schema& schema = arena.schema();
  std::unordered_map<std::uint64_t, ArenaNodeId> node_of_id;
  node_of_id.reserve(static_cast<std::size_t>(count));

  // A target must name an id defined on an *earlier* line: that one rule
  // rejects dangling ids, forward references, and cycles, and it proves
  // the records arrive children-first, so the field-order check below can
  // consult the target's already-interned node.
  const auto resolve_target = [&](Reader& reader,
                                  std::uint64_t id) -> ArenaNodeId {
    const auto it = node_of_id.find(id);
    if (it == node_of_id.end()) {
      reader.fail("edge references undefined node id " + std::to_string(id) +
                  " (dangling, forward, or cyclic)");
    }
    return it->second;
  };

  for (std::uint64_t n = 0; n < count; ++n) {
    const std::string_view line = r.next_line();
    if (line.size() < 2 || line[1] != ' ') {
      r.fail("expected node record, got '" + std::string(line) + "'");
    }
    const std::string_view body = line.substr(2);
    std::uint64_t id = 0;
    ArenaNodeId node = 0;
    if (line[0] == 'T') {
      const std::size_t space = body.find(' ');
      if (space == std::string_view::npos) {
        r.fail("terminal record needs id and decision");
      }
      id = parse_number(r, body.substr(0, space));
      const std::uint64_t decision = parse_number(r, body.substr(space + 1));
      if (decision > UINT16_MAX) {
        r.fail("decision id out of range");
      }
      node = arena.terminal(static_cast<Decision>(decision));
    } else if (line[0] == 'N') {
      const std::size_t s1 = body.find(' ');
      const std::size_t s2 =
          s1 == std::string_view::npos ? s1 : body.find(' ', s1 + 1);
      if (s1 == std::string_view::npos || s2 == std::string_view::npos) {
        r.fail("nonterminal record needs id, field, and edge count");
      }
      id = parse_number(r, body.substr(0, s1));
      const std::uint64_t field =
          parse_number(r, body.substr(s1 + 1, s2 - s1 - 1));
      const std::uint64_t edge_count = parse_number(r, body.substr(s2 + 1));
      if (field >= schema.field_count()) {
        r.fail("field index " + std::to_string(field) +
               " out of range (schema has " +
               std::to_string(schema.field_count()) + " fields)");
      }
      if (edge_count == 0) {
        r.fail("nonterminal node with zero edges");
      }
      if (edge_count > r.remaining()) {
        r.fail("edge count " + std::to_string(edge_count) +
               " exceeds the remaining input");
      }
      std::vector<ArenaEdge> edges;
      edges.reserve(static_cast<std::size_t>(edge_count));
      for (std::uint64_t e = 0; e < edge_count; ++e) {
        const std::string_view edge_line = r.next_line();
        if (edge_line.size() < 2 || edge_line[0] != 'E' ||
            edge_line[1] != ' ') {
          r.fail("expected edge line");
        }
        const std::string_view edge_body = edge_line.substr(2);
        const std::size_t space = edge_body.find(' ');
        if (space == std::string_view::npos) {
          r.fail("edge line needs target id and label");
        }
        const std::uint64_t target_id =
            parse_number(r, edge_body.substr(0, space));
        const ArenaNodeId target = resolve_target(r, target_id);
        // Parse-time field-order enforcement: bounds every later walk of
        // the diagram (and the tree expansion) by the schema depth,
        // exactly like the v1 parser.
        if (!arena.is_terminal(target) && arena.field(target) <= field) {
          r.fail("field order violated: child node id " +
                 std::to_string(target_id) + " has field " +
                 std::to_string(arena.field(target)) + " <= parent field " +
                 std::to_string(field));
        }
        edges.push_back(
            {arena.intern(parse_label(r, edge_body.substr(space + 1))),
             target});
      }
      node = arena.internal(static_cast<std::size_t>(field), std::move(edges));
    } else {
      r.fail("expected 'N' or 'T' record");
    }
    if (!node_of_id.emplace(id, node).second) {
      r.fail("duplicate node id " + std::to_string(id));
    }
  }

  const std::string_view root_line = r.next_line();
  if (root_line.substr(0, 5) != "root ") {
    r.fail("missing 'root' line");
  }
  return resolve_target(r, parse_number(r, root_line.substr(5)));
}

// The v2 text of a diagram interned bottom-up into a fresh arena, which
// then holds exactly its nodes: children get smaller ids than their
// parents, so emitting the records in id order satisfies the loader's
// children-first rule by construction.
std::string dag_text(const FddArena& arena, ArenaNodeId root) {
  std::string out = "dfdd 2\n";
  out += "schema " + std::to_string(arena.schema().field_count()) + "\n";
  out += "nodes " + std::to_string(arena.unique_node_count()) + "\n";
  for (ArenaNodeId id = 0; id < arena.unique_node_count(); ++id) {
    if (arena.is_terminal(id)) {
      out += "T " + std::to_string(id) + " " +
             std::to_string(arena.decision(id)) + "\n";
      continue;
    }
    const auto edges = arena.edges(id);
    out += "N " + std::to_string(id) + " " +
           std::to_string(arena.field(id)) + " " +
           std::to_string(edges.size()) + "\n";
    for (const ArenaEdge& e : edges) {
      out += "E " + std::to_string(e.target) + " ";
      emit_label(arena.label(e.label), out);
      out += "\n";
    }
  }
  out += "root " + std::to_string(root) + "\n";
  return out;
}

// The tree the v2 records describe. Expansion un-shares the DAG, so a few
// records can describe an exponentially large tree: with a context,
// to_tree charges every tree node it builds; without one, the expanded
// size is checked against the built-in cap before anything is built.
Fdd expand_dag(const Schema& schema, Reader& r, RunContext* context) {
  FddArena arena(schema);
  const ArenaNodeId root = parse_dag(arena, r);
  if (context == nullptr &&
      arena.expanded_node_count(root) > kDefaultExpansionCap) {
    throw std::invalid_argument(
        "deserialize_fdd: DAG expansion exceeds " +
        std::to_string(kDefaultExpansionCap) +
        " tree nodes; pass a RunContext to raise the limit");
  }
  arena.set_context(context);
  return arena.to_fdd(root);
}

// Reads the header and schema lines; returns the format version.
int read_header(Reader& r, const Schema& schema) {
  const std::string_view header = r.next_line();
  int version = 0;
  if (header == "dfdd 1") {
    version = 1;
  } else if (header == "dfdd 2") {
    version = 2;
  } else {
    r.fail("missing 'dfdd 1' or 'dfdd 2' header");
  }
  const std::string_view schema_line = r.next_line();
  if (schema_line.substr(0, 7) != "schema ") {
    r.fail("missing schema line");
  }
  const std::uint64_t d = parse_number(r, schema_line.substr(7));
  if (d != schema.field_count()) {
    r.fail("schema field count mismatch");
  }
  return version;
}

// Trailing garbage (beyond a final newline) is an error.
void expect_end(Reader& r) {
  while (r.pos <= r.text.size()) {
    const std::string_view line = r.next_line();
    if (!line.empty()) {
      r.fail("trailing content after the diagram");
    }
  }
}

}  // namespace

std::string serialize_fdd(const Fdd& fdd) {
  std::string out = "dfdd 1\n";
  out += "schema " + std::to_string(fdd.schema().field_count()) + "\n";
  emit(fdd.root(), out);
  return out;
}

std::string serialize_fdd_dag(const Fdd& fdd) {
  FddArena arena(fdd.schema());
  const ArenaNodeId root = arena.from_tree(fdd.root());
  return dag_text(arena, root);
}

std::string serialize_fdd_dag(const ArenaDiagram& diagram) {
  FddArena arena(diagram.arena->schema());
  const ArenaNodeId root = arena.import(*diagram.arena, diagram.root);
  return dag_text(arena, root);
}

Fdd deserialize_fdd(const Schema& schema, std::string_view text) {
  return deserialize_fdd(schema, text, nullptr);
}

Fdd deserialize_fdd(const Schema& schema, std::string_view text,
                    RunContext* context) {
  Reader r{text};
  Fdd fdd = read_header(r, schema) == 1
                ? Fdd(schema, parse_node(r, schema, 0))
                : expand_dag(schema, r, context);
  expect_end(r);
  // Structure checks: ordering, domains, consistency. Completeness is not
  // required here (partial diagrams are legitimate artifacts).
  fdd.validate(/*require_complete=*/false);
  return fdd;
}

ArenaDiagram deserialize_fdd_dag(const Schema& schema,
                                 std::string_view text) {
  Reader r{text};
  if (read_header(r, schema) != 2) {
    r.fail("want a 'dfdd 2' diagram");
  }
  auto parsed = std::make_shared<FddArena>(schema);
  const ArenaNodeId root = parse_dag(*parsed, r);
  expect_end(r);
  parsed->validate(root, /*require_complete=*/false);
  return compact(ArenaDiagram{std::move(parsed), root});
}

}  // namespace dfw
