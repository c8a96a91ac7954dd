// FDD serialization.
//
// Two line-based text formats for saving shaped or reduced diagrams and
// shipping them between tools (the comparison phase's artifacts — shaped
// FDDs and corrected FDDs — are worth persisting across the resolution
// phase).
//
// Version 1, preorder tree (one subtree per edge, shared subdiagrams
// duplicated):
//
//   dfdd 1                      header: magic + version
//   schema <d>                  field count (domains come from the caller)
//   N <field> <edge-count>      nonterminal node
//   E <lo>:<hi>[,<lo>:<hi>...]  one edge label; its subtree follows
//   T <decision>                terminal node
//
// Version 2, explicit-id DAG (shared subdiagrams written once, bottom-up):
//
//   dfdd 2
//   schema <d>
//   nodes <count>               node records follow, children first
//   T <id> <decision>           terminal record
//   N <id> <field> <edge-count> nonterminal record; its E lines follow
//   E <target-id> <lo>:<hi>[,...]
//   root <id>
//
// The caller supplies the Schema on load; the formats store only the
// structure, and load validates it against the schema. Both parsers are
// hardened for untrusted input: every read is bounds-checked, recursion
// depth is bounded by parse-time field-order enforcement, edge/node
// counts are bounded by the input size (no reserve bombs), and the v2
// loader rejects duplicate node ids and dangling (or forward, or cyclic)
// child references with precise per-line errors. The v2 loader interns
// the records straight into an FddArena (fdd/arena.hpp); only the tree
// entry point expands them.

#pragma once

#include <string>
#include <string_view>

#include "fdd/arena.hpp"
#include "fdd/fdd.hpp"

namespace dfw {

class RunContext;

/// Serializes the diagram in the v1 tree format. Deterministic: equal
/// FDDs produce equal text.
std::string serialize_fdd(const Fdd& fdd);

/// Serializes the diagram in the v2 DAG format: structurally identical
/// subtrees are interned and written once, so the output is at most — and
/// often exponentially smaller than — the v1 text. Deterministic.
std::string serialize_fdd_dag(const Fdd& fdd);

/// The v2 DAG text of an arena diagram: the nodes its root reaches,
/// renumbered children first. Equal to serialize_fdd_dag of its to_fdd
/// expansion, without expanding it.
std::string serialize_fdd_dag(const ArenaDiagram& diagram);

/// Parses a serialized diagram (either version, dispatched on the header)
/// and re-attaches the schema. Throws std::invalid_argument on syntax and
/// structural errors (including id violations in v2) and std::logic_error
/// when the parsed structure violates the FDD invariants for this schema.
Fdd deserialize_fdd(const Schema& schema, std::string_view text);

/// Governed deserialization: expanding a v2 DAG un-shares every node, so a
/// few kilobytes of hostile text can describe an exponentially large tree
/// (a decompression bomb). With a context, every materialised tree node is
/// charged against its node budget and a breach throws dfw::Error; with a
/// null context a built-in expansion cap applies instead.
Fdd deserialize_fdd(const Schema& schema, std::string_view text,
                    RunContext* context);

/// Parses v2 DAG text into an arena of its own holding only the nodes the
/// root reaches, with deserialize_fdd's structure checks and exceptions.
/// Nothing is expanded, so no bomb can go off and no context is needed;
/// v1 text is rejected.
ArenaDiagram deserialize_fdd_dag(const Schema& schema, std::string_view text);

}  // namespace dfw
