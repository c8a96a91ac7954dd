// Crash-consistent serve snapshots.
//
// A serve daemon's only durable state is the version it is serving; a
// snapshot captures exactly that — the operator's policy text, the
// reduced diagram it compiled from (dfdd v2 DAG, fdd/serialize.hpp) and
// the version sequence — so a restarted daemon resumes byte-identical
// classification at the next sequence number instead of reverting to its
// boot policy.
//
// Format "dfws 1", line-based like the dfdd formats it embeds:
//
//   dfws 1                      header: magic + version
//   sequence <n>                served version (>= 1)
//   backend <name>              the compiled layout: flat_slab
//   policy <bytes>              byte count of the policy text that follows
//   <policy text>
//   fdd <bytes>                 byte count of the dfdd v2 text that follows
//   <dfdd v2 text>
//   checksum <hex16>            FNV-1a 64 over every byte above this line
//
// Crash consistency is two-layered: write_atomic() publishes via
// write-to-temp + rename, so a crash mid-write leaves either the old
// snapshot or the new one, never a blend; and decode() verifies the
// trailing checksum before trusting anything, so a torn or bit-flipped
// file is rejected with a structured error (exit 2 at the CLI), not
// served. The decoder inherits the dfdd v2 loader's hardening (bounds
// checks, byte counts capped by the input size, id and field-order
// checks); the DAG loads straight into an arena and is never expanded.
// The backend line is read for compatibility: snapshots written by a
// daemon that ran the prefix_trie layout, since removed, name it there,
// and they restore onto flat_slab with the same decisions. It throws
// dfw::Error only: kParseError for malformed text (including any other
// backend name, e.g. bit_parallel), kInvalidInput for structural
// violations and checksum mismatches.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fdd/arena.hpp"
#include "fw/decision.hpp"
#include "fw/policy.hpp"

namespace dfw {
class FaultPlan;
}  // namespace dfw

namespace dfw::serve::snapshot {

/// One decoded snapshot: everything a ServeCore needs to resume serving.
/// The diagram is compact: its arena holds only the nodes its root
/// reaches.
struct SnapshotData {
  std::uint64_t sequence;
  Policy policy;
  ArenaDiagram diagram;
};

/// Serializes a served version. Deterministic: equal inputs produce equal
/// text. `decisions` renders the policy's decision names (the serve CLI
/// uses default_decisions()). `faults` (borrowed, nullable) is consulted
/// at the serve.snapshot.save site before any byte is produced.
std::string encode(std::uint64_t sequence, const Policy& policy,
                   const ArenaDiagram& diagram, const DecisionSet& decisions,
                   FaultPlan* faults = nullptr);

/// Parses and verifies a snapshot. The caller supplies the schema and
/// decision set (the formats store structure, not domains — the dfdd
/// convention). Throws dfw::Error as documented above; `faults` is
/// consulted at the serve.snapshot.load site first.
SnapshotData decode(const Schema& schema, const DecisionSet& decisions,
                    std::string_view text, FaultPlan* faults = nullptr);

/// Publishes `text` at `path` atomically: writes `path`.tmp, flushes,
/// renames over `path`. Throws dfw::Error(kInternal) on I/O failure (the
/// previous snapshot, if any, is left intact).
void write_atomic(const std::string& path, std::string_view text);

/// Slurps a snapshot file. Throws dfw::Error(kInvalidInput) when the file
/// cannot be opened or read.
std::string read_file(const std::string& path);

}  // namespace dfw::serve::snapshot
