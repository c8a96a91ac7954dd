// Crash-consistent serve snapshots.
//
// A serve daemon's only durable state is the version it is serving; a
// snapshot captures exactly what cannot be recomputed — the operator's
// policy text and the version sequence — so a restarted daemon compiles
// that policy as a boot does and resumes byte-identical classification
// at the next sequence number instead of reverting to its boot policy.
// The reduced diagram is a function of the rule sequence alone, so it is
// not stored: the text is the one source of truth.
//
// Format "dfws 2", line-based:
//
//   dfws 2                      header: magic + version
//   sequence <n>                served version (>= 1)
//   policy <bytes>              byte count of the policy text that follows
//   <policy text>
//   checksum <hex16>            FNV-1a 64 over every byte above this line
//
// decode() still restores every "dfws 1" file. That format adds a
// `backend <name>` line after the sequence and an `fdd <bytes>` block (a
// dfdd v2 diagram text) after the policy block. The backend line is
// checked: flat_slab, or prefix_trie from a daemon that ran that layout
// since removed, which restores onto flat_slab with the same decisions;
// any other name (e.g. bit_parallel) is a kParseError. The fdd block is
// covered by the checksum but skipped unparsed: its policy text is what
// is restored.
//
// Crash consistency is two-layered: write_atomic() publishes via
// write-to-temp + rename, so a crash mid-write leaves either the old
// snapshot or the new one, never a blend; and decode() verifies the
// trailing checksum before trusting anything, so a torn or bit-flipped
// file is rejected with a structured error (exit 2 at the CLI), not
// served. Byte counts are bounded by the input size before any
// allocation. The checksum is an integrity seal, not a signature: a
// snapshot is the daemon's own state file, trusted like its boot policy.
// It throws dfw::Error only: kParseError for malformed text (the policy
// text included), kInvalidInput for structural violations and checksum
// mismatches.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fw/decision.hpp"
#include "fw/policy.hpp"

namespace dfw {
class FaultPlan;
}  // namespace dfw

namespace dfw::serve::snapshot {

/// One decoded snapshot: everything a ServeCore needs to resume serving.
struct SnapshotData {
  std::uint64_t sequence;
  Policy policy;
};

/// Serializes a served version as dfws 2. Deterministic: equal inputs
/// produce equal text. `decisions` renders the policy's decision names
/// (the serve CLI uses default_decisions()). `faults` (borrowed,
/// nullable) is consulted at the serve.snapshot.save site before any byte
/// is produced.
std::string encode(std::uint64_t sequence, const Policy& policy,
                   const DecisionSet& decisions, FaultPlan* faults = nullptr);

/// Parses and verifies a dfws 2 or dfws 1 snapshot. The caller supplies
/// the schema and decision set the policy text is parsed against. Throws
/// dfw::Error as documented above; `faults` is consulted at the
/// serve.snapshot.load site first. The policy is not compiled here, so a
/// policy that is not comprehensive decodes, and ServeCore refuses it.
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
