// The compiled-classifier backend interface.
//
// One reduced diagram admits two execution layouts with different cost
// models: the flat-slab form (d conditional-move binary searches over
// contiguous slabs, eight packets walking the diagram together) and a
// prefix-trie form (multi-bit stride tables for IPv4 fields, in the
// spirit of LPM forwarding tables, reusing net/prefix.*'s geometry).
// flat_slab compiles faster and stays small; which one looks up faster
// depends on the traffic (docs/classifier.md). Lookups take a run of
// packets, so a backend can interleave independent walks. The Classifier
// facade (engine/classifier.hpp) compiles a policy into one of them,
// selected by CompileOptions::backend; both are required to produce
// byte-identical decisions — the cross-backend equivalence harness in
// tests/classifier_backend_test.cpp is the gate.
//
// Backends are immutable after compilation and internally pointer-free
// (index-linked flat vectors), so lookups take no locks and a compiled
// backend can be shared across threads freely — the property the serve
// plane's epoch-published versions rely on.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "fw/decision.hpp"
#include "fw/packet.hpp"

namespace dfw {

struct ArenaDiagram;

/// The compiled layouts a Classifier can execute.
enum class ClassifierBackendKind {
  kFlatSlab,    ///< sorted (upper, next) slabs, branchless binary search
  kPrefixTrie,  ///< stride-8 trie tables on IPv4 fields, slabs elsewhere
};

/// Stable lowercase name ("flat_slab", "prefix_trie") —
/// the spelling of dfw_serve's --backend flag and the serve.backend.*
/// metric suffixes.
const char* to_string(ClassifierBackendKind kind);

/// Inverse of to_string; nullopt on an unknown name.
std::optional<ClassifierBackendKind> parse_backend_kind(std::string_view name);

/// The "classifier.compile.<backend>" phase-span literal for a kind (the
/// obs layer requires static-lifetime names; see obs/names.hpp).
const char* compile_phase_name(ClassifierBackendKind kind);

/// The "serve.backend.<backend>" counter literal for a kind.
const char* serve_backend_counter_name(ClassifierBackendKind kind);

/// One compiled execution form of a complete diagram. Implementations are
/// immutable and safe to share across threads.
class ClassifierBackend {
 public:
  virtual ~ClassifierBackend() = default;

  virtual ClassifierBackendKind kind() const = 0;

  /// The decisions for `n` packets: out[i] for packets[i], each packet
  /// `field_count` values in schema order. The one lookup entry point; a
  /// single lookup is a run of one. Arity and domain conformance are the
  /// caller's contract (the Classifier facade checks arity).
  virtual void classify(const Packet* packets, std::size_t n,
                        Decision* out) const = 0;

  /// Compiled interior nodes: one per unique nonterminal of the
  /// diagram, in both layouts.
  virtual std::size_t node_count() const = 0;
  /// Slab entries (flat-slab) or trie+slab entries (prefix-trie).
  virtual std::size_t slab_count() const = 0;
};

/// Per-backend compile factories. Each relies on the facade's prior
/// validation of the diagram and never keeps a reference to it. Both
/// build on the slab layout, which throws
/// dfw::Error(ErrorCode::kCapacityExceeded) past its 31-bit node index
/// space.
std::shared_ptr<const ClassifierBackend> compile_flat_slab_backend(
    const ArenaDiagram& diagram);
std::shared_ptr<const ClassifierBackend> compile_prefix_trie_backend(
    const ArenaDiagram& diagram);

/// Dispatches on `kind` to the factories above.
std::shared_ptr<const ClassifierBackend> compile_backend(
    ClassifierBackendKind kind, const ArenaDiagram& diagram);

}  // namespace dfw
