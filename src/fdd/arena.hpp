// FddArena: hash-consed FDD storage with structural sharing.
//
// The tree representation (fdd/node.hpp) owns every child through a
// unique_ptr, so the construction algorithm's "subgraph replication"
// (Section 4, operation 3) is a literal deep copy and structurally
// identical subtrees exist once per occurrence. The arena instead interns
// every node in a unique table — keyed on (field, decision, edge list) and
// collision-checked with full equality, never trusted blindly — and interns
// every edge label in a side table, so nodes are referenced by 32-bit ids
// and an identical subdiagram exists exactly once. Two consequences drive
// the whole design (the classic BDD recipe, cf. Hazelhurst's firewall-BDD
// work):
//
//   * id equality IS semantic equality for canonically built diagrams, so
//     "clone subtree" becomes "copy an id" (copy-on-write appends) and
//     sibling-merge reduction happens at node-creation time — a diagram
//     built through canonical() is reduced by construction, no post-pass.
//   * operations on ids are pure functions of their arguments, so the
//     construction and overlay walks memoise on node ids, and comparison
//     prunes every tuple of equal ids without looking inside.
//
// The arena is the production representation: construction, comparison,
// resolution, the compiled classifier, serve, lint and queries all read
// ArenaDiagram handles. The tree Fdd is the paper-literal reference the
// arena is tested against and the authoring and display format of the
// paper's figures; to_tree/from_tree are the lossless bridges. An arena is
// single-threaded and append-only: ids stay valid for the arena's lifetime
// and memo caches never need invalidation.
//
// Partial diagrams (some packets undecided) are canonical too, with the
// undecided region left edgeless and kEmpty standing for "nothing decided".
// overlay() combines two of them by first match, which is what the
// redundancy oracle (gen/redundancy.hpp) reads policies with: a prefix of
// the rules overlaid on a suffix of them. agree_outside() asks whether
// two such overlays would be equal without building them, which is each
// rule's redundancy test.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fdd/compare.hpp"
#include "fdd/fdd.hpp"
#include "fdd/stats.hpp"
#include "fw/policy.hpp"
#include "rt/run_options.hpp"

namespace dfw {

/// Index of a node in an FddArena. Stable for the arena's lifetime.
using ArenaNodeId = std::uint32_t;
/// Index of an interned edge label in an FddArena.
using ArenaLabelId = std::uint32_t;

/// Sentinel field value marking arena terminal nodes.
inline constexpr std::uint32_t kArenaTerminalField =
    static_cast<std::uint32_t>(-1);

/// One outgoing edge: an interned label and a target node id.
struct ArenaEdge {
  ArenaLabelId label;
  ArenaNodeId target;

  friend bool operator==(const ArenaEdge&, const ArenaEdge&) = default;
};

/// A memo from pairs of ids to node ids: the pair packed into one 64-bit
/// key, open addressing over a power-of-two array at most half full. It is
/// never reset: ids are immutable, so an entry stays valid for as long as
/// the arena whose ids it holds. Lookups and hits never allocate.
class IdPairMemo {
 public:
  static std::uint64_t key(std::uint32_t a, std::uint32_t b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  /// The value stored under `key`, when there is one.
  bool find(std::uint64_t key, ArenaNodeId& value) const;
  /// Stores `value` under a `key` not stored yet. The key of two all-ones
  /// ids marks vacant slots and is never stored.
  void insert(std::uint64_t key, ArenaNodeId value);

 private:
  struct Slot {
    std::uint64_t key;
    ArenaNodeId value;
  };
  std::vector<Slot> slots_;
  std::size_t live_ = 0;
};

class RunContext;
class FaultPlan;

class FddArena {
 public:
  /// The empty partial diagram: no rule folded in, no packet decided. Only
  /// append_rule, overlay, agree_outside and compare accept it. Appending
  /// a rule to it yields the rule's lone decision path (Fig. 6), so policy
  /// prefixes start here.
  static constexpr ArenaNodeId kEmpty = static_cast<ArenaNodeId>(-1);

  explicit FddArena(Schema schema);

  FddArena(const FddArena&) = delete;
  FddArena& operator=(const FddArena&) = delete;

  const Schema& schema() const { return schema_; }

  /// Attaches a governance context (borrowed, nullable): every node the
  /// arena materialises is charged against its node budget, interned label
  /// storage against its label budget, and the recursive operations call
  /// amortized cancellation/deadline checkpoints. A breach throws
  /// dfw::Error mid-operation; the arena stays valid (ids created before
  /// the breach remain usable). Null detaches.
  void set_context(RunContext* context) { govern_ = context; }
  RunContext* context() const { return govern_; }

  /// Attaches a fault plan (borrowed, nullable, rt/fault.hpp): node
  /// materialisation hits the fdd.arena.alloc site, so a seeded schedule
  /// can simulate an allocation failure mid-build. A fire throws
  /// dfw::Error mid-operation with the same arena-stays-valid contract as
  /// a governance breach. Null detaches (the default, zero-cost path).
  void set_faults(FaultPlan* faults) { faults_ = faults; }
  FaultPlan* faults() const { return faults_; }

  // -- Node interning ------------------------------------------------------

  /// The unique terminal deciding `d`.
  ArenaNodeId terminal(Decision d);

  /// Interns a nonterminal exactly as given (edges are sorted by label
  /// minimum; labels must be disjoint and nonempty). No sibling merging or
  /// splicing, so it can represent non-canonical partitions faithfully.
  ArenaNodeId internal(std::size_t field, std::vector<ArenaEdge> edges);

  /// Interns a nonterminal in *canonical* (reduced) form: edges whose
  /// targets are identical are merged (their labels united), and a node
  /// whose single edge spans the field's whole domain is spliced — the
  /// target id is returned instead. Equivalent to running reduce() at every
  /// node, made O(1) amortised by children already being canonical.
  ArenaNodeId canonical(std::size_t field, std::vector<ArenaEdge> edges);

  /// Interns an edge label, returning the shared id for equal sets.
  ArenaLabelId intern(const IntervalSet& label);

  // -- Accessors -----------------------------------------------------------

  const IntervalSet& label(ArenaLabelId id) const { return labels_[id]; }
  bool is_terminal(ArenaNodeId id) const {
    return nodes_[id].field == kArenaTerminalField;
  }
  /// Field index of a nonterminal, or kArenaTerminalField.
  std::uint32_t field(ArenaNodeId id) const { return nodes_[id].field; }
  Decision decision(ArenaNodeId id) const { return nodes_[id].decision; }
  /// Whether the diagram under `id` decides every packet: a terminal, or a
  /// node whose labels cover its field's domain and whose children are all
  /// complete. Set once, when the node is interned.
  bool is_complete(ArenaNodeId id) const { return nodes_[id].complete; }
  std::span<const ArenaEdge> edges(ArenaNodeId id) const {
    const NodeRecord& n = nodes_[id];
    return {edge_pool_.data() + n.edge_begin, n.edge_count};
  }

  std::size_t unique_node_count() const { return nodes_.size(); }

  /// Number of distinct nodes reachable from `root` (DAG size).
  std::size_t reachable_node_count(ArenaNodeId root) const;

  /// Size of the tree to_tree(root) would build (shared subdiagrams counted
  /// once per reference), saturating at SIZE_MAX.
  std::size_t expanded_node_count(ArenaNodeId root) const;

  // -- Bridges to the tree representation ----------------------------------

  /// Interns a tree verbatim (structure-preserving; to_tree(from_tree(n))
  /// reproduces n exactly up to edge order, which both keep sorted).
  ArenaNodeId from_tree(const FddNode& node);

  /// Interns a tree through canonical(), i.e. the arena image of
  /// reduce()-ing the tree.
  ArenaNodeId from_tree_canonical(const FddNode& node);

  /// Interns the diagram under `root` of `source` (same schema) node for
  /// node, memoised per source node, and returns its id here: a diagram
  /// this arena already holds maps to its existing id. Nodes and labels
  /// new to this arena are charged to its context.
  ArenaNodeId import(const FddArena& source, ArenaNodeId root);

  /// Expands the diagram under `root` into an owning tree.
  std::unique_ptr<FddNode> to_tree(ArenaNodeId root) const;
  /// Same, wrapped in an Fdd over this arena's schema.
  Fdd to_fdd(ArenaNodeId root) const;

  // -- Semantic operations (all memoised inside the arena) -----------------

  /// Fig. 7 construction with copy-on-write appends: case-3 splits share
  /// the untouched subdiagram by id instead of cloning it. The result is
  /// canonical (reduced) by construction. Throws std::invalid_argument on
  /// an arity mismatch and std::logic_error via validate() misuse, exactly
  /// like the tree path.
  ArenaNodeId build_reduced(const Policy& policy);

  /// Appends one rule (lowest priority) to a diagram, returning the new
  /// root, canonical when `root` is. The input diagram is unchanged (ids
  /// are immutable). `root` may be kEmpty. The walk stops where the rule
  /// changes nothing: a complete node, and an edge or node whose
  /// subdiagram comes back unchanged, keep their ids. Labels stay ids on
  /// the walk and its scratch is the arena's, so in steady state it
  /// allocates only for the nodes and labels it materialises.
  ArenaNodeId append_rule(ArenaNodeId root, const Rule& rule);

  /// The diagram deciding like `a` wherever `a` decides and like `b`
  /// elsewhere: `a`'s rules followed by `b`'s, first match, undecided
  /// exactly where both are. Either side may be kEmpty. Canonical when
  /// both sides are, so its id is the one append_rule would reach for the
  /// concatenated rules. Memoised on (a, b) for the arena's lifetime. Like
  /// append_rule, it works on label ids in the arena's scratch, so in
  /// steady state it allocates only for the nodes and labels it
  /// materialises.
  ArenaNodeId overlay(ArenaNodeId a, ArenaNodeId b);

  /// Whether `x` and `y` decide alike, undecided included, on every packet
  /// `mask` leaves undecided: overlay(mask, x) == overlay(mask, y),
  /// decided without building either. Any of the three may be kEmpty. A
  /// product walk over (mask, x, y) triples: it returns true at equal x
  /// and y ids or a complete mask, false at two unequal leaves (terminals
  /// or kEmpty), and otherwise splits on the smallest field any of the
  /// three tests, reading a node that skips it as one full-domain edge and
  /// a gap as kEmpty, and sweeps the three partitions together up to the
  /// first disagreement. The triples found to agree are memoised for the
  /// call. It interns nothing, charges no budget and hits no fault site;
  /// it checkpoints the attached context once per visit.
  bool agree_outside(ArenaNodeId mask, ArenaNodeId x, ArenaNodeId y);

  /// N-way comparison (Section 5) as one product walk over canonical
  /// diagrams, with no shaping. At a tuple of nodes it splits on the
  /// smallest field any of them tests, reading a node that skips it as one
  /// full-domain edge, and visits the nonempty intersections of their edge
  /// labels in label-minimum order. A tuple of equal ids is pruned; a tuple
  /// of terminals that are not all equal is one Discrepancy. Output order
  /// and contents equal the tree reference's shape-then-compare. Equal
  /// functions share one id, so every tuple the walk enters holds a
  /// discrepancy: the work is bounded by the output times the field count,
  /// and no memo is kept. Partial diagrams are compared where all of them
  /// decide (kEmpty decides nothing); they never throw.
  std::vector<Discrepancy> compare(const std::vector<ArenaNodeId>& roots);

  /// Same walk, appending into a caller-owned vector: when a governance
  /// breach unwinds the walk, the discrepancies found before the breach
  /// survive in `out` — the substrate of partial comparison reports.
  void compare_into(const std::vector<ArenaNodeId>& roots,
                    std::vector<Discrepancy>& out);

  /// The decision assigned to packet p; throws std::logic_error if p falls
  /// off a partial diagram.
  Decision evaluate(ArenaNodeId root, const Packet& p) const;

  /// Tree-validate() semantics on the DAG: consistency, completeness,
  /// ordering, and domain containment, checked once per unique node.
  void validate(ArenaNodeId root, bool require_complete = true) const;

  /// Calls `fn(conjuncts, decision)` once per decision path, in the same
  /// order as Fdd::for_each_path on the expanded tree.
  void for_each_path(
      ArenaNodeId root,
      const std::function<void(const std::vector<IntervalSet>&, Decision)>&
          fn) const;

  /// The number of decision paths under `root`, which is the number of
  /// rules generate(root) emits, counted without emitting them: memoised
  /// by node id for the one call, saturating at SIZE_MAX. kEmpty has none.
  /// It checkpoints the attached context once per visit and charges no
  /// budget.
  std::size_t path_count(ArenaNodeId root) const;

  /// Firewall generation (gen/generate.hpp semantics) straight off the
  /// DAG, electing each node's default branch by path_count, memoised by
  /// node id for the one call. Every emitted rule is charged to the
  /// attached context.
  Policy generate(ArenaNodeId root) const;

  /// The arena's lifetime counters. An arena is single-threaded, so any
  /// read between operations is consistent; mirroring
  /// Executor::metrics()/reset_metrics(), stats_snapshot() is the
  /// by-value point-in-time read and reset_stats() rebases the counters
  /// (call it only between operations — mid-operation the partial
  /// operation's counts would be torn in half, exactly the hazard the
  /// executor's reset guards against).
  const ArenaStats& stats() const { return stats_; }
  ArenaStats stats_snapshot() const { return stats_; }
  void reset_stats() { stats_ = ArenaStats{}; }

 private:
  struct NodeRecord {
    std::uint32_t field;       // kArenaTerminalField for terminals
    Decision decision;         // meaningful for terminals only
    bool complete;             // decides every packet; see is_complete()
    std::uint32_t edge_begin;  // span into edge_pool_
    std::uint32_t edge_count;
  };
  static_assert(sizeof(NodeRecord) == 16, "the bit sits in padding");

  // A unique table: ids in open addressing over a power-of-two array at
  // most half full. The owner keeps each id's hash beside its record, so a
  // probe checks the stored hash before full equality decides, and growing
  // re-buckets without rehashing a record.
  class IdTable {
   public:
    /// The id whose hash is `h` and for which `same(id)` holds, or -1;
    /// `slot` receives where insert() puts a miss.
    template <typename Same>
    std::uint32_t find(std::uint64_t h,
                       const std::vector<std::uint64_t>& hashes, Same&& same,
                       std::size_t& slot) const;
    /// Records the newest id, whose hash is hashes.back(), at the `slot`
    /// find() gave for it.
    void insert(std::size_t slot, const std::vector<std::uint64_t>& hashes);

   private:
    std::vector<std::uint32_t> slots_;
  };

  // The append walk's memo, (node, from-field) -> result for the rule
  // being appended: open addressing at most half full. A slot counts only
  // while it carries the current rule's stamp, so each rule starts empty
  // without clearing; the stamps reset when the counter wraps.
  class StampedMemo {
   public:
    void next_rule();
    bool find(std::uint64_t key, ArenaNodeId& value) const;
    void insert(std::uint64_t key, ArenaNodeId value);

   private:
    struct Slot {
      std::uint64_t key = 0;
      ArenaNodeId value = 0;
      std::uint32_t stamp = 0;
    };
    std::vector<Slot> slots_;
    std::uint32_t stamp_ = 0;
    std::size_t live_ = 0;
  };

  // Construction scratch, reused by every append_rule. Only non-const
  // methods touch it, so concurrent readers of a built arena never do.
  struct AppendScratch {
    std::vector<char> wildcard;          // per field, for the current rule
    std::vector<ArenaLabelId> conjunct;  // per field, interned on first use
    std::vector<ArenaLabelId> outside;   // per field: domain \ conjunct
    std::vector<ArenaNodeId> path;       // per field + 1: decision paths
    // Out edges per field level: a visit at field f recurses only into
    // fields > f, so each level has at most one visit filling its buffer.
    std::vector<std::vector<ArenaEdge>> level;
    std::vector<Interval> runs;   // kernel output
    std::vector<Interval> spare;  // its ping-pong partner
    StampedMemo memo;
  };

  // The agreement walk's memo: the (mask, x, y) triples found to agree in
  // the current call, open addressing at most half full. Like StampedMemo,
  // a slot counts only while it carries the current call's stamp.
  class TripleSet {
   public:
    void next_call();
    bool contains(ArenaNodeId m, ArenaNodeId x, ArenaNodeId y) const;
    void insert(ArenaNodeId m, ArenaNodeId x, ArenaNodeId y);

   private:
    struct Slot {
      ArenaNodeId m = 0;
      ArenaNodeId x = 0;
      ArenaNodeId y = 0;
      std::uint32_t stamp = 0;
    };
    std::vector<Slot> slots_;
    std::uint32_t stamp_ = 0;
    std::size_t live_ = 0;
  };

  // The agreement walk's scratch for one field level: a visit at field f
  // recurses only into fields > f, so each level holds one visit's three
  // sides, each as its runs at f with the child that decides each run.
  struct AgreeRun {
    Interval run;
    ArenaNodeId child;
  };
  struct AgreeLevel {
    std::vector<AgreeRun> sides[3];  // mask, x, y
  };

  // Overlay scratch for one field level. A visit at field f recurses only
  // into fields > f, so each level has at most one live visit; what it
  // keeps across its recursive calls lives here.
  struct OverlayLevel {
    std::vector<ArenaEdge> out;        // the visit's out edges
    std::vector<Interval> a_cover;     // union of the first side's labels
    std::vector<Interval> b_cover;     // union of the second side's labels
  };

  // The fragments of the comparison visit at one field level: a visit at
  // field f recurses only into fields > f, so each level has at most one
  // live visit. Refining by one more node reads one buffer pair and
  // writes the other.
  static constexpr std::size_t kNotVisiting = static_cast<std::size_t>(-1);
  struct CompareLevel {
    std::vector<Interval> runs[2];         // fragment labels, back to back
    std::vector<std::uint32_t> ends[2];    // each fragment's end in runs
    std::vector<ArenaNodeId> children[2];  // N child ids per fragment
    std::vector<std::uint32_t> order;      // fragments by label minimum
    int current = 0;                       // the buffer pair in use
    std::size_t visiting = kNotVisiting;   // the fragment being walked

    /// The label of fragment i in buffer pair `pair`.
    std::span<const Interval> fragment(int pair, std::size_t i) const {
      const std::uint32_t begin = i == 0 ? 0 : ends[pair][i - 1];
      return std::span(runs[pair]).subspan(begin, ends[pair][i] - begin);
    }
  };

  static std::uint64_t node_hash(std::uint32_t field, Decision decision,
                                 std::span<const ArenaEdge> edges);
  ArenaNodeId intern_node(std::uint32_t field, Decision decision,
                          std::span<const ArenaEdge> edges);
  /// is_complete() of a node about to be created: a terminal, or one whose
  /// children are all complete and whose labels' runs unite to exactly
  /// the field's domain.
  bool complete_bit(std::uint32_t field, std::span<const ArenaEdge> edges);
  bool record_equals(const NodeRecord& r, std::uint32_t field,
                     Decision decision,
                     std::span<const ArenaEdge> edges) const;
  /// Interns a label given as canonical runs.
  ArenaLabelId intern_runs(std::span<const Interval> runs);
  /// canonical() and internal() on a caller-owned buffer: merging
  /// compacts the edges in place and sorting reorders them.
  ArenaNodeId make_canonical(std::size_t field, std::span<ArenaEdge> edges);
  ArenaNodeId make_internal(std::size_t field, std::span<ArenaEdge> edges);
  ArenaNodeId from_tree_impl(const FddNode& node, bool canonicalize);
  /// overlay() on two nodes (neither kEmpty).
  ArenaNodeId overlay_nodes(ArenaNodeId a, ArenaNodeId b);
  /// agree_outside() on one triple; its memo is the current call's.
  bool agree_nodes(ArenaNodeId mask, ArenaNodeId x, ArenaNodeId y);
  /// The runs of `n` at field `f` by lower bound, each with its child: its
  /// edges' runs when it tests f, one domain run to itself when it skips
  /// f, none when it is kEmpty.
  void agree_runs(ArenaNodeId n, std::uint32_t f,
                  std::vector<AgreeRun>& runs) const;
  /// compare_into() on one tuple of nodes (none kEmpty).
  void compare_nodes(std::span<const ArenaNodeId> nodes,
                     std::vector<Discrepancy>& out);
  /// path_count() of a node (not kEmpty), memoised in `memo` by id; 0
  /// there means not yet counted.
  std::size_t path_count(ArenaNodeId id,
                         std::vector<std::size_t>& memo) const;

  Schema schema_;
  std::vector<NodeRecord> nodes_;
  std::vector<ArenaEdge> edge_pool_;
  std::vector<IntervalSet> labels_;
  // Unique tables: one stored hash per id, full equality decides.
  std::vector<std::uint64_t> node_hashes_;
  std::vector<std::uint64_t> label_hashes_;
  IdTable node_table_;
  IdTable label_table_;
  std::vector<Interval> coverage_;  // complete_bit()'s runs
  // Keyed on packed id pairs. Ids are immutable, so entries stay valid for
  // the arena's lifetime.
  IdPairMemo overlay_cache_;
  AppendScratch scratch_;
  std::vector<OverlayLevel> overlay_levels_;  // one per field
  TripleSet agree_memo_;
  std::vector<AgreeLevel> agree_levels_;      // one per field
  std::vector<CompareLevel> compare_levels_;  // one per field
  ArenaStats stats_;
  RunContext* govern_ = nullptr;  // borrowed; null = ungoverned
  FaultPlan* faults_ = nullptr;   // borrowed; null = no injection
};

/// An immutable diagram handle: a root in an arena nobody changes any
/// more. Copies share the arena, so any number of consumers, on any
/// threads, can read one built diagram. The exception is a
/// PolicyAnalysis's diagram (analysis/policy_analysis.hpp): its root is
/// immutable, but its arena is the analysis's, which the owner may still
/// append to (lint's redundancy pass does), so only the owner's thread
/// reads it.
struct ArenaDiagram {
  std::shared_ptr<const FddArena> arena;
  ArenaNodeId root = 0;
};

/// The one construction entry point: builds the policy canonically in an
/// arena of its own and validates nothing. run.faults is hit at the
/// fdd.construct.phase site first and stays attached to the arena, so node
/// materialisation hits fdd.arena.alloc. run.context governs the build and
/// stays attached too: later reads of the diagram (validate, to_fdd,
/// generate) are governed by it, so it must outlive them. run.obs sees one
/// "build_reduced_fdd" span and absorbs the arena's stats, also when a
/// breach or a fault unwinds the build. run.executor is unused.
ArenaDiagram build_diagram(const Policy& policy, const RunOptions& run);

/// The comparison pipeline's build half: build_diagram for each policy,
/// one run.executor task apiece, under a "construct" phase span.
std::vector<ArenaDiagram> build_diagrams(
    std::span<const Policy* const> policies, const RunOptions& run);

/// The pipeline's second half, on diagrams already built: imports each
/// root into `arena` (over their schema) and validates it there, then
/// compares them, under the "validate" and "compare" phase spans. Only
/// reads the diagrams' arenas. Appends the discrepancies to `out` — a
/// governance breach leaves the ones found so far — and returns the
/// imported roots in input order. run.context governs `arena`; absorbing
/// its stats is the caller's part.
std::vector<ArenaNodeId> compare_diagrams(
    FddArena& arena, std::span<const ArenaDiagram> diagrams,
    const RunOptions& run, std::vector<Discrepancy>& out);

/// The production comparison pipeline behind discrepancies(),
/// discrepancies_many(), their _governed forms and resolve_via_fdd():
/// build_diagrams, then compare_diagrams into `arena`.
std::vector<ArenaNodeId> compare_policies(
    FddArena& arena, std::span<const Policy* const> policies,
    const RunOptions& run, std::vector<Discrepancy>& out);

/// The second half in an arena of its own whose stats options.run.obs
/// absorbs, like discrepancies_many() on the policies the diagrams were
/// built from, which it equals.
std::vector<Discrepancy> discrepancies(std::span<const ArenaDiagram> diagrams,
                                       const CompareOptions& options = {});

/// Governed form; see discrepancies_governed() on policies.
CompareOutcome discrepancies_governed(std::span<const ArenaDiagram> diagrams,
                                      const CompareOptions& options);

}  // namespace dfw
