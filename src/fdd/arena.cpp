#include "fdd/arena.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "rt/fault.hpp"
#include "rt/govern.hpp"

namespace dfw {
namespace {

constexpr ArenaNodeId kNoNode = static_cast<ArenaNodeId>(-1);
constexpr ArenaLabelId kNoLabel = static_cast<ArenaLabelId>(-1);
// IdPairMemo's vacant slot: the key of two kNoNode ids.
constexpr std::uint64_t kVacantKey = ~std::uint64_t{0};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

// The murmur3 finaliser: spreads a hash over its low bits, which index
// the power-of-two tables.
std::uint64_t finish(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

std::uint64_t hash_runs(std::span<const Interval> runs) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  for (const Interval& iv : runs) {
    h = mix(h, iv.lo());
    h = mix(h, iv.hi());
  }
  return finish(h);
}

std::uint64_t hash_triple(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return finish(mix((static_cast<std::uint64_t>(a) << 32) | b, c));
}

}  // namespace

// ---------------------------------------------------------------------------
// Flat tables.

template <typename Same>
std::uint32_t FddArena::IdTable::find(std::uint64_t h,
                                      const std::vector<std::uint64_t>& hashes,
                                      Same&& same, std::size_t& slot) const {
  slot = 0;
  if (slots_.empty()) {
    return kNoNode;
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const std::uint32_t id = slots_[i];
    if (id == kNoNode) {
      slot = i;
      return kNoNode;
    }
    if (hashes[id] == h && same(id)) {
      return id;
    }
  }
}

void FddArena::IdTable::insert(std::size_t slot,
                               const std::vector<std::uint64_t>& hashes) {
  const std::size_t count = hashes.size();
  if (count * 2 <= slots_.size()) {
    slots_[slot] = static_cast<std::uint32_t>(count - 1);
    return;
  }
  // Grow: the ids are 0..count-1, so re-bucket them by their stored hashes.
  const std::size_t capacity = std::max<std::size_t>(slots_.size() * 2, 64);
  slots_.assign(capacity, kNoNode);
  const std::size_t mask = capacity - 1;
  for (std::uint32_t id = 0; id < count; ++id) {
    std::size_t i = hashes[id] & mask;
    while (slots_[i] != kNoNode) {
      i = (i + 1) & mask;
    }
    slots_[i] = id;
  }
}

void FddArena::StampedMemo::next_rule() {
  live_ = 0;
  if (++stamp_ == 0) {
    for (Slot& s : slots_) {
      s.stamp = 0;
    }
    stamp_ = 1;
  }
}

bool FddArena::StampedMemo::find(std::uint64_t key,
                                 ArenaNodeId& value) const {
  if (slots_.empty()) {
    return false;
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = finish(key) & mask; slots_[i].stamp == stamp_;
       i = (i + 1) & mask) {
    if (slots_[i].key == key) {
      value = slots_[i].value;
      return true;
    }
  }
  return false;
}

void FddArena::StampedMemo::insert(std::uint64_t key, ArenaNodeId value) {
  if ((live_ + 1) * 2 > slots_.size()) {
    // Grow, keeping only the current rule's entries.
    std::vector<Slot> old(std::max<std::size_t>(slots_.size() * 2, 64));
    old.swap(slots_);
    live_ = 0;
    for (const Slot& s : old) {
      if (s.stamp == stamp_) {
        insert(s.key, s.value);
      }
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = finish(key) & mask;
  while (slots_[i].stamp == stamp_) {
    i = (i + 1) & mask;
  }
  slots_[i] = {key, value, stamp_};
  ++live_;
}

void FddArena::TripleSet::next_call() {
  live_ = 0;
  if (++stamp_ == 0) {
    for (Slot& s : slots_) {
      s.stamp = 0;
    }
    stamp_ = 1;
  }
}

bool FddArena::TripleSet::contains(ArenaNodeId m, ArenaNodeId x,
                                   ArenaNodeId y) const {
  if (slots_.empty()) {
    return false;
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash_triple(m, x, y) & mask; slots_[i].stamp == stamp_;
       i = (i + 1) & mask) {
    if (slots_[i].m == m && slots_[i].x == x && slots_[i].y == y) {
      return true;
    }
  }
  return false;
}

void FddArena::TripleSet::insert(ArenaNodeId m, ArenaNodeId x,
                                 ArenaNodeId y) {
  if ((live_ + 1) * 2 > slots_.size()) {
    // Grow, keeping only the current call's entries.
    std::vector<Slot> old(std::max<std::size_t>(slots_.size() * 2, 64));
    old.swap(slots_);
    live_ = 0;
    for (const Slot& s : old) {
      if (s.stamp == stamp_) {
        insert(s.m, s.x, s.y);
      }
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash_triple(m, x, y) & mask;
  while (slots_[i].stamp == stamp_) {
    i = (i + 1) & mask;
  }
  slots_[i] = {m, x, y, stamp_};
  ++live_;
}

bool IdPairMemo::find(std::uint64_t key, ArenaNodeId& value) const {
  if (slots_.empty()) {
    return false;
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = finish(key) & mask; slots_[i].key != kVacantKey;
       i = (i + 1) & mask) {
    if (slots_[i].key == key) {
      value = slots_[i].value;
      return true;
    }
  }
  return false;
}

void IdPairMemo::insert(std::uint64_t key, ArenaNodeId value) {
  if ((live_ + 1) * 2 > slots_.size()) {
    std::vector<Slot> old(std::max<std::size_t>(slots_.size() * 2, 64),
                          Slot{kVacantKey, 0});
    old.swap(slots_);
    live_ = 0;
    for (const Slot& s : old) {
      if (s.key != kVacantKey) {
        insert(s.key, s.value);
      }
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = finish(key) & mask;
  while (slots_[i].key != kVacantKey) {
    i = (i + 1) & mask;
  }
  slots_[i] = {key, value};
  ++live_;
}

// ---------------------------------------------------------------------------
// Interning.

FddArena::FddArena(Schema schema) : schema_(std::move(schema)) {}

ArenaLabelId FddArena::intern(const IntervalSet& label) {
  return intern_runs(label.intervals());
}

ArenaLabelId FddArena::intern_runs(std::span<const Interval> runs) {
  ++stats_.label_queries;
  const std::uint64_t h = hash_runs(runs);
  std::size_t slot = 0;
  const ArenaLabelId found = label_table_.find(
      h, label_hashes_,
      [&](ArenaLabelId id) {
        return std::ranges::equal(labels_[id].intervals(), runs);
      },
      slot);
  if (found != kNoLabel) {
    ++stats_.label_hits;
    return found;
  }
  // Charge before materialising: a breach leaves the tables untouched.
  govern::charge_label_bytes(
      govern_, runs.size() * sizeof(Interval) + sizeof(IntervalSet));
  const ArenaLabelId id = static_cast<ArenaLabelId>(labels_.size());
  labels_.push_back(IntervalSet::from_runs(runs));
  label_hashes_.push_back(h);
  label_table_.insert(slot, label_hashes_);
  stats_.unique_labels = labels_.size();
  return id;
}

bool FddArena::record_equals(const NodeRecord& r, std::uint32_t field,
                             Decision decision,
                             std::span<const ArenaEdge> edges) const {
  return r.field == field && r.decision == decision &&
         std::ranges::equal(
             std::span(edge_pool_.data() + r.edge_begin, r.edge_count),
             edges);
}

std::uint64_t FddArena::node_hash(std::uint32_t field, Decision decision,
                                  std::span<const ArenaEdge> edges) {
  std::uint64_t h = mix(0x13198a2e03707344ull, field);
  h = mix(h, decision);
  for (const ArenaEdge& e : edges) {
    h = mix(h, e.label);
    h = mix(h, e.target);
  }
  return finish(h);
}

ArenaNodeId FddArena::intern_node(std::uint32_t field, Decision decision,
                                  std::span<const ArenaEdge> edges) {
  ++stats_.node_queries;
  const std::uint64_t h = node_hash(field, decision, edges);
  std::size_t slot = 0;
  const ArenaNodeId found = node_table_.find(
      h, node_hashes_,
      [&](ArenaNodeId id) {
        return record_equals(nodes_[id], field, decision, edges);
      },
      slot);
  if (found != kNoNode) {
    ++stats_.node_hits;
    return found;
  }
  // Node creation is the arena's unit of memory growth and of forward
  // progress: charge the node budget and take the amortized cancellation/
  // deadline checkpoint here, before the tables are touched. The fault
  // site sits at the same point — an injected allocation failure unwinds
  // exactly where a real budget breach (or bad_alloc) would.
  govern::charge_nodes(govern_);
  govern::checkpoint(govern_);
  fault::hit(faults_, fault::sites::kArenaAlloc);
  const ArenaNodeId id = static_cast<ArenaNodeId>(nodes_.size());
  NodeRecord record;
  record.field = field;
  record.decision = decision;
  record.complete = complete_bit(field, edges);
  record.edge_begin = static_cast<std::uint32_t>(edge_pool_.size());
  record.edge_count = static_cast<std::uint32_t>(edges.size());
  edge_pool_.insert(edge_pool_.end(), edges.begin(), edges.end());
  nodes_.push_back(record);
  node_hashes_.push_back(h);
  node_table_.insert(slot, node_hashes_);
  stats_.unique_nodes = nodes_.size();
  return id;
}

bool FddArena::complete_bit(std::uint32_t field,
                            std::span<const ArenaEdge> edges) {
  if (field == kArenaTerminalField) {
    return true;
  }
  if (!std::ranges::all_of(edges, [&](const ArenaEdge& e) {
        return nodes_[e.target].complete;
      })) {
    return false;
  }
  // Coverage from the runs, not the labels' sizes: those saturate on
  // 64-bit fields, and overlapping labels internal() was given would count
  // twice.
  std::vector<Interval>& runs = coverage_;
  runs.clear();
  for (const ArenaEdge& e : edges) {
    const std::span<const Interval> lab = labels_[e.label].intervals();
    runs.insert(runs.end(), lab.begin(), lab.end());
  }
  if (runs.empty()) {
    return false;
  }
  std::ranges::sort(runs, {}, &Interval::lo);
  const Interval& domain = schema_.domain(field);
  if (runs.front().lo() != domain.lo()) {
    return false;
  }
  Value reach = runs.front().hi();  // everything in [domain.lo, reach]
  for (const Interval& iv : runs) {
    if (iv.lo() > reach && iv.lo() - reach > 1) {
      return false;  // a gap before iv
    }
    reach = std::max(reach, iv.hi());
  }
  return reach == domain.hi();
}

ArenaNodeId FddArena::terminal(Decision d) {
  return intern_node(kArenaTerminalField, d, {});
}

ArenaNodeId FddArena::internal(std::size_t field,
                               std::vector<ArenaEdge> edges) {
  return make_internal(field, edges);
}

ArenaNodeId FddArena::make_internal(std::size_t field,
                                    std::span<ArenaEdge> edges) {
  if (field >= schema_.field_count()) {
    throw std::invalid_argument("FddArena::internal: unknown field index");
  }
  if (edges.empty()) {
    throw std::invalid_argument("FddArena::internal: node needs an edge");
  }
  std::sort(edges.begin(), edges.end(),
            [this](const ArenaEdge& a, const ArenaEdge& b) {
              return labels_[a.label].min() < labels_[b.label].min();
            });
  return intern_node(static_cast<std::uint32_t>(field), kAccept, edges);
}

ArenaNodeId FddArena::canonical(std::size_t field,
                                std::vector<ArenaEdge> edges) {
  return make_canonical(field, edges);
}

ArenaNodeId FddArena::make_canonical(std::size_t field,
                                     std::span<ArenaEdge> edges) {
  // Sibling merge: children are canonical, so id equality is semantic
  // equality, and edges pointing at the same child unite their labels.
  // Only those labels are merged, in scratch, and interned; an edge whose
  // target is unique keeps its label id. Merged edges compact in place.
  std::vector<Interval>& merged = scratch_.runs;
  std::size_t count = edges.size();
  for (std::size_t i = 0; i < count; ++i) {
    const ArenaNodeId target = edges[i].target;
    std::size_t j = i + 1;
    while (j < count && edges[j].target != target) {
      ++j;
    }
    if (j == count) {
      continue;
    }
    const std::span<const Interval> first =
        labels_[edges[i].label].intervals();
    merged.assign(first.begin(), first.end());
    std::size_t kept = j;
    for (; j < count; ++j) {
      if (edges[j].target == target) {
        unite_into(merged, labels_[edges[j].label].intervals(),
                   scratch_.spare);
        merged.swap(scratch_.spare);
      } else {
        edges[kept++] = edges[j];
      }
    }
    count = kept;
    edges[i].label = intern_runs(merged);
  }
  edges = edges.first(count);
  // Splice: a single edge spanning the whole domain decides nothing.
  if (count == 1 && labels_[edges[0].label] == schema_.domain_set(field)) {
    return edges[0].target;
  }
  return make_internal(field, edges);
}

std::size_t FddArena::reachable_node_count(ArenaNodeId root) const {
  std::vector<ArenaNodeId> stack{root};
  std::vector<char> seen(nodes_.size(), 0);
  std::size_t count = 0;
  while (!stack.empty()) {
    const ArenaNodeId id = stack.back();
    stack.pop_back();
    if (seen[id] != 0) {
      continue;
    }
    seen[id] = 1;
    ++count;
    for (const ArenaEdge& e : edges(id)) {
      stack.push_back(e.target);
    }
  }
  return count;
}

std::size_t FddArena::expanded_node_count(ArenaNodeId root) const {
  std::vector<std::size_t> memo(nodes_.size(), 0);  // 0: not counted yet
  const auto visit = [&](auto&& self, ArenaNodeId id) -> std::size_t {
    if (memo[id] != 0) {
      return memo[id];
    }
    std::size_t total = 1;
    for (const ArenaEdge& e : edges(id)) {
      const std::size_t sub = self(self, e.target);
      total = (total > SIZE_MAX - sub) ? SIZE_MAX : total + sub;
    }
    memo[id] = total;
    return total;
  };
  return visit(visit, root);
}

ArenaNodeId FddArena::from_tree_impl(const FddNode& node, bool canonicalize) {
  if (node.is_terminal()) {
    return terminal(node.decision);
  }
  std::vector<ArenaEdge> out;
  out.reserve(node.edges.size());
  for (const FddEdge& e : node.edges) {
    const ArenaNodeId child = from_tree_impl(*e.target, canonicalize);
    out.push_back({intern(e.label), child});
  }
  return canonicalize ? canonical(node.field, std::move(out))
                      : internal(node.field, std::move(out));
}

ArenaNodeId FddArena::from_tree(const FddNode& node) {
  return from_tree_impl(node, false);
}

ArenaNodeId FddArena::from_tree_canonical(const FddNode& node) {
  return from_tree_impl(node, true);
}

ArenaNodeId FddArena::import(const FddArena& source, ArenaNodeId root) {
  if (!(source.schema_ == schema_)) {
    throw std::invalid_argument("FddArena::import: schema mismatch");
  }
  if (&source == this) {
    return root;
  }
  // The source is valid and its edges sorted, so nodes are interned as
  // they stand: no re-sorting, merging or splicing.
  std::vector<ArenaNodeId> node_map(source.nodes_.size(), kNoNode);
  std::vector<ArenaLabelId> label_map(source.labels_.size(), kNoNode);
  const auto visit = [&](auto&& self, ArenaNodeId id) -> ArenaNodeId {
    if (node_map[id] != kNoNode) {
      return node_map[id];
    }
    std::vector<ArenaEdge> out;
    out.reserve(source.edges(id).size());
    for (const ArenaEdge& e : source.edges(id)) {
      if (label_map[e.label] == kNoNode) {
        label_map[e.label] = intern(source.labels_[e.label]);
      }
      out.push_back({label_map[e.label], self(self, e.target)});
    }
    node_map[id] =
        intern_node(source.field(id), source.decision(id), std::move(out));
    return node_map[id];
  };
  return visit(visit, root);
}

std::unique_ptr<FddNode> FddArena::to_tree(ArenaNodeId root) const {
  // Expansion un-shares the DAG, so a compact diagram can still explode
  // here: every tree node built is charged, shared subdiagrams once per
  // reference.
  govern::charge_nodes(govern_);
  govern::checkpoint(govern_);
  if (is_terminal(root)) {
    return FddNode::make_terminal(decision(root));
  }
  auto node = FddNode::make_internal(field(root));
  const std::span<const ArenaEdge> out = edges(root);
  node->edges.reserve(out.size());
  for (const ArenaEdge& e : out) {
    node->edges.emplace_back(labels_[e.label], to_tree(e.target));
  }
  return node;
}

Fdd FddArena::to_fdd(ArenaNodeId root) const {
  return Fdd(schema_, to_tree(root));
}

// ---------------------------------------------------------------------------
// Construction (Fig. 7) with copy-on-write appends.

ArenaNodeId FddArena::append_rule(ArenaNodeId root, const Rule& rule) {
  const std::size_t d = schema_.field_count();
  if (rule.conjuncts().size() != d) {
    throw std::invalid_argument("append_rule: rule arity mismatch");
  }
  // Per-rule state, computed once: the wildcard flags now, the conjunct's
  // and its complement's label ids on first use. The memo makes appending
  // the rule to a shared subdiagram an O(1) lookup, and the path cache
  // builds the rule's decision path once per suffix instead of once per
  // branch.
  AppendScratch& s = scratch_;
  s.wildcard.resize(d);
  for (std::size_t f = 0; f < d; ++f) {
    s.wildcard[f] = rule.conjunct(f) == schema_.domain_set(f);
  }
  s.conjunct.assign(d, kNoLabel);
  s.outside.assign(d, kNoLabel);
  s.path.assign(d + 1, kNoNode);
  s.level.resize(d);
  s.memo.next_rule();
  const auto conjunct_label = [&](std::size_t f) {
    if (s.conjunct[f] == kNoLabel) {
      s.conjunct[f] = intern_runs(rule.conjunct(f).intervals());
    }
    return s.conjunct[f];
  };
  const auto outside_label = [&](std::size_t f) {
    if (s.outside[f] == kNoLabel) {
      subtract_into(schema_.domain_set(f).intervals(),
                    rule.conjunct(f).intervals(), s.runs);
      s.outside[f] = intern_runs(s.runs);
    }
    return s.outside[f];
  };

  // Decision path for conjuncts[field..d-1] -> decision, wildcards skipped
  // (the canonical form would splice them out anyway).
  const auto build_path = [&](auto&& self, std::size_t f) -> ArenaNodeId {
    if (s.path[f] != kNoNode) {
      return s.path[f];
    }
    ArenaNodeId result;
    if (f == d) {
      result = terminal(rule.decision());
    } else if (s.wildcard[f]) {
      result = self(self, f + 1);
    } else {
      const ArenaNodeId child = self(self, f + 1);
      ArenaEdge edge{conjunct_label(f), child};
      result = make_canonical(f, {&edge, 1});
    }
    s.path[f] = result;
    return result;
  };
  if (root == kEmpty) {
    return build_path(build_path, 0);
  }

  // APPEND(v, rule) of Fig. 7 on ids: instead of cloning the subdiagram a
  // case-3 split copies, both halves reference it by id and only the half
  // the rule reaches is rebuilt (copy-on-write). Labels stay ids: relate()
  // classifies each edge against the conjunct, and only a split edge whose
  // subdiagram changed materialises its two halves. The walk stops where
  // the rule changes nothing (the terminal and identity cases of BDD
  // apply): a complete node, and a node whose edges all come back
  // unchanged with no part of the conjunct left uncovered, keep their ids.
  const auto append = [&](auto&& self, ArenaNodeId v,
                          std::size_t from) -> ArenaNodeId {
    if (nodes_[v].complete) {
      // Earlier (higher priority) rules decide every packet reaching v, so
      // the appended rule never applies there. Terminals are complete.
      return v;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(v) << 32) | from;
    ArenaNodeId result;
    if (s.memo.find(key, result)) {
      ++stats_.append_cache_hits;
      return result;
    }
    ++stats_.append_cache_misses;
    govern::checkpoint(govern_);
    const std::size_t f = field(v);
    std::size_t g = from;
    while (g < f && s.wildcard[g]) {
      ++g;
    }
    if (g < f) {
      // Node insertion: the diagram skipped field g but the rule
      // constrains it. A full-domain node is materialised and immediately
      // split against the conjunct; the off-conjunct half keeps `v` by
      // reference. When the rule adds nothing below, there is no split.
      const ArenaNodeId tail = self(self, v, g + 1);
      if (tail == v) {
        result = v;
      } else {
        ArenaEdge split[2] = {{conjunct_label(g), tail},
                              {outside_label(g), v}};
        result = make_canonical(g, split);
      }
    } else {
      const std::span<const Interval> conj = rule.conjunct(f).intervals();
      std::vector<ArenaEdge>& out = s.level[f];
      out.clear();
      bool overlapped = false;
      bool changed = false;
      // Recursion and interning grow the pools, so each edge and label is
      // re-read by index rather than held across them.
      const std::size_t edge_count = nodes_[v].edge_count;
      for (std::size_t i = 0; i < edge_count; ++i) {
        const ArenaEdge e = edge_pool_[nodes_[v].edge_begin + i];
        const Relation relation = relate(labels_[e.label].intervals(), conj);
        if (relation == Relation::kDisjoint) {
          out.push_back(e);  // case (1): untouched branch, shared by id
          continue;
        }
        overlapped = true;
        const ArenaNodeId child = self(self, e.target, f + 1);
        if (child == e.target) {
          out.push_back(e);  // the rule changes nothing below this edge
          continue;
        }
        changed = true;
        if (relation == Relation::kInside) {
          out.push_back({e.label, child});  // case (2): edge fully inside S
          continue;
        }
        // case (3): split; the outside half shares the old subdiagram.
        subtract_into(labels_[e.label].intervals(), conj, s.runs);
        const ArenaLabelId off = intern_runs(s.runs);
        intersect_into(labels_[e.label].intervals(), conj, s.runs);
        const ArenaLabelId on = intern_runs(s.runs);
        out.push_back({off, e.target});
        out.push_back({on, child});
      }
      // The part of S no edge covers gets the rule's decision path. A
      // disjoint label covers none of S, so a label whose range misses
      // what is left of S is skipped, and no union of labels is built.
      if (!overlapped) {
        out.push_back({conjunct_label(f), build_path(build_path, f + 1)});
        changed = true;
      } else {
        s.runs.assign(conj.begin(), conj.end());
        for (std::size_t i = 0; i < edge_count && !s.runs.empty(); ++i) {
          const std::span<const Interval> lab =
              labels_[edge_pool_[nodes_[v].edge_begin + i].label].intervals();
          if (lab.back().hi() < s.runs.front().lo() ||
              lab.front().lo() > s.runs.back().hi()) {
            continue;
          }
          subtract_into(s.runs, lab, s.spare);
          s.runs.swap(s.spare);
        }
        if (!s.runs.empty()) {
          out.push_back({intern_runs(s.runs), build_path(build_path, f + 1)});
          changed = true;
        }
      }
      result = changed ? make_canonical(f, out) : v;
    }
    s.memo.insert(key, result);
    return result;
  };

  return append(append, root, 0);
}

ArenaNodeId FddArena::build_reduced(const Policy& policy) {
  if (!(policy.schema() == schema_)) {
    throw std::invalid_argument("FddArena::build_reduced: schema mismatch");
  }
  // Appending the first rule to the empty diagram yields its lone decision
  // path (Fig. 6); every further rule is appended at the root. Canonical
  // node creation keeps each intermediate maximally reduced, so no
  // reduce passes (and none of their re-hashing) are needed.
  ArenaNodeId root = kEmpty;
  for (const Rule& rule : policy.rules()) {
    root = append_rule(root, rule);
  }
  return root;
}

// ---------------------------------------------------------------------------
// First-match overlay of partial diagrams, memoised on node-id pairs.

ArenaNodeId FddArena::overlay(ArenaNodeId a, ArenaNodeId b) {
  if (a == kEmpty || b == kEmpty) {
    return a == kEmpty ? b : a;
  }
  overlay_levels_.resize(schema_.field_count());
  return overlay_nodes(a, b);
}

ArenaNodeId FddArena::overlay_nodes(ArenaNodeId a, ArenaNodeId b) {
  if (a == b || is_terminal(a)) {
    return a;  // `a` decides every packet that reaches it
  }
  const std::uint64_t key = IdPairMemo::key(a, b);
  ArenaNodeId result;
  if (overlay_cache_.find(key, result)) {
    ++stats_.overlay_cache_hits;
    return result;
  }
  ++stats_.overlay_cache_misses;
  govern::checkpoint(govern_);
  // Split on the earlier-ranked field; a side that skips it reads there as
  // one full-domain edge. Edges are read by index, because recursion and
  // interning grow the pools.
  const std::size_t f =
      is_terminal(b) ? field(a) : std::min(field(a), field(b));
  struct Side {
    std::uint32_t begin;  // into edge_pool_, when the node tests f
    std::uint32_t count;
    ArenaEdge lone;  // the domain edge when it skips f; else label kNoLabel
  };
  const auto side = [&](ArenaNodeId n) -> Side {
    if (!is_terminal(n) && field(n) == f) {
      return {nodes_[n].edge_begin, nodes_[n].edge_count, {kNoLabel, n}};
    }
    return {0, 1, {intern(schema_.domain_set(f)), n}};
  };
  const auto edge = [&](const Side& s, std::uint32_t i) {
    return s.lone.label == kNoLabel ? edge_pool_[s.begin + i] : s.lone;
  };
  const auto cover = [&](const Side& s, std::vector<Interval>& out) {
    out.clear();
    for (std::uint32_t i = 0; i < s.count; ++i) {
      unite_into(out, labels_[edge(s, i).label].intervals(), scratch_.spare);
      out.swap(scratch_.spare);
    }
  };
  const Side sa = side(a);
  const Side sb = side(b);
  OverlayLevel& level = overlay_levels_[f];
  cover(sa, level.a_cover);
  cover(sb, level.b_cover);
  // Where both sides decide, overlay their children; where one side alone
  // does, its child stands; where neither does, no edge. A pair whose
  // label ranges miss shares nothing.
  std::vector<Interval>& runs = scratch_.runs;
  level.out.clear();
  for (std::uint32_t i = 0; i < sa.count; ++i) {
    const ArenaEdge ea = edge(sa, i);
    for (std::uint32_t j = 0; j < sb.count; ++j) {
      const ArenaEdge eb = edge(sb, j);
      const IntervalSet& la = labels_[ea.label];
      const IntervalSet& lb = labels_[eb.label];
      if (la.max() < lb.min() || lb.max() < la.min()) {
        continue;
      }
      intersect_into(la.intervals(), lb.intervals(), runs);
      if (!runs.empty()) {
        const ArenaLabelId common = intern_runs(runs);
        level.out.push_back({common, overlay_nodes(ea.target, eb.target)});
      }
    }
    subtract_into(labels_[ea.label].intervals(), level.b_cover, runs);
    if (!runs.empty()) {
      level.out.push_back({intern_runs(runs), ea.target});
    }
  }
  for (std::uint32_t j = 0; j < sb.count; ++j) {
    const ArenaEdge eb = edge(sb, j);
    subtract_into(labels_[eb.label].intervals(), level.a_cover, runs);
    if (!runs.empty()) {
      level.out.push_back({intern_runs(runs), eb.target});
    }
  }
  result = make_canonical(f, level.out);
  overlay_cache_.insert(key, result);
  return result;
}

// ---------------------------------------------------------------------------
// Agreement where a mask leaves packets undecided: a read-only product walk.

bool FddArena::agree_outside(ArenaNodeId mask, ArenaNodeId x, ArenaNodeId y) {
  agree_levels_.resize(schema_.field_count());
  agree_memo_.next_call();
  return agree_nodes(mask, x, y);
}

bool FddArena::agree_nodes(ArenaNodeId mask, ArenaNodeId x, ArenaNodeId y) {
  // The walk materialises no nodes, so it carries its own checkpoint.
  govern::checkpoint(govern_);
  if (x == y || (mask != kEmpty && nodes_[mask].complete)) {
    return true;
  }
  // Below here the mask leaves some packet undecided, so two leaves that
  // differ disagree on it.
  const auto leaf = [&](ArenaNodeId n) {
    return n == kEmpty || is_terminal(n);
  };
  if (leaf(x) && leaf(y)) {
    return false;
  }
  if (agree_memo_.contains(mask, x, y)) {
    return true;
  }
  std::uint32_t f = kArenaTerminalField;
  for (const ArenaNodeId n : {mask, x, y}) {
    if (n != kEmpty) {
      f = std::min(f, field(n));
    }
  }
  AgreeLevel& level = agree_levels_[f];
  agree_runs(mask, f, level.sides[0]);
  agree_runs(x, f, level.sides[1]);
  agree_runs(y, f, level.sides[2]);
  // Sweep the cells of the three partitions in domain order: each cell
  // runs from `lo` to the nearest boundary of any side, and each side's
  // child there is its run's, or kEmpty in a gap.
  const Interval& domain = schema_.domain(f);
  std::size_t at[3] = {0, 0, 0};
  for (Value lo = domain.lo();;) {
    ArenaNodeId child[3];
    Value hi = domain.hi();
    for (int s = 0; s < 3; ++s) {
      const std::vector<AgreeRun>& runs = level.sides[s];
      while (at[s] < runs.size() && runs[at[s]].run.hi() < lo) {
        ++at[s];
      }
      if (at[s] == runs.size()) {
        child[s] = kEmpty;
      } else if (runs[at[s]].run.lo() <= lo) {
        child[s] = runs[at[s]].child;
        hi = std::min(hi, runs[at[s]].run.hi());
      } else {
        child[s] = kEmpty;
        hi = std::min(hi, runs[at[s]].run.lo() - 1);
      }
    }
    if (child[1] != child[2] && !agree_nodes(child[0], child[1], child[2])) {
      return false;
    }
    if (hi == domain.hi()) {
      break;
    }
    lo = hi + 1;
  }
  agree_memo_.insert(mask, x, y);
  return true;
}

void FddArena::agree_runs(ArenaNodeId n, std::uint32_t f,
                          std::vector<AgreeRun>& runs) const {
  runs.clear();
  if (n == kEmpty) {
    return;
  }
  if (field(n) != f) {
    runs.push_back({schema_.domain(f), n});
    return;
  }
  for (const ArenaEdge& e : edges(n)) {
    for (const Interval& iv : labels_[e.label].intervals()) {
      runs.push_back({iv, e.target});
    }
  }
  // Edges are sorted by label minimum, so only labels of several runs
  // interleave.
  const auto lower = [](const AgreeRun& r) { return r.run.lo(); };
  if (!std::ranges::is_sorted(runs, {}, lower)) {
    std::ranges::sort(runs, {}, lower);
  }
}

// ---------------------------------------------------------------------------
// Comparison (Section 5): one product walk over canonical diagrams.

std::vector<Discrepancy> FddArena::compare(
    const std::vector<ArenaNodeId>& roots) {
  std::vector<Discrepancy> out;
  compare_into(roots, out);
  return out;
}

void FddArena::compare_into(const std::vector<ArenaNodeId>& roots,
                            std::vector<Discrepancy>& out) {
  if (roots.empty()) {
    throw std::invalid_argument("FddArena::compare: no roots");
  }
  if (std::ranges::find(roots, kEmpty) != roots.end()) {
    return;  // no packet is decided by every diagram
  }
  // A breach may have unwound an earlier walk mid-visit.
  compare_levels_.resize(schema_.field_count());
  for (CompareLevel& level : compare_levels_) {
    level.visiting = kNotVisiting;
  }
  compare_nodes(roots, out);
}

void FddArena::compare_nodes(std::span<const ArenaNodeId> nodes,
                             std::vector<Discrepancy>& out) {
  // The walk materialises no nodes, so it carries its own checkpoint;
  // unwinding mid-walk leaves the discrepancies found so far in `out`.
  govern::checkpoint(govern_);
  const ArenaNodeId first = nodes.front();
  if (std::ranges::all_of(nodes, [&](ArenaNodeId n) { return n == first; })) {
    return;  // one shared subdiagram: no disagreement
  }
  // Terminals rank after every field.
  std::uint32_t f = kArenaTerminalField;
  for (const ArenaNodeId n : nodes) {
    f = std::min(f, field(n));
  }
  if (f == kArenaTerminalField) {
    // Terminals are hash-consed per decision, so unequal ids mean the
    // decisions are not all equal. The predicate is the fragment each
    // level on the path is visiting; untested fields span their domain.
    Discrepancy d;
    d.conjuncts.reserve(schema_.field_count());
    for (std::size_t g = 0; g < schema_.field_count(); ++g) {
      const CompareLevel& level = compare_levels_[g];
      if (level.visiting == kNotVisiting) {
        d.conjuncts.push_back(schema_.domain_set(g));
      } else {
        d.conjuncts.push_back(IntervalSet::from_runs(
            level.fragment(level.current, level.visiting)));
      }
    }
    d.decisions.reserve(nodes.size());
    for (const ArenaNodeId n : nodes) {
      d.decisions.push_back(decision(n));
    }
    out.push_back(std::move(d));
    return;
  }
  // The fragments are the nonempty intersections of one edge label per
  // node: start from the whole domain with every node its own child, and
  // refine by each node that tests f in turn, replacing its child.
  const std::size_t n_count = nodes.size();
  CompareLevel& level = compare_levels_[f];
  level.current = 0;
  level.runs[0].assign(1, schema_.domain(f));
  level.ends[0].assign(1, std::uint32_t{1});
  level.children[0].assign(nodes.begin(), nodes.end());
  for (std::size_t k = 0; k < n_count; ++k) {
    if (field(nodes[k]) != f) {
      continue;
    }
    const int from = level.current;
    const int to = 1 - from;
    std::vector<Interval>& runs = level.runs[to];
    std::vector<std::uint32_t>& ends = level.ends[to];
    std::vector<ArenaNodeId>& children = level.children[to];
    runs.clear();
    ends.clear();
    children.clear();
    for (std::size_t i = 0; i < level.ends[from].size(); ++i) {
      const std::span<const Interval> frag = level.fragment(from, i);
      for (const ArenaEdge& e : edges(nodes[k])) {
        const IntervalSet& lab = labels_[e.label];
        if (lab.max() < frag.front().lo() || frag.back().hi() < lab.min()) {
          continue;
        }
        intersect_into(frag, lab.intervals(), scratch_.runs);
        if (scratch_.runs.empty()) {
          continue;
        }
        runs.insert(runs.end(), scratch_.runs.begin(), scratch_.runs.end());
        ends.push_back(static_cast<std::uint32_t>(runs.size()));
        const auto row = level.children[from].begin() +
                         static_cast<std::ptrdiff_t>(i * n_count);
        children.insert(children.end(), row,
                        row + static_cast<std::ptrdiff_t>(n_count));
        children[children.size() - n_count + k] = e.target;
      }
    }
    level.current = to;
  }
  // Shaped diagrams keep their edges sorted by label minimum, and the
  // reference walks them in that order.
  const std::vector<std::uint32_t>& ends = level.ends[level.current];
  const std::vector<ArenaNodeId>& children = level.children[level.current];
  level.order.resize(ends.size());
  for (std::uint32_t i = 0; i < ends.size(); ++i) {
    level.order[i] = i;
  }
  std::ranges::sort(level.order, {}, [&](std::uint32_t i) {
    return level.fragment(level.current, i).front().lo();
  });
  for (const std::uint32_t i : level.order) {
    level.visiting = i;
    compare_nodes(std::span(children).subspan(i * n_count, n_count), out);
  }
  level.visiting = kNotVisiting;
}

Decision FddArena::evaluate(ArenaNodeId root, const Packet& p) const {
  if (p.size() != schema_.field_count()) {
    throw std::invalid_argument("FddArena::evaluate: packet arity mismatch");
  }
  ArenaNodeId node = root;
  while (!is_terminal(node)) {
    ArenaNodeId next = kNoNode;
    for (const ArenaEdge& e : edges(node)) {
      if (labels_[e.label].contains(p[field(node)])) {
        next = e.target;
        break;
      }
    }
    if (next == kNoNode) {
      throw std::logic_error(
          "FddArena::evaluate: packet falls off a partial FDD");
    }
    node = next;
  }
  return decision(node);
}

void FddArena::validate(ArenaNodeId root, bool require_complete) const {
  // Consistency, completeness, domain, and emptiness are per-node facts;
  // ordering reduces to the per-edge check field(target) > field(node).
  // All are checked once per unique reachable node. A visit at field f
  // recurses only into fields > f (the order check comes first), so each
  // level's covered runs survive the visits below it.
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<std::vector<Interval>> covered(schema_.field_count());
  std::vector<Interval> spare;
  const auto visit = [&](auto&& self, ArenaNodeId id) -> void {
    if (seen[id] != 0) {
      return;
    }
    seen[id] = 1;
    govern::checkpoint(govern_);
    if (is_terminal(id)) {
      return;
    }
    const std::size_t f = field(id);
    const IntervalSet domain = schema_.domain_set(f);
    std::vector<Interval>& cover = covered[f];
    cover.clear();
    for (const ArenaEdge& e : edges(id)) {
      const IntervalSet& lab = labels_[e.label];
      if (lab.empty()) {
        throw std::logic_error("FDD: empty edge label");
      }
      if (!domain.contains(lab)) {
        throw std::logic_error("FDD: edge label exceeds domain of field " +
                               schema_.field(f).name);
      }
      if (relate(cover, lab.intervals()) != Relation::kDisjoint) {
        throw std::logic_error("FDD: consistency violated at field " +
                               schema_.field(f).name);
      }
      unite_into(cover, lab.intervals(), spare);
      cover.swap(spare);
      if (!is_terminal(e.target) && field(e.target) <= f) {
        throw std::logic_error(
            "FDD: field order violated on a path (field " +
            schema_.field(field(e.target)).name + ")");
      }
      self(self, e.target);
    }
    if (require_complete && !std::ranges::equal(cover, domain.intervals())) {
      throw std::logic_error("FDD: completeness violated at field " +
                             schema_.field(f).name);
    }
  };
  visit(visit, root);
}

void FddArena::for_each_path(
    ArenaNodeId root,
    const std::function<void(const std::vector<IntervalSet>&, Decision)>& fn)
    const {
  std::vector<IntervalSet> conjuncts;
  conjuncts.reserve(schema_.field_count());
  for (std::size_t i = 0; i < schema_.field_count(); ++i) {
    conjuncts.emplace_back(schema_.domain(i));
  }
  const auto visit = [&](auto&& self, ArenaNodeId id) -> void {
    govern::checkpoint(govern_);
    if (is_terminal(id)) {
      fn(conjuncts, decision(id));
      return;
    }
    const std::size_t f = field(id);
    for (const ArenaEdge& e : edges(id)) {
      conjuncts[f] = labels_[e.label];
      self(self, e.target);
    }
    conjuncts[f] = schema_.domain_set(f);
  };
  visit(visit, root);
}

// ---------------------------------------------------------------------------
// Generation (gen/generate.hpp semantics) off the DAG.

std::size_t FddArena::path_count(ArenaNodeId root) const {
  if (root == kEmpty) {
    return 0;
  }
  std::vector<std::size_t> memo(nodes_.size(), 0);  // 0: not counted yet
  return path_count(root, memo);
}

std::size_t FddArena::path_count(ArenaNodeId id,
                                 std::vector<std::size_t>& memo) const {
  govern::checkpoint(govern_);
  if (is_terminal(id)) {
    return 1;
  }
  if (memo[id] != 0) {
    return memo[id];
  }
  std::size_t total = 0;
  for (const ArenaEdge& e : edges(id)) {
    const std::size_t sub = path_count(e.target, memo);
    total = (total > SIZE_MAX - sub) ? SIZE_MAX : total + sub;
  }
  memo[id] = total;
  return total;
}

Policy FddArena::generate(ArenaNodeId root) const {
  // The election metric, the number of rules gen emits for a subdiagram,
  // is its path count; memoised by id for the whole walk.
  std::vector<std::size_t> rule_counts(nodes_.size(), 0);

  std::vector<IntervalSet> conjuncts;
  conjuncts.reserve(schema_.field_count());
  for (std::size_t i = 0; i < schema_.field_count(); ++i) {
    conjuncts.emplace_back(schema_.domain(i));
  }
  std::vector<Rule> rules;
  const auto gen = [&](auto&& self, ArenaNodeId id) -> void {
    govern::checkpoint(govern_);
    if (is_terminal(id)) {
      // Every emitted rule is a unit of output growth: charge it so a
      // rule-blowup budget caps generation from a pathological diagram.
      govern::charge_rules(govern_);
      rules.emplace_back(schema_, conjuncts, decision(id));
      return;
    }
    // Elect the default branch: highest rule cost, ties broken toward the
    // larger value region (the "everything else" branch human authors
    // would leave for last, and the one most likely to be absorbed by an
    // outer default during redundancy removal).
    const std::span<const ArenaEdge> out = edges(id);
    std::size_t default_edge = 0;
    std::size_t best_cost = 0;
    Value best_width = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::size_t cost = path_count(out[i].target, rule_counts);
      const Value width = labels_[out[i].label].size();
      if (cost > best_cost || (cost == best_cost && width > best_width)) {
        best_cost = cost;
        best_width = width;
        default_edge = i;
      }
    }
    const std::size_t f = field(id);
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (i == default_edge) {
        continue;
      }
      conjuncts[f] = labels_[out[i].label];
      self(self, out[i].target);
    }
    conjuncts[f] = schema_.domain_set(f);
    self(self, out[default_edge].target);
  };
  gen(gen, root);
  return Policy(schema_, std::move(rules));
}

}  // namespace dfw
