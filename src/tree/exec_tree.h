// The collective execution tree (paper §3.2, Fig. 3).
//
// Every end-user execution, replayed into its decision stream (input-
// dependent branch directions), is one guaranteed-feasible root-to-leaf
// path. The hive merges these paths into a trie: walking the shared prefix
// finds the lowest common ancestor, and the divergent suffix is pasted in
// as new nodes. No constraint solving happens during merge — feasibility is
// inherited from the fact that the path actually executed.
//
// Beyond storage, the tree answers the hive's three questions:
//   * coverage  — how many distinct paths/nodes have been observed?
//   * frontier  — which (prefix, direction) pairs are still unexplored?
//     (these drive guidance and symbolic gap-filling, §3.3)
//   * complete  — is every direction either observed or proven infeasible?
//     (the precondition for publishing a proof)
//
// Edges are keyed by (branch site, direction) rather than direction alone,
// so interleaving-dependent multi-threaded decision streams merge cleanly.
//
// Storage (v2): an arena of structure-of-arrays node pools instead of the
// original node-of-vectors trie. Nodes are identified by their creation
// index (append-only, so ids are stable forever and double as walk hints
// and consumer-side keys). Per-node edge storage is inline for the common
// 0..2-edge case, spilling rare wider nodes (multi-threaded interleavings)
// into a shared overflow chain pool; infeasibility marks and leaf outcome
// counters live in shared chain pools too, so a node costs no heap
// allocations of its own.
//
// Aggregates are incremental: add_path and mark_infeasible bubble
// open-frontier counts, subtree node/leaf tallies, and per-outcome leaf
// censuses up the parent chain (O(depth) per mutation), so
//   * complete() and open_frontiers() are O(1) reads,
//   * frontier() visits only subtrees that still contain open directions
//     and reconstructs prefixes on demand via parent links (O(answer)),
//   * stats_at() is a prefix walk plus four array reads,
//   * paths_with_outcome() is a table lookup.
// Every traversal is iterative (explicit stack): a 20k-deep natural
// execution must not be a stack overflow (tests/tree_test.cpp pins this).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/varint.h"
#include "sym/executor.h"
#include "trace/trace.h"

namespace softborg {

class ExecTree {
 public:
  // "No such node": node ids are creation indices, bounded far below this.
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  explicit ExecTree(ProgramId program) : program_(program) { push_node(); }

  struct MergeResult {
    bool new_path = false;     // a previously unseen leaf
    std::size_t new_nodes = 0; // nodes pasted in
    std::size_t lca_depth = 0; // depth of the lowest common ancestor
    std::uint32_t leaf = 0;    // terminal node: a valid mark_infeasible hint
  };

  // Merges one decision stream ending with `outcome`. Idempotent for
  // already-present paths (only counters change). `weight` merges the same
  // execution `weight` times in one walk: because repeats of a present path
  // only bump visit/outcome counters, add_path(d, o, c, k) leaves the tree
  // byte-identical to k sequential calls — the batch pipeline leans on this
  // to coalesce traces whose replay memoized to the same decision stream.
  MergeResult add_path(const std::vector<SymDecision>& decisions,
                       Outcome outcome,
                       const std::optional<CrashInfo>& crash = std::nullopt,
                       std::uint64_t weight = 1);

  // Makes room for `nodes` more nodes and `paths` more add_path calls (each
  // pushes at most one overflow edge cell, outcome link and crash record).
  // Grows each array geometrically, to max(2 x capacity, size + need), so
  // capacity never exceeds what growth by push_back would reach. Changes no
  // content: a reserved tree fed the same paths encodes identically. The
  // batch pipeline reserves on the ingesting thread before fanning merges
  // out, so no worker thread reallocates a tree.
  void reserve(std::size_t nodes, std::size_t paths);

  // Marks direction `dir` at the node reached by `prefix` as proven
  // infeasible (symbolic gap closure). Returns false if the prefix does not
  // lead to a node that branches on `site`. `node_hint` (MergeResult::leaf
  // or Frontier::node — valid forever, the tree is append-only) skips the
  // prefix re-walk.
  bool mark_infeasible(const std::vector<SymDecision>& prefix,
                       std::uint32_t site, bool dir,
                       std::optional<std::uint32_t> node_hint = std::nullopt);

  // ---- coverage -----------------------------------------------------------
  std::size_t num_paths() const { return num_leaves_; }
  std::size_t num_nodes() const { return visits_.size(); }
  std::uint64_t total_executions() const { return visits_[0]; }
  std::uint64_t paths_with_outcome(Outcome o) const;  // distinct leaves, O(1)

  // Decision path of some leaf with outcome `o`, if any (counterexamples).
  std::optional<std::vector<SymDecision>> find_path_with_outcome(
      Outcome o) const;

  // ---- frontier -----------------------------------------------------------
  struct Frontier {
    std::vector<SymDecision> prefix;  // decisions leading to the node
    std::uint32_t site = 0;           // branch site with a missing direction
    bool direction = false;           // the unexplored direction
    std::uint64_t parent_visits = 0;  // how "hot" this region is
    std::uint32_t node = 0;           // node reached by prefix (walk hint)
  };

  // Enumerates unexplored directions, hottest-first, up to `max_items`.
  // Prunes on the incremental subtree counts — only regions that still hold
  // open directions are visited — and materializes prefixes (via parent
  // links) only for the items actually returned.
  std::vector<Frontier> frontier(std::size_t max_items = SIZE_MAX) const;

  // Open directions in the whole tree: frontier().size() without the
  // enumeration. O(1); lets callers detect when a frontier budget clipped.
  std::size_t open_frontiers() const { return open_[0]; }

  // ---- completeness -------------------------------------------------------
  // True iff every observed branch site has both directions observed or
  // proven infeasible, recursively. An empty tree is not complete. O(1).
  bool complete() const { return visits_[0] > 0 && open_[0] == 0; }

  // ---- subtree statistics (portfolio allocation, §4) ----------------------
  struct SubtreeStats {
    std::uint64_t visits = 0;
    std::size_t leaves = 0;
    std::size_t nodes = 0;
    std::size_t open_frontiers = 0;
  };

  // Stats of the subtree reached by `prefix`; nullopt if absent. O(prefix).
  std::optional<SubtreeStats> stats_at(
      const std::vector<SymDecision>& prefix) const;

  // Node reached by `prefix` (kNoNode if absent). Ids are stable creation
  // indices — consumers may key on them (e.g. coop partitioning units).
  std::uint32_t node_at(const std::vector<SymDecision>& prefix) const;

  // Decision path from the root to `node`, reconstructed via parent links.
  std::vector<SymDecision> path_to(std::uint32_t node) const;

  ProgramId program() const { return program_; }

  // ---- persistence (see tree_codec.h) -------------------------------------
  enum class WireVersion : std::uint8_t {
    kV1 = 1,  // legacy node-of-vectors layout (compat: migration round-trip)
    kV2 = 2,  // parent-link layout with packed (site, dir) decisions
  };

  Bytes encode(WireVersion version = WireVersion::kV2) const;
  // Accepts both wire versions; validates structure (tree-shaped, child
  // indices strictly increasing, leaf census consistent) and rebuilds the
  // incremental aggregates.
  static std::optional<ExecTree> decode(const Bytes& bytes);

  bool operator==(const ExecTree& other) const;

  // Graphviz-ish debug rendering (small trees only).
  std::string to_string() const;

 private:
  friend struct TreeCodecAccess;  // tree_codec.cpp builder/walker

  // Decoded edge view handed to for_each_edge callbacks.
  struct Edge {
    std::uint32_t site = 0;
    std::uint32_t child = kNoNode;
    bool dir = false;
  };

  // Edge storage: one 16-byte cell per node inline in edges_, holding the
  // first (for chain nodes: only) edge; wider nodes link further cells
  // through the shared edge_pool_. The (site, direction) pair packs into a
  // single 64-bit key so the hot-path child lookup is one load and one
  // compare per edge.
  static constexpr std::uint64_t kNoKey = ~0ULL;
  struct EdgeCell {
    std::uint64_t key = kNoKey;    // (site << 1) | dir
    std::uint32_t child = kNoNode;
    std::uint32_t next = kNoNode;  // into edge_pool_
  };
  static constexpr std::uint64_t edge_key(std::uint32_t site, bool dir) {
    return (static_cast<std::uint64_t>(site) << 1) | (dir ? 1 : 0);
  }
  struct MarkLink {
    std::uint32_t site = 0;
    bool dir = false;
    std::uint32_t next = kNoNode;
  };
  struct OutcomeLink {
    Outcome outcome = Outcome::kOk;
    std::uint64_t count = 0;
    std::uint32_t next = kNoNode;
  };

  static constexpr std::size_t kNumOutcomes =
      static_cast<std::size_t>(Outcome::kUserKilled) + 1;

  std::uint32_t push_node();
  std::uint32_t find_child(std::uint32_t node, std::uint32_t site,
                           bool dir) const;
  bool is_infeasible(std::uint32_t node, std::uint32_t site, bool dir) const;
  void append_edge(std::uint32_t node, std::uint32_t site, bool dir,
                   std::uint32_t child);
  void append_mark(std::uint32_t node, std::uint32_t site, bool dir);
  // Outcome bookkeeping at a terminal node; returns true when this was the
  // node's first outcome (a brand-new leaf).
  bool record_outcome(std::uint32_t node, Outcome outcome,
                      std::uint64_t weight);

  // Calls f(const Edge&) for every edge of `node`, in insertion order
  // (which is ascending child order — children are appended after parents).
  template <typename F>
  void for_each_edge(std::uint32_t node, F&& f) const {
    const EdgeCell* cell = &edges_[node];
    if (cell->key == kNoKey) return;
    while (true) {
      f(Edge{static_cast<std::uint32_t>(cell->key >> 1), cell->child,
             (cell->key & 1) != 0});
      if (cell->next == kNoNode) break;
      cell = &edge_pool_[cell->next];
    }
  }

  // 1 if `site` at `node` has exactly one observed direction whose opposite
  // is neither observed nor proven infeasible — i.e. the site contributes
  // one open frontier. The local building block of the open_ aggregate.
  std::uint32_t site_open(std::uint32_t node, std::uint32_t site) const;

  // Adds the deltas to `from` and every ancestor up to the root.
  void bubble(std::uint32_t from, std::int64_t open_delta,
              std::uint32_t nodes_delta, std::uint32_t leaves_delta);

  // Recomputes open_/sub_nodes_/sub_leaves_/outcome census bottom-up
  // (decode path; children always carry larger indices than parents).
  void rebuild_aggregates();

  ProgramId program_;

  // ---- arena: one entry per node, indexed by creation order ---------------
  std::vector<std::uint64_t> visits_;
  std::vector<std::uint32_t> parent_;       // kNoNode at the root
  std::vector<std::uint32_t> parent_site_;  // decision on the parent edge
  std::vector<std::uint8_t> parent_dir_;
  std::vector<EdgeCell> edges_;
  std::vector<std::uint32_t> infeasible_head_;  // chain into marks_
  std::vector<std::uint32_t> outcome_head_;     // chain into outcomes_
  std::vector<std::uint32_t> crash_;            // into crash_pool_ or kNoNode
  // Incremental subtree aggregates (self included).
  std::vector<std::uint32_t> open_;       // open frontier directions
  std::vector<std::uint32_t> sub_nodes_;
  std::vector<std::uint32_t> sub_leaves_;

  // ---- shared pools --------------------------------------------------------
  std::vector<EdgeCell> edge_pool_;  // overflow cells past the first edge
  std::vector<MarkLink> marks_;
  std::vector<OutcomeLink> outcomes_;
  std::vector<CrashInfo> crash_pool_;

  std::size_t num_leaves_ = 0;
  std::uint64_t outcome_leaf_counts_[kNumOutcomes] = {};
};

}  // namespace softborg
