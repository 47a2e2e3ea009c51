#include "tree/exec_tree.h"

#include <algorithm>

#include "common/check.h"

namespace softborg {

namespace {
// Room for `need` more elements, growing at least 2x when it grows at all.
template <typename T>
void reserve_more(std::vector<T>& v, std::size_t need) {
  if (v.size() + need <= v.capacity()) return;
  v.reserve(std::max(2 * v.capacity(), v.size() + need));
}
}  // namespace

std::uint32_t ExecTree::push_node() {
  const std::uint32_t id = static_cast<std::uint32_t>(visits_.size());
  visits_.push_back(0);
  parent_.push_back(kNoNode);
  parent_site_.push_back(0);
  parent_dir_.push_back(0);
  edges_.emplace_back();
  infeasible_head_.push_back(kNoNode);
  outcome_head_.push_back(kNoNode);
  crash_.push_back(kNoNode);
  open_.push_back(0);
  sub_nodes_.push_back(1);
  sub_leaves_.push_back(0);
  return id;
}

void ExecTree::reserve(std::size_t nodes, std::size_t paths) {
  reserve_more(visits_, nodes);
  reserve_more(parent_, nodes);
  reserve_more(parent_site_, nodes);
  reserve_more(parent_dir_, nodes);
  reserve_more(edges_, nodes);
  reserve_more(infeasible_head_, nodes);
  reserve_more(outcome_head_, nodes);
  reserve_more(crash_, nodes);
  reserve_more(open_, nodes);
  reserve_more(sub_nodes_, nodes);
  reserve_more(sub_leaves_, nodes);
  reserve_more(edge_pool_, paths);
  reserve_more(outcomes_, paths);
  reserve_more(crash_pool_, paths);
}

std::uint32_t ExecTree::find_child(std::uint32_t node, std::uint32_t site,
                                   bool dir) const {
  const std::uint64_t key = edge_key(site, dir);
  const EdgeCell* cell = &edges_[node];
  if (cell->key == kNoKey) return kNoNode;
  while (true) {
    if (cell->key == key) return cell->child;
    if (cell->next == kNoNode) return kNoNode;
    cell = &edge_pool_[cell->next];
  }
}

bool ExecTree::is_infeasible(std::uint32_t node, std::uint32_t site,
                             bool dir) const {
  for (std::uint32_t link = infeasible_head_[node]; link != kNoNode;
       link = marks_[link].next) {
    if (marks_[link].site == site && marks_[link].dir == dir) return true;
  }
  return false;
}

void ExecTree::append_edge(std::uint32_t node, std::uint32_t site, bool dir,
                           std::uint32_t child) {
  const std::uint64_t key = edge_key(site, dir);
  EdgeCell* cell = &edges_[node];
  if (cell->key == kNoKey) {
    cell->key = key;
    cell->child = child;
    return;
  }
  while (cell->next != kNoNode) cell = &edge_pool_[cell->next];
  const std::uint32_t link = static_cast<std::uint32_t>(edge_pool_.size());
  // Link before pushing: the push may reallocate the pool `cell` points into.
  cell->next = link;
  edge_pool_.push_back({key, child, kNoNode});
}

void ExecTree::append_mark(std::uint32_t node, std::uint32_t site, bool dir) {
  const std::uint32_t link = static_cast<std::uint32_t>(marks_.size());
  marks_.push_back({site, dir, kNoNode});
  if (infeasible_head_[node] == kNoNode) {
    infeasible_head_[node] = link;
    return;
  }
  std::uint32_t tail = infeasible_head_[node];
  while (marks_[tail].next != kNoNode) tail = marks_[tail].next;
  marks_[tail].next = link;
}

bool ExecTree::record_outcome(std::uint32_t node, Outcome outcome,
                              std::uint64_t weight) {
  std::uint32_t tail = kNoNode;
  for (std::uint32_t link = outcome_head_[node]; link != kNoNode;
       link = outcomes_[link].next) {
    if (outcomes_[link].outcome == outcome) {
      outcomes_[link].count += weight;
      return false;
    }
    tail = link;
  }
  const std::uint32_t link = static_cast<std::uint32_t>(outcomes_.size());
  outcomes_.push_back({outcome, weight, kNoNode});
  outcome_leaf_counts_[static_cast<std::size_t>(outcome)]++;
  if (tail == kNoNode) {
    const bool first = outcome_head_[node] == kNoNode;
    outcome_head_[node] = link;
    return first;  // brand-new leaf iff the chain was empty
  }
  outcomes_[tail].next = link;
  return false;
}

std::uint32_t ExecTree::site_open(std::uint32_t node,
                                  std::uint32_t site) const {
  const bool seen_true = find_child(node, site, true) != kNoNode;
  const bool seen_false = find_child(node, site, false) != kNoNode;
  if (seen_true == seen_false) return 0;  // both observed, or site unknown
  const bool missing = !seen_true;
  return is_infeasible(node, site, missing) ? 0u : 1u;
}

void ExecTree::bubble(std::uint32_t from, std::int64_t open_delta,
                      std::uint32_t nodes_delta, std::uint32_t leaves_delta) {
  for (std::uint32_t cur = from; cur != kNoNode; cur = parent_[cur]) {
    open_[cur] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(open_[cur]) + open_delta);
    sub_nodes_[cur] += nodes_delta;
    sub_leaves_[cur] += leaves_delta;
  }
}

ExecTree::MergeResult ExecTree::add_path(
    const std::vector<SymDecision>& decisions, Outcome outcome,
    const std::optional<CrashInfo>& crash, std::uint64_t weight) {
  MergeResult result;
  if (weight == 0) return result;
  std::uint32_t cur = 0;
  visits_[0] += weight;

  std::size_t depth = 0;
  // Walk the shared prefix — the LCA is where we stop matching.
  for (; depth < decisions.size(); ++depth) {
    const auto& d = decisions[depth];
    const std::uint32_t child = find_child(cur, d.site, d.taken);
    if (child == kNoNode) break;
    cur = child;
    visits_[cur] += weight;
  }
  result.lca_depth = depth;
  const std::uint32_t lca = cur;
  const std::uint32_t pasted =
      static_cast<std::uint32_t>(decisions.size() - depth);

  if (pasted > 0) {
    // The LCA's branch site gains its first pasted direction: its open count
    // can move either way (0→1 on a fresh site, 1→0 when the suffix supplies
    // the missing direction), so measure it before and after.
    const std::uint32_t site0 = decisions[depth].site;
    const std::int64_t open_before = site_open(lca, site0);
    const std::uint32_t first = static_cast<std::uint32_t>(visits_.size());
    for (; depth < decisions.size(); ++depth) {
      const auto& d = decisions[depth];
      const std::uint32_t child = push_node();
      append_edge(cur, d.site, d.taken, child);
      parent_[child] = cur;
      parent_site_[child] = d.site;
      parent_dir_[child] = d.taken ? 1 : 0;
      cur = child;
      visits_[cur] += weight;
      result.new_nodes++;
    }
    // The pasted chain's aggregates are closed-form: node first+t heads a
    // chain of pasted-t nodes, each non-terminal one contributing one open
    // (its sibling direction is unexplored).
    for (std::uint32_t t = 0; t < pasted; ++t) {
      open_[first + t] = pasted - 1 - t;
      sub_nodes_[first + t] = pasted - t;
    }
    const std::int64_t open_delta =
        site_open(lca, site0) - open_before + (pasted - 1);
    bubble(lca, open_delta, pasted, 0);
  }

  // Terminal bookkeeping.
  const bool new_leaf = record_outcome(cur, outcome, weight);
  if (new_leaf) {
    num_leaves_++;
    result.new_path = true;
    bubble(cur, 0, 0, 1);
  }
  if (crash.has_value() && crash_[cur] == kNoNode) {
    crash_[cur] = static_cast<std::uint32_t>(crash_pool_.size());
    crash_pool_.push_back(*crash);
  }
  result.leaf = cur;
  return result;
}

std::uint32_t ExecTree::node_at(const std::vector<SymDecision>& prefix) const {
  std::uint32_t cur = 0;
  for (const auto& d : prefix) {
    cur = find_child(cur, d.site, d.taken);
    if (cur == kNoNode) return kNoNode;
  }
  return cur;
}

std::vector<SymDecision> ExecTree::path_to(std::uint32_t node) const {
  std::vector<SymDecision> path;
  for (std::uint32_t cur = node; parent_[cur] != kNoNode;
       cur = parent_[cur]) {
    path.push_back({parent_site_[cur], parent_dir_[cur] != 0});
  }
  std::reverse(path.begin(), path.end());
  return path;
}

bool ExecTree::mark_infeasible(const std::vector<SymDecision>& prefix,
                               std::uint32_t site, bool dir,
                               std::optional<std::uint32_t> node_hint) {
  std::uint32_t cur = 0;
  if (node_hint.has_value() && *node_hint < visits_.size()) {
    cur = *node_hint;
  } else {
    cur = node_at(prefix);
    if (cur == kNoNode) return false;
  }
  // The node must actually branch on `site` in the other direction —
  // otherwise this infeasibility claim is about a point we know nothing of.
  if (find_child(cur, site, !dir) == kNoNode) return false;
  if (!is_infeasible(cur, site, dir)) {
    const std::int64_t open_before = site_open(cur, site);
    append_mark(cur, site, dir);
    const std::int64_t open_delta = site_open(cur, site) - open_before;
    if (open_delta != 0) bubble(cur, open_delta, 0, 0);
  }
  return true;
}

std::uint64_t ExecTree::paths_with_outcome(Outcome o) const {
  return outcome_leaf_counts_[static_cast<std::size_t>(o)];
}

std::optional<std::vector<SymDecision>> ExecTree::find_path_with_outcome(
    Outcome o) const {
  if (paths_with_outcome(o) == 0) return std::nullopt;
  std::vector<SymDecision> prefix;
  // Iterative DFS carrying the prefix.
  struct Item {
    std::uint32_t idx;
    std::size_t depth;
    SymDecision via;
  };
  std::vector<Item> stack{{0, 0, {}}};
  bool first = true;
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    prefix.resize(item.depth);
    if (!first) prefix.push_back(item.via);
    first = false;
    for (std::uint32_t link = outcome_head_[item.idx]; link != kNoNode;
         link = outcomes_[link].next) {
      if (outcomes_[link].outcome == o) return prefix;
    }
    for_each_edge(item.idx, [&](const Edge& e) {
      stack.push_back({e.child, prefix.size(), {e.site, e.dir}});
    });
  }
  return std::nullopt;
}

std::vector<ExecTree::Frontier> ExecTree::frontier(
    std::size_t max_items) const {
  // Phase 1: enumerate (node, site, direction) hits in the same pruned
  // preorder the original full DFS produced — subtrees with open_ == 0
  // cannot contribute and are skipped, so this is O(open regions), and no
  // prefixes are materialized yet.
  struct Hit {
    std::uint32_t node;
    std::uint32_t site;
    bool direction;
    std::uint64_t visits;
  };
  std::vector<Hit> hits;
  if (open_[0] > 0) {
    std::vector<std::uint32_t> stack{0};
    std::vector<std::uint32_t> kids;
    while (!stack.empty()) {
      const std::uint32_t n = stack.back();
      stack.pop_back();
      for_each_edge(n, [&](const Edge& e) {
        const bool other = !e.dir;
        if (find_child(n, e.site, other) == kNoNode &&
            !is_infeasible(n, e.site, other)) {
          hits.push_back({n, e.site, other, visits_[n]});
        }
      });
      kids.clear();
      for_each_edge(n, [&](const Edge& e) {
        if (open_[e.child] > 0) kids.push_back(e.child);
      });
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }
  // Hottest-first; stable so preorder breaks ties, as before.
  std::stable_sort(hits.begin(), hits.end(),
                   [](const Hit& a, const Hit& b) {
                     return a.visits > b.visits;
                   });
  if (hits.size() > max_items) hits.resize(max_items);
  // Phase 2: reconstruct prefixes via parent links for the survivors only —
  // a budgeted frontier(64) on a huge tree builds exactly 64 prefixes.
  std::vector<Frontier> out;
  out.reserve(hits.size());
  for (const auto& h : hits) {
    Frontier f;
    f.prefix = path_to(h.node);
    f.site = h.site;
    f.direction = h.direction;
    f.parent_visits = h.visits;
    f.node = h.node;
    out.push_back(std::move(f));
  }
  return out;
}

std::optional<ExecTree::SubtreeStats> ExecTree::stats_at(
    const std::vector<SymDecision>& prefix) const {
  const std::uint32_t node = node_at(prefix);
  if (node == kNoNode) return std::nullopt;
  SubtreeStats stats;
  stats.visits = visits_[node];
  stats.leaves = sub_leaves_[node];
  stats.nodes = sub_nodes_[node];
  stats.open_frontiers = open_[node];
  return stats;
}

void ExecTree::rebuild_aggregates() {
  num_leaves_ = 0;
  std::fill(outcome_leaf_counts_, outcome_leaf_counts_ + kNumOutcomes, 0u);
  // Children always carry larger indices than their parent, so one reverse
  // pass sees every child before its parent.
  for (std::size_t i = visits_.size(); i-- > 0;) {
    const std::uint32_t id = static_cast<std::uint32_t>(i);
    std::uint32_t open = 0;
    std::uint32_t nodes = 1;
    std::uint32_t leaves = 0;
    for_each_edge(id, [&](const Edge& e) {
      const bool other = !e.dir;
      if (find_child(id, e.site, other) == kNoNode &&
          !is_infeasible(id, e.site, other)) {
        open++;
      }
      open += open_[e.child];
      nodes += sub_nodes_[e.child];
      leaves += sub_leaves_[e.child];
    });
    if (outcome_head_[id] != kNoNode) {
      leaves++;
      num_leaves_++;
    }
    for (std::uint32_t link = outcome_head_[id]; link != kNoNode;
         link = outcomes_[link].next) {
      outcome_leaf_counts_[static_cast<std::size_t>(
          outcomes_[link].outcome)]++;
    }
    open_[id] = open;
    sub_nodes_[id] = nodes;
    sub_leaves_[id] = leaves;
  }
}

std::string ExecTree::to_string() const {
  std::string out;
  struct Item {
    std::uint32_t idx;
    int depth;
  };
  std::vector<Item> stack{{0, 0}};
  std::vector<Edge> scratch;
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    out.append(static_cast<std::size_t>(item.depth) * 2, ' ');
    out += "node visits=" + std::to_string(visits_[item.idx]);
    for (std::uint32_t link = outcome_head_[item.idx]; link != kNoNode;
         link = outcomes_[link].next) {
      out += std::string(" ") + outcome_name(outcomes_[link].outcome) + "x" +
             std::to_string(outcomes_[link].count);
    }
    out += "\n";
    scratch.clear();
    for_each_edge(item.idx, [&](const Edge& e) { scratch.push_back(e); });
    for (auto it = scratch.rbegin(); it != scratch.rend(); ++it) {
      out.append(static_cast<std::size_t>(item.depth) * 2 + 1, ' ');
      out += "s" + std::to_string(it->site) + (it->dir ? "/T" : "/F") + "\n";
      stack.push_back({it->child, item.depth + 1});
    }
  }
  return out;
}

}  // namespace softborg
