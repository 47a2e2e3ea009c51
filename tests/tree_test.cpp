#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "minivm/corpus.h"
#include "minivm/interp.h"
#include "minivm/replay.h"
#include "sym/executor.h"
#include "tree/exec_tree.h"

namespace softborg {
namespace {

std::vector<SymDecision> decisions_of(const Program& p, const Trace& t) {
  const auto rep = replay_trace(p, t);
  EXPECT_TRUE(rep.ok) << rep.error;
  std::vector<SymDecision> ds;
  for (const auto& d : rep.decisions) ds.push_back({d.site, d.taken});
  return ds;
}

TEST(ExecTree, EmptyTreeIsNotComplete) {
  ExecTree tree(ProgramId(1));
  EXPECT_FALSE(tree.complete());
  EXPECT_EQ(tree.num_paths(), 0u);
}

TEST(ExecTree, SinglePathMerge) {
  ExecTree tree(ProgramId(1));
  const auto r =
      tree.add_path({{0, true}, {1, false}}, Outcome::kOk);
  EXPECT_TRUE(r.new_path);
  EXPECT_EQ(r.new_nodes, 2u);
  EXPECT_EQ(r.lca_depth, 0u);
  EXPECT_EQ(tree.num_paths(), 1u);
  EXPECT_EQ(tree.num_nodes(), 3u);  // root + 2
}

TEST(ExecTree, DuplicatePathIsIdempotent) {
  ExecTree tree(ProgramId(1));
  tree.add_path({{0, true}, {1, false}}, Outcome::kOk);
  const auto r = tree.add_path({{0, true}, {1, false}}, Outcome::kOk);
  EXPECT_FALSE(r.new_path);
  EXPECT_EQ(r.new_nodes, 0u);
  EXPECT_EQ(r.lca_depth, 2u);
  EXPECT_EQ(tree.num_paths(), 1u);
  EXPECT_EQ(tree.total_executions(), 2u);
}

TEST(ExecTree, LcaPasteMechanics) {
  // Fig. 3: the second path shares a prefix and pastes only the suffix.
  ExecTree tree(ProgramId(1));
  tree.add_path({{0, true}, {1, true}, {2, true}}, Outcome::kOk);
  const auto r = tree.add_path({{0, true}, {1, false}, {3, true}},
                               Outcome::kOk);
  EXPECT_TRUE(r.new_path);
  EXPECT_EQ(r.lca_depth, 1u);   // diverges after {0,true}
  EXPECT_EQ(r.new_nodes, 2u);   // {1,false} and {3,true}
  EXPECT_EQ(tree.num_paths(), 2u);
}

TEST(ExecTree, FrontierListsUnexploredDirections) {
  ExecTree tree(ProgramId(1));
  tree.add_path({{0, true}, {1, true}}, Outcome::kOk);
  const auto frontiers = tree.frontier();
  // Missing: {0,false} at root and {1,false} under {0,true}.
  ASSERT_EQ(frontiers.size(), 2u);
  // Hottest first: the root has more visits.
  EXPECT_TRUE(frontiers[0].prefix.empty());
  EXPECT_EQ(frontiers[0].site, 0u);
  EXPECT_FALSE(frontiers[0].direction);
}

TEST(ExecTree, FrontierShrinksAsPathsArrive) {
  ExecTree tree(ProgramId(1));
  tree.add_path({{0, true}, {1, true}}, Outcome::kOk);
  EXPECT_EQ(tree.frontier().size(), 2u);
  tree.add_path({{0, true}, {1, false}}, Outcome::kOk);
  EXPECT_EQ(tree.frontier().size(), 1u);
  tree.add_path({{0, false}}, Outcome::kOk);
  EXPECT_EQ(tree.frontier().size(), 0u);
  EXPECT_TRUE(tree.complete());
}

TEST(ExecTree, MarkInfeasibleClosesFrontier) {
  ExecTree tree(ProgramId(1));
  tree.add_path({{0, true}}, Outcome::kOk);
  EXPECT_FALSE(tree.complete());
  EXPECT_TRUE(tree.mark_infeasible({}, 0, false));
  EXPECT_TRUE(tree.complete());
  EXPECT_EQ(tree.frontier().size(), 0u);
}

TEST(ExecTree, MarkInfeasibleRejectsUnknownPoints) {
  ExecTree tree(ProgramId(1));
  tree.add_path({{0, true}}, Outcome::kOk);
  // Prefix that doesn't exist.
  EXPECT_FALSE(tree.mark_infeasible({{9, true}}, 0, false));
  // Site the node does not branch on.
  EXPECT_FALSE(tree.mark_infeasible({}, 5, false));
  // Direction we've actually observed (other dir absent).
  EXPECT_FALSE(tree.mark_infeasible({}, 0, true));
}

TEST(ExecTree, OutcomeCounting) {
  ExecTree tree(ProgramId(1));
  tree.add_path({{0, true}}, Outcome::kOk);
  tree.add_path({{0, false}}, Outcome::kCrash,
                CrashInfo{CrashKind::kDivByZero, 10, 0});
  tree.add_path({{0, false}}, Outcome::kCrash,
                CrashInfo{CrashKind::kDivByZero, 10, 0});
  EXPECT_EQ(tree.paths_with_outcome(Outcome::kOk), 1u);
  EXPECT_EQ(tree.paths_with_outcome(Outcome::kCrash), 1u);  // distinct leaves
  EXPECT_EQ(tree.num_paths(), 2u);
}

TEST(ExecTree, SubtreeStats) {
  ExecTree tree(ProgramId(1));
  tree.add_path({{0, true}, {1, true}}, Outcome::kOk);
  tree.add_path({{0, true}, {1, false}}, Outcome::kOk);
  tree.add_path({{0, false}}, Outcome::kOk);
  const auto stats = tree.stats_at({{0, true}});
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->visits, 2u);
  EXPECT_EQ(stats->leaves, 2u);
  EXPECT_EQ(stats->open_frontiers, 0u);
  EXPECT_FALSE(tree.stats_at({{7, true}}).has_value());
}

TEST(ExecTree, EmptyDecisionPathIsALeafAtRoot) {
  // Programs with no tainted branches produce empty decision streams.
  ExecTree tree(ProgramId(1));
  const auto r = tree.add_path({}, Outcome::kOk);
  EXPECT_TRUE(r.new_path);
  EXPECT_EQ(tree.num_paths(), 1u);
  EXPECT_TRUE(tree.complete());
}

// ------------------------- integration with replay + symbolic ---------------

TEST(ExecTree, NaturalExecutionsBuildConfigSpaceTree) {
  const auto entry = make_config_space(5);
  ExecTree tree(entry.program.id);
  // All 32 inputs -> all 32 paths.
  for (Value mask = 0; mask < 32; ++mask) {
    std::vector<Value> inputs;
    for (int j = 0; j < 5; ++j) inputs.push_back((mask >> j) & 1);
    ExecConfig cfg;
    cfg.inputs = inputs;
    const auto live = execute(entry.program, cfg);
    tree.add_path(decisions_of(entry.program, live.trace),
                  live.trace.outcome);
  }
  EXPECT_EQ(tree.num_paths(), 32u);
  EXPECT_TRUE(tree.complete());
  EXPECT_TRUE(tree.frontier().empty());
}

TEST(ExecTree, PartialCoverageHasFrontiers) {
  const auto entry = make_config_space(5);
  ExecTree tree(entry.program.id);
  for (Value mask = 0; mask < 7; ++mask) {  // 7 of 32
    std::vector<Value> inputs;
    for (int j = 0; j < 5; ++j) inputs.push_back((mask >> j) & 1);
    ExecConfig cfg;
    cfg.inputs = inputs;
    const auto live = execute(entry.program, cfg);
    tree.add_path(decisions_of(entry.program, live.trace),
                  live.trace.outcome);
  }
  EXPECT_EQ(tree.num_paths(), 7u);
  EXPECT_FALSE(tree.complete());
  EXPECT_FALSE(tree.frontier().empty());
}

TEST(ExecTree, SymbolicPathsAndNaturalPathsAgree) {
  // The tree built from exhaustive natural executions equals the tree built
  // from exhaustive symbolic exploration (§3.3's tests==proofs spectrum).
  const auto entry = make_media_parser();

  ExecTree natural(entry.program.id);
  for (Value format = 0; format <= 63; ++format) {
    for (Value size = 0; size <= 255; ++size) {
      ExecConfig cfg;
      cfg.inputs = {format, size};
      const auto live = execute(entry.program, cfg);
      natural.add_path(decisions_of(entry.program, live.trace),
                       live.trace.outcome);
    }
  }

  ExploreOptions opt;
  opt.input_domains = domains_of(entry);
  SymbolicExecutor ex(entry.program, opt);
  ExecTree symbolic(entry.program.id);
  for (const auto& p : ex.explore()) {
    symbolic.add_path(p.decisions, p.terminal == PathTerminal::kCrash
                                       ? Outcome::kCrash
                                       : Outcome::kOk,
                      p.crash);
  }

  EXPECT_EQ(natural.num_paths(), symbolic.num_paths());
  EXPECT_EQ(natural.num_nodes(), symbolic.num_nodes());
  // Neither tree is complete on its own: the crash check site's "survive"
  // direction is infeasible (the divisor is identically zero there) and
  // only symbolic gap closure can refute it. Both trees have the same
  // frontier to close.
  EXPECT_EQ(natural.complete(), symbolic.complete());
  EXPECT_EQ(natural.frontier().size(), symbolic.frontier().size());
}

TEST(ExecTree, CoverageGrowsMonotonically) {
  const auto entry = make_config_space(8);
  ExecTree tree(entry.program.id);
  Rng rng(5);
  std::size_t last = 0;
  for (int i = 0; i < 200; ++i) {
    std::vector<Value> inputs;
    for (int j = 0; j < 8; ++j) inputs.push_back(rng.next_bool() ? 1 : 0);
    ExecConfig cfg;
    cfg.inputs = inputs;
    const auto live = execute(entry.program, cfg);
    tree.add_path(decisions_of(entry.program, live.trace),
                  live.trace.outcome);
    EXPECT_GE(tree.num_paths(), last);
    last = tree.num_paths();
  }
  EXPECT_GT(tree.num_paths(), 100u);  // 200 random draws of 256 paths
  EXPECT_LE(tree.num_paths(), 200u);
}

TEST(ExecTree, DeepPathTraversalsAreStackSafe) {
  // A 20k-decision natural execution (deep loop over tainted input) must
  // merge and answer every query without recursion — the old recursive
  // collect_frontiers/complete_from was a latent stack overflow here.
  constexpr std::uint32_t kDepth = 20'000;
  ExecTree tree(ProgramId(1));
  std::vector<SymDecision> path;
  path.reserve(kDepth);
  for (std::uint32_t i = 0; i < kDepth; ++i) {
    path.push_back({i, (i & 1) == 0});
  }
  const auto r = tree.add_path(path, Outcome::kCrash,
                               CrashInfo{CrashKind::kDivByZero, 3, 0});
  EXPECT_TRUE(r.new_path);
  EXPECT_EQ(r.new_nodes, kDepth);
  EXPECT_EQ(tree.num_nodes(), kDepth + 1);
  EXPECT_EQ(tree.open_frontiers(), kDepth);  // every level has a sibling gap
  EXPECT_FALSE(tree.complete());

  // Budgeted frontier: only the requested prefixes get materialized.
  const auto top = tree.frontier(8);
  ASSERT_EQ(top.size(), 8u);
  EXPECT_TRUE(top[0].prefix.empty());
  EXPECT_EQ(top[0].site, 0u);

  // Subtree stats at the very bottom.
  const auto stats = tree.stats_at(path);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->nodes, 1u);
  EXPECT_EQ(stats->leaves, 1u);
  EXPECT_EQ(stats->open_frontiers, 0u);

  // Counterexample reconstruction walks the full chain.
  const auto cx = tree.find_path_with_outcome(Outcome::kCrash);
  ASSERT_TRUE(cx.has_value());
  EXPECT_EQ(*cx, path);

  // Both wire versions round-trip the deep chain (iterative codec walk).
  for (const auto version :
       {ExecTree::WireVersion::kV1, ExecTree::WireVersion::kV2}) {
    const auto back = ExecTree::decode(tree.encode(version));
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == tree);
    EXPECT_EQ(back->open_frontiers(), kDepth);
  }

  // Deep infeasibility marks bubble the whole parent chain; close the
  // deepest gaps (node ids on a single chain are their depths).
  for (std::uint32_t d = kDepth; d-- > kDepth - 100;) {
    EXPECT_TRUE(tree.mark_infeasible({}, path[d].site, !path[d].taken, d));
  }
  EXPECT_EQ(tree.open_frontiers(), kDepth - 100);
  EXPECT_FALSE(tree.complete());
}

TEST(ExecTree, DeepPathCompletesUnderFullGapClosure) {
  // Smaller chain, but driven all the way to completeness through hinted
  // infeasibility marks — the O(1) complete() bit must flip exactly at the
  // last closure.
  constexpr std::uint32_t kDepth = 2'000;
  ExecTree tree(ProgramId(1));
  std::vector<SymDecision> path;
  for (std::uint32_t i = 0; i < kDepth; ++i) {
    path.push_back({i, true});
  }
  tree.add_path(path, Outcome::kOk);
  for (std::uint32_t d = 0; d < kDepth; ++d) {
    EXPECT_FALSE(tree.complete());
    EXPECT_TRUE(tree.mark_infeasible({}, path[d].site, false, d));
    EXPECT_EQ(tree.open_frontiers(), kDepth - 1 - d);
  }
  EXPECT_TRUE(tree.complete());
  EXPECT_TRUE(tree.frontier().empty());
}

TEST(ExecTree, RandomTrieIncrementalAggregatesMatchScratchRebuild) {
  // Grow a ~10k-node random trie with interleaved gap closures; the
  // incrementally bubbled aggregates must agree exactly with the
  // from-scratch rebuild a codec round-trip performs. A twin tree fed the
  // same mutations, with room reserved ahead of every batch of 64 paths (as
  // ingest_batch does before a pooled merge), must come out identical.
  ExecTree tree(ProgramId(7));
  ExecTree reserved(ProgramId(7));
  Rng rng(21);
  std::vector<std::vector<SymDecision>> paths;
  while (tree.num_nodes() < 10'000) {
    if (paths.size() % 64 == 0) reserved.reserve(64 * 24, 64);
    std::vector<SymDecision> path;
    const std::size_t len = 1 + rng.next_below(24);
    for (std::size_t d = 0; d < len; ++d) {
      path.push_back({static_cast<std::uint32_t>(rng.next_below(6)),
                      rng.next_bool()});
    }
    const Outcome outcome =
        rng.next_bool(0.1) ? Outcome::kCrash : Outcome::kOk;
    const std::optional<CrashInfo> crash =
        outcome == Outcome::kCrash
            ? std::optional<CrashInfo>(
                  CrashInfo{CrashKind::kExplicitAbort, 9, 1})
            : std::nullopt;
    tree.add_path(path, outcome, crash);
    reserved.add_path(path, outcome, crash);
    paths.push_back(std::move(path));
    if (rng.next_bool(0.25)) {
      const auto gaps = tree.frontier(4);
      if (!gaps.empty()) {
        const auto& f = gaps[rng.next_below(gaps.size())];
        EXPECT_TRUE(tree.mark_infeasible(f.prefix, f.site, f.direction,
                                         f.node));
        EXPECT_TRUE(reserved.mark_infeasible(f.prefix, f.site, f.direction,
                                             f.node));
      }
    }
  }
  EXPECT_TRUE(reserved == tree);
  EXPECT_EQ(reserved.encode(), tree.encode());
  EXPECT_EQ(reserved.open_frontiers(), tree.open_frontiers());

  const auto scratch = ExecTree::decode(tree.encode());
  ASSERT_TRUE(scratch.has_value());
  EXPECT_TRUE(*scratch == tree);
  EXPECT_EQ(scratch->open_frontiers(), tree.open_frontiers());
  EXPECT_EQ(scratch->complete(), tree.complete());
  EXPECT_EQ(scratch->num_paths(), tree.num_paths());

  const auto live = tree.frontier();
  const auto rebuilt = scratch->frontier();
  EXPECT_EQ(live.size(), tree.open_frontiers());
  ASSERT_EQ(live.size(), rebuilt.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].prefix, rebuilt[i].prefix);
    EXPECT_EQ(live[i].site, rebuilt[i].site);
    EXPECT_EQ(live[i].direction, rebuilt[i].direction);
    EXPECT_EQ(live[i].parent_visits, rebuilt[i].parent_visits);
    EXPECT_EQ(live[i].node, rebuilt[i].node);
  }

  for (int i = 0; i < 50; ++i) {
    auto prefix = paths[rng.next_below(paths.size())];
    prefix.resize(rng.next_below(prefix.size() + 1));
    const auto a = tree.stats_at(prefix);
    const auto b = scratch->stats_at(prefix);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->visits, b->visits);
      EXPECT_EQ(a->leaves, b->leaves);
      EXPECT_EQ(a->nodes, b->nodes);
      EXPECT_EQ(a->open_frontiers, b->open_frontiers);
    }
  }
}

TEST(ExecTree, MergeIsOrderIndependent) {
  // Property: the final tree does not depend on arrival order.
  const auto entry = make_config_space(6);
  std::vector<std::vector<SymDecision>> paths;
  for (Value mask = 0; mask < 64; ++mask) {
    std::vector<Value> inputs;
    for (int j = 0; j < 6; ++j) inputs.push_back((mask >> j) & 1);
    ExecConfig cfg;
    cfg.inputs = inputs;
    const auto live = execute(entry.program, cfg);
    paths.push_back(decisions_of(entry.program, live.trace));
  }

  Rng rng(9);
  for (int round = 0; round < 5; ++round) {
    // Shuffle.
    auto shuffled = paths;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    }
    ExecTree tree(entry.program.id);
    for (const auto& p : shuffled) tree.add_path(p, Outcome::kOk);
    EXPECT_EQ(tree.num_paths(), 64u);
    EXPECT_EQ(tree.num_nodes(), 127u);  // full binary trie: 2^7 - 1
    EXPECT_TRUE(tree.complete());
  }
}

}  // namespace
}  // namespace softborg
