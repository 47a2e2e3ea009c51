#include <gtest/gtest.h>

#include <set>

#include "minivm/corpus.h"
#include "minivm/interp.h"
#include "minivm/replay.h"
#include "sym/csolver.h"
#include "sym/executor.h"
#include "sym/expr.h"

namespace softborg {
namespace {

// ---------------------------------------------------------------- expr -----

TEST(Expr, ConstantFolding) {
  const Expr e = make_bin(BinOp::kAdd, make_const(2), make_const(3));
  ASSERT_TRUE(is_const(e));
  EXPECT_EQ(e->cval, 5);
}

TEST(Expr, DivByZeroNotFolded) {
  const Expr e = make_bin(BinOp::kDiv, make_const(2), make_const(0));
  EXPECT_FALSE(is_const(e));
}

TEST(Expr, VariablePreventsFolding) {
  const Expr e = make_bin(BinOp::kAdd, make_input(0), make_const(3));
  EXPECT_FALSE(is_const(e));
}

TEST(Expr, EvalMatchesInterpreterSemantics) {
  // (in0 * 3 - sys0) % 7
  const Expr e = make_bin(
      BinOp::kMod,
      make_bin(BinOp::kSub,
               make_bin(BinOp::kMul, make_input(0), make_const(3)),
               make_unknown(0)),
      make_const(7));
  EXPECT_EQ(eval_expr(e, {10}, {2}), (10 * 3 - 2) % 7);
  EXPECT_EQ(eval_expr(e, {0}, {5}), (0 - 5) % 7);
}

TEST(Expr, EvalWrapsOnOverflow) {
  const Expr e =
      make_bin(BinOp::kAdd, make_input(0), make_const(1));
  EXPECT_EQ(eval_expr(e, {INT64_MAX}, {}), INT64_MIN);
}

TEST(Expr, MaxIndices) {
  const Expr e = make_bin(BinOp::kAdd, make_input(4), make_unknown(2));
  int mi = -1, mu = -1;
  max_indices(e, &mi, &mu);
  EXPECT_EQ(mi, 4);
  EXPECT_EQ(mu, 2);
}

TEST(Expr, ToStringReadable) {
  const Expr e = make_bin(BinOp::kLt, make_input(1), make_const(10));
  EXPECT_EQ(expr_to_string(e), "(in1 < 10)");
}

// ------------------------------------------------------------- csolver -----

PathConstraint pc_of(std::initializer_list<Literal> lits) { return lits; }

TEST(CSolver, TrivialSat) {
  const auto r = solve_path({}, {{0, 10}});
  EXPECT_EQ(r.status, SolveStatus::kSat);
}

TEST(CSolver, SimpleInterval) {
  // in0 < 5 with in0 in [0, 100]
  const PathConstraint pc =
      pc_of({{make_bin(BinOp::kLt, make_input(0), make_const(5)), true}});
  const auto r = solve_path(pc, {{0, 100}});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_LT(r.model.inputs[0], 5);
}

TEST(CSolver, UnsatWhenDomainExcludes) {
  const PathConstraint pc =
      pc_of({{make_bin(BinOp::kLt, make_input(0), make_const(5)), true}});
  EXPECT_EQ(solve_path(pc, {{10, 100}}).status, SolveStatus::kUnsat);
}

TEST(CSolver, NegatedLiteral) {
  // !(in0 < 5): in0 >= 5
  const PathConstraint pc =
      pc_of({{make_bin(BinOp::kLt, make_input(0), make_const(5)), false}});
  const auto r = solve_path(pc, {{0, 100}});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_GE(r.model.inputs[0], 5);
}

TEST(CSolver, ConjunctionPinpoints) {
  // in0 == 13 && in1 >= 200 (as !(in1 < 200))
  const PathConstraint pc = pc_of(
      {{make_bin(BinOp::kEq, make_input(0), make_const(13)), true},
       {make_bin(BinOp::kLt, make_input(1), make_const(200)), false}});
  const auto r = solve_path(pc, {{0, 63}, {0, 255}});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model.inputs[0], 13);
  EXPECT_GE(r.model.inputs[1], 200);
  EXPECT_TRUE(satisfies(pc, r.model));
}

TEST(CSolver, ArithmeticConstraint) {
  // in0 * 2 + in1 == 100
  const Expr lhs = make_bin(
      BinOp::kAdd, make_bin(BinOp::kMul, make_input(0), make_const(2)),
      make_input(1));
  const PathConstraint pc =
      pc_of({{make_bin(BinOp::kEq, lhs, make_const(100)), true}});
  const auto r = solve_path(pc, {{0, 60}, {0, 60}});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model.inputs[0] * 2 + r.model.inputs[1], 100);
}

TEST(CSolver, ModConstraint) {
  // in0 % 100 == 42 over [0, 255] — exercises the coarse mod interval.
  const Expr m = make_bin(BinOp::kMod, make_input(0), make_const(100));
  const PathConstraint pc =
      pc_of({{make_bin(BinOp::kEq, m, make_const(42)), true}});
  const auto r = solve_path(pc, {{0, 255}});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model.inputs[0] % 100, 42);
}

TEST(CSolver, ModNeverNegativeForNonNegativeOperand) {
  // in0 % 100 < 0 is UNSAT for in0 in [0, 255].
  const Expr m = make_bin(BinOp::kMod, make_input(0), make_const(100));
  const PathConstraint pc =
      pc_of({{make_bin(BinOp::kLt, m, make_const(0)), true}});
  EXPECT_EQ(solve_path(pc, {{0, 255}}).status, SolveStatus::kUnsat);
}

TEST(CSolver, UnknownVariables) {
  // sys0 == 0 with sys0 in [-1, 64]
  const PathConstraint pc =
      pc_of({{make_bin(BinOp::kEq, make_unknown(0), make_const(0)), true}});
  const auto r = solve_path(pc, {}, {{-1, 64}});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model.unknowns[0], 0);
}

TEST(CSolver, ContradictionUnsat) {
  const PathConstraint pc = pc_of(
      {{make_bin(BinOp::kLt, make_input(0), make_const(5)), true},
       {make_bin(BinOp::kLt, make_input(0), make_const(5)), false}});
  EXPECT_EQ(solve_path(pc, {{0, 100}}).status, SolveStatus::kUnsat);
}

TEST(CSolver, BudgetExhaustionReturnsUnknown) {
  // Hard equality over a large domain with a tiny node budget.
  const Expr lhs = make_bin(
      BinOp::kAdd, make_bin(BinOp::kMul, make_input(0), make_input(1)),
      make_input(2));
  const PathConstraint pc =
      pc_of({{make_bin(BinOp::kEq, lhs, make_const(999983)), true}});
  SolverOptions so;
  so.max_nodes = 10;
  const auto r =
      solve_path(pc, {{0, 100000}, {0, 100000}, {0, 100000}}, {}, so);
  EXPECT_EQ(r.status, SolveStatus::kUnknown);
}

TEST(CSolver, OverflowedDividendOverMinusOneDoesNotTrap) {
  // x*x*x*x / y < 5 with x in [0, 10^6], y in [-10, -1]: the product
  // overflows to the full interval, whose corner INT64_MIN / -1 used to
  // raise SIGFPE inside the interval division.
  const Expr x = make_input(0);
  const Expr x3 = make_bin(BinOp::kMul, make_bin(BinOp::kMul, x, x), x);
  const Expr x4 = make_bin(BinOp::kMul, x3, x);
  const PathConstraint pc = pc_of(
      {{make_bin(BinOp::kLt, make_bin(BinOp::kDiv, x4, make_input(1)),
                 make_const(5)),
        true}});
  const auto r = solve_path(pc, {{0, 1'000'000}, {-10, -1}});
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_TRUE(satisfies(pc, r.model));
}

TEST(CSolver, SatisfiesAgreesWithSolver) {
  // Randomized cross-check: solver models always satisfy.
  Rng rng(31);
  for (int round = 0; round < 50; ++round) {
    const Value a = rng.next_in(0, 50), b = rng.next_in(0, 50);
    const Expr sum = make_bin(BinOp::kAdd, make_input(0), make_input(1));
    const PathConstraint pc = pc_of(
        {{make_bin(BinOp::kEq, sum, make_const(a + b)), true},
         {make_bin(BinOp::kLe, make_input(0), make_const(a)), true}});
    const auto r = solve_path(pc, {{0, 50}, {0, 50}});
    ASSERT_EQ(r.status, SolveStatus::kSat) << "round " << round;
    EXPECT_TRUE(satisfies(pc, r.model)) << "round " << round;
  }
}

// ------------------------------------------------------------ executor -----

ExploreOptions options_for(const CorpusEntry& entry) {
  ExploreOptions opt;
  opt.input_domains = domains_of(entry);
  return opt;
}

TEST(Executor, ConfigSpaceEnumeratesAllPaths) {
  const auto entry = make_config_space(6);
  SymbolicExecutor ex(entry.program, options_for(entry));
  const auto paths = ex.explore();
  EXPECT_EQ(paths.size(), 64u);
  EXPECT_TRUE(ex.stats().complete);
  std::set<std::vector<SymDecision>> unique;
  for (const auto& p : paths) {
    EXPECT_EQ(p.terminal, PathTerminal::kOk);
    EXPECT_EQ(p.decisions.size(), 6u);
    unique.insert(p.decisions);
  }
  EXPECT_EQ(unique.size(), 64u);
}

TEST(Executor, MediaParserFindsTheCrash) {
  const auto entry = make_media_parser();
  SymbolicExecutor ex(entry.program, options_for(entry));
  const auto paths = ex.explore();
  EXPECT_TRUE(ex.stats().complete);

  int crashes = 0;
  for (const auto& p : paths) {
    if (p.terminal != PathTerminal::kCrash) continue;
    crashes++;
    ASSERT_TRUE(p.crash.has_value());
    EXPECT_EQ(p.crash->kind, CrashKind::kDivByZero);
    // The model must be a real crashing input.
    ASSERT_EQ(p.model.inputs.size(), 2u);
    EXPECT_EQ(p.model.inputs[0], 13);
    EXPECT_GE(p.model.inputs[1], 200);
    // Confirm by concrete execution.
    ExecConfig cfg;
    cfg.inputs = p.model.inputs;
    EXPECT_EQ(execute(entry.program, cfg).trace.outcome, Outcome::kCrash);
  }
  EXPECT_EQ(crashes, 1);
}

TEST(Executor, ModelsExecuteToPredictedPath) {
  // Every symbolic path's model, run concretely, reproduces exactly the
  // decisions the executor predicted.
  const auto entry = make_media_parser();
  SymbolicExecutor ex(entry.program, options_for(entry));
  const auto paths = ex.explore();
  ASSERT_FALSE(paths.empty());
  for (const auto& p : paths) {
    ExecConfig cfg;
    cfg.inputs = p.model.inputs;
    cfg.collect_branch_events = true;
    const auto live = execute(entry.program, cfg);
    std::vector<SymDecision> live_decisions;
    for (const auto& ev : live.branch_events) {
      if (ev.tainted) live_decisions.push_back({ev.site, ev.taken});
    }
    EXPECT_EQ(live_decisions, p.decisions);
  }
}

TEST(Executor, MagicNeedleFound) {
  const auto entry = make_magic_lookup();
  SymbolicExecutor ex(entry.program, options_for(entry));
  const auto paths = ex.explore();
  bool found = false;
  for (const auto& p : paths) {
    if (p.terminal == PathTerminal::kCrash) {
      found = true;
      EXPECT_EQ(p.model.inputs[0], 4242);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Executor, FileCopierSyscallCrash) {
  const auto entry = make_file_copier();
  auto opt = options_for(entry);
  opt.max_paths = 20000;
  SymbolicExecutor ex(entry.program, opt);
  const auto paths = ex.explore();
  bool found = false;
  for (const auto& p : paths) {
    if (p.terminal != PathTerminal::kCrash) continue;
    found = true;
    ASSERT_TRUE(p.crash.has_value());
    EXPECT_EQ(p.crash->kind, CrashKind::kDivByZero);
    // The crash needs a zero-length read: check the witness.
    ASSERT_FALSE(p.model.unknowns.empty());
    EXPECT_EQ(p.model.unknowns.back(), 0);
    break;
  }
  EXPECT_TRUE(found);
}

TEST(Executor, WorkerPoolSystemLevelHasNoCrash) {
  const auto entry = make_worker_pool();
  SymbolicExecutor ex(entry.program, options_for(entry));
  const auto paths = ex.explore();
  EXPECT_TRUE(ex.stats().complete);
  for (const auto& p : paths) {
    EXPECT_NE(p.terminal, PathTerminal::kCrash)
        << "in-system infeasible abort reported as feasible";
  }
}

TEST(Executor, WorkerPoolUnitLevelOverApproximates) {
  // Relaxed (unit-level) consistency: v unconstrained in [-128, 127]
  // exposes the defensive abort — a superset of in-system behaviour (§4).
  const auto entry = make_worker_pool();
  ExploreOptions opt;  // note: no program input domains; unit params only
  SymbolicExecutor ex(entry.program, opt);
  const auto paths = ex.explore_unit(
      entry.unit_entry_pc, {{entry.unit_params[0], VarDomain{-128, 127}}});
  bool abort_found = false;
  for (const auto& p : paths) {
    if (p.terminal == PathTerminal::kCrash &&
        p.crash->kind == CrashKind::kExplicitAbort) {
      abort_found = true;
    }
  }
  EXPECT_TRUE(abort_found);
}

TEST(Executor, SubtreeExplorationRestrictsToPrefix) {
  const auto entry = make_config_space(6);
  SymbolicExecutor ex(entry.program, options_for(entry));
  const std::vector<SymDecision> prefix = {{0, true}, {1, false}};
  const auto paths = ex.explore_subtree(prefix);
  EXPECT_EQ(paths.size(), 16u);  // 2^(6-2)
  for (const auto& p : paths) {
    ASSERT_GE(p.decisions.size(), 2u);
    EXPECT_EQ(p.decisions[0], prefix[0]);
    EXPECT_EQ(p.decisions[1], prefix[1]);
  }
}

TEST(Executor, PathForDecisionsRecoversCrashConstraint) {
  // Record a real crash, replay it to decisions, then derive the path
  // constraint symbolically and check it characterizes the crash region.
  const auto entry = make_media_parser();
  ExecConfig cfg;
  cfg.inputs = {13, 250};
  const auto live = execute(entry.program, cfg);
  ASSERT_EQ(live.trace.outcome, Outcome::kCrash);
  const auto rep = replay_trace(entry.program, live.trace);
  ASSERT_TRUE(rep.ok);

  std::vector<SymDecision> decisions;
  for (const auto& d : rep.decisions) decisions.push_back({d.site, d.taken});

  SymbolicExecutor ex(entry.program, options_for(entry));
  const auto path =
      ex.path_for_decisions(decisions, live.trace.steps, live.trace.crash);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->terminal, PathTerminal::kCrash);

  // All models of the constraint crash; {13, 250} satisfies it.
  Assignment probe;
  probe.inputs = {13, 250};
  EXPECT_TRUE(satisfies(path->constraints, probe));
  probe.inputs = {13, 100};
  EXPECT_FALSE(satisfies(path->constraints, probe));
  probe.inputs = {12, 250};
  EXPECT_FALSE(satisfies(path->constraints, probe));
}

TEST(Executor, PathBudgetMarksIncomplete) {
  const auto entry = make_config_space(10);
  auto opt = options_for(entry);
  opt.max_paths = 16;  // far fewer than 1024 feasible paths
  SymbolicExecutor ex(entry.program, opt);
  const auto paths = ex.explore();
  EXPECT_LE(paths.size(), 16u);
  EXPECT_FALSE(ex.stats().complete);
}

TEST(Executor, StatsAccounting) {
  const auto entry = make_media_parser();
  SymbolicExecutor ex(entry.program, options_for(entry));
  const auto paths = ex.explore();
  const auto& st = ex.stats();
  EXPECT_EQ(st.paths_completed, paths.size());
  EXPECT_GT(st.solver_calls, 0u);
  EXPECT_EQ(st.crash_paths, 1u);
  EXPECT_GT(st.total_steps, 0u);
}

}  // namespace
}  // namespace softborg
