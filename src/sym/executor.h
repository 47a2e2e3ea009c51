// Symbolic execution of MiniVM programs (paper §3.3 and §4).
//
// The hive uses this engine for everything the pods' natural executions
// cannot provide:
//   * gap analysis — is the unexplored direction of a tree frontier node
//     feasible at all? If not, the subtree is provably complete.
//   * guidance — a model (concrete inputs / syscall faults) that drives a
//     pod down a chosen unexplored path.
//   * fix synthesis — the path constraint of a recorded crash trace, from
//     which input-predicate guards are derived.
//   * relaxed execution consistency (S2E-style): exploration can start at a
//     "unit" entry pc with chosen registers made symbolic, over-approximating
//     the unit's feasible behaviours without executing its callers.
//
// The engine mirrors the interpreter's semantics exactly (wrapping
// arithmetic, taint <-> symbolic correspondence): a branch condition that
// constant-folds is precisely a branch the pod did not record.
//
// Scope: symbolic exploration is single-threaded (thread interleavings are
// covered by schedule guidance + the deadlock detector instead).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "minivm/corpus.h"
#include "minivm/env.h"
#include "minivm/interp.h"
#include "minivm/program.h"
#include "sym/csolver.h"
#include "sym/expr.h"

namespace softborg {

struct SymDecision {
  std::uint32_t site = 0;
  bool taken = false;

  auto operator<=>(const SymDecision&) const = default;
};

enum class PathTerminal : std::uint8_t {
  kOk = 0,          // reached kHalt
  kCrash = 1,       // feasible crash
  kDeadlock = 2,    // single-thread self-deadlock
  kBudget = 3,      // per-path step budget exhausted (path incomplete)
};

struct SymPath {
  std::vector<SymDecision> decisions;  // input-dependent branches, in order
  PathConstraint constraints;
  PathTerminal terminal = PathTerminal::kOk;
  std::optional<CrashInfo> crash;
  Assignment model;  // a witness satisfying `constraints`
  // True iff `model` was confirmed against `constraints` (a solver budget
  // exhaustion can leave a path with an unverified, possibly stale model).
  bool model_verified = false;
  std::vector<VarDomain> unknown_domains;  // per syscall ordinal on this path
  std::uint64_t steps = 0;
};

struct ExploreOptions {
  std::vector<VarDomain> input_domains;
  std::size_t max_paths = 4096;
  std::uint64_t max_steps_per_path = 20'000;
  std::uint64_t max_total_steps = 5'000'000;
  // The unified solver budget (see SolverOptions in csolver.h for the
  // precedence rules shared with ProofBudget and GuidancePlannerConfig).
  SolverOptions solver;
  bool check_crashes = true;
  const EnvModel* env = nullptr;  // defaults to default_env()
};

struct ExploreStats {
  std::uint64_t paths_completed = 0;
  std::uint64_t crash_paths = 0;
  std::uint64_t solver_calls = 0;
  std::uint64_t solver_sat = 0;
  std::uint64_t solver_unsat = 0;
  std::uint64_t solver_unknown = 0;
  std::uint64_t infeasible_pruned = 0;
  std::uint64_t total_steps = 0;
  // True iff exploration covered every feasible path with no budget cut and
  // no undecided solver call — the precondition for a completeness proof.
  bool complete = true;
};

class SymbolicExecutor {
 public:
  SymbolicExecutor(const Program& program, ExploreOptions options);

  // Full exploration from program entry under system-level consistency:
  // globals start at 0, inputs symbolic over their domains.
  std::vector<SymPath> explore();

  // Relaxed (unit-level) consistency: start at `entry_pc`; each register in
  // `params` is symbolic over its domain; all other registers and globals
  // are 0. Over-approximates the unit's in-system behaviours (S2E, §4).
  std::vector<SymPath> explore_unit(
      std::uint32_t entry_pc,
      const std::vector<std::pair<Reg, VarDomain>>& params);

  // Explores only the subtree under a decision prefix (cooperative workers
  // and frontier gap-filling): the first prefix.size() input-dependent
  // branches are forced instead of forked.
  std::vector<SymPath> explore_subtree(const std::vector<SymDecision>& prefix);

  // Follows a complete recorded decision stream (from replay_trace) and
  // returns that single path's constraint. `total_steps`/`crash` come from
  // the trace and pin down the crash occurrence, as in replay.
  std::optional<SymPath> path_for_decisions(
      const std::vector<SymDecision>& decisions, std::uint64_t total_steps,
      const std::optional<CrashInfo>& crash);

  const ExploreStats& stats() const { return stats_; }

 private:
  struct State;
  class Impl;

  const Program& program_;
  ExploreOptions options_;
  ExploreStats stats_;
};

// Convenience: input domains of a corpus entry as solver VarDomains.
std::vector<VarDomain> domains_of(const CorpusEntry& entry);

}  // namespace softborg
