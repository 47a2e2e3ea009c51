// Execution guidance (paper §3.3): "SoftBorg uses symbolic analysis to
// identify directions toward which to guide the pods to fill in the gaps".
//
// The planner reads the collective tree's frontier and, for each unexplored
// direction, solves for a witness: concrete inputs plus (when the path
// depends on the environment) a syscall fault plan. Directives never change
// P's semantics — they only choose inputs, inject environment values, and
// steer thread schedules, all of which are legal executions of P.
//
// For multi-threaded programs the planner also emits schedule-exploration
// directives (seeded random and adversarial yield-at-lock plans), which is
// how rare interleavings (deadlocks) are surfaced quickly.
#pragma once

#include <vector>

#include "common/fields.h"
#include "common/rng.h"
#include "minivm/corpus.h"
#include "pod/protocol.h"
#include "sym/executor.h"
#include "tree/exec_tree.h"

namespace softborg {

struct GuidancePlannerConfig {
  // The unified solver budget (see SolverOptions in csolver.h for the
  // precedence rules shared with ExploreOptions and ProofBudget).
  SolverOptions solver;
  std::size_t max_paths_per_frontier = 4;
  // Frontiers enumerated per plan_frontier call; 0 keeps the historical
  // default of 2x the directive budget (headroom for infeasible gaps the
  // solver declines). Overshooting is cheap now that enumeration is
  // O(answer), but each witness still costs a solver call, so the budget
  // is worth keeping configurable per deployment.
  std::size_t frontier_budget = 0;

  // The single resolution point for the 0-means-default rule above. Every
  // consumer — plan_frontier itself and the adaptive planner's work-unit
  // accounting — must go through this so per-day budgets can never diverge
  // from the historical default.
  std::size_t effective_frontier_budget(std::size_t max_directives) const {
    return frontier_budget != 0 ? frontier_budget : max_directives * 2;
  }

  static constexpr auto fields() {
    using C = GuidancePlannerConfig;
    return std::tuple{field(&C::solver), field(&C::max_paths_per_frontier),
                      field(&C::frontier_budget)};
  }
};

class GuidancePlanner {
 public:
  explicit GuidancePlanner(GuidancePlannerConfig config = {})
      : config_(config) {}

  // Input/fault directives targeting up to `max_directives` frontier gaps
  // of a single-threaded program's tree. `cache`, when non-null, recycles
  // solver results across frontiers (and across programs, via the caller).
  std::vector<GuidanceDirective> plan_frontier(const CorpusEntry& entry,
                                               const ExecTree& tree,
                                               std::size_t max_directives,
                                               SolverCache* cache = nullptr);

  // Schedule-exploration directives for multi-threaded programs: plans that
  // force long runs of each thread at staggered offsets, plus random mixes.
  std::vector<GuidanceDirective> plan_schedules(const CorpusEntry& entry,
                                                std::size_t max_directives,
                                                Rng& rng);

 private:
  GuidancePlannerConfig config_;
};

}  // namespace softborg
