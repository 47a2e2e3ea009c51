// The original branch-and-prune search of solve_path, frozen as a test
// oracle. It re-walks the expression DAG with a fresh hash-map memo at every
// node, re-evaluates every literal at every node, and decides an all-
// singleton box with satisfies(). Only test binaries link it; the
// differential suite checks that solve_path returns the same status, model
// and node count on every query.
#pragma once

#include "sym/csolver.h"

namespace softborg {

SolveResult solve_path_oracle(const PathConstraint& pc,
                              const std::vector<VarDomain>& input_domains,
                              const std::vector<VarDomain>& unknown_domains,
                              const SolverOptions& options);

}  // namespace softborg
