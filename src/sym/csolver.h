// Constraint solver for path constraints over bounded variables.
//
// Branch-and-prune: interval arithmetic over the current variable box tests
// each literal (definitely-true / definitely-false / undecided); undecided
// boxes are split on the widest variable until a decision or the node
// budget runs out. Interval operations are overflow-aware: any operation
// that could wrap returns the full int64 interval, so pruning is always
// sound with respect to MiniVM's wrapping semantics. Each query compiles its
// constraint once into a flat tape (one slot per distinct DAG node), and a
// literal decided true on a box is not evaluated again on its sub-boxes.
//
// Complete for the bounded domains SoftBorg uses (program input domains and
// syscall result ranges); returns kUnknown only on budget exhaustion.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fields.h"
#include "sym/expr.h"

namespace softborg {

struct VarDomain {
  Value lo = 0;
  Value hi = 0;

  bool operator==(const VarDomain&) const = default;
};

struct Assignment {
  std::vector<Value> inputs;
  std::vector<Value> unknowns;

  bool operator==(const Assignment&) const = default;
};

enum class SolveStatus : std::uint8_t { kSat, kUnsat, kUnknown };

const char* solve_status_name(SolveStatus s);

struct SolveResult {
  SolveStatus status = SolveStatus::kUnknown;
  Assignment model;  // valid iff status == kSat
  std::uint64_t nodes = 0;
};

// THE solver budget. Every layer that issues solver queries embeds this
// struct rather than duplicating its knobs: ExploreOptions::solver,
// ProofBudget::solver, and GuidancePlannerConfig::solver are all copied
// verbatim into the solve_path calls their layer makes. Precedence is
// strictly top-down — the proof engine overwrites ExploreOptions::solver
// with ProofBudget::solver for the executors it spawns, and the guidance
// planner does the same with its config — so the struct closest to the
// caller always wins and the knobs can no longer drift independently.
struct SolverOptions {
  std::uint64_t max_nodes = 200'000;

  static constexpr auto fields() {
    return std::tuple{field(&SolverOptions::max_nodes)};
  }
};

// Decides satisfiability of `pc` with input i ranging over
// input_domains[i] and syscall-unknown j over unknown_domains[j].
// Variables referenced by the constraint but absent from the domain vectors
// default to [0, 0].
SolveResult solve_path(const PathConstraint& pc,
                       const std::vector<VarDomain>& input_domains,
                       const std::vector<VarDomain>& unknown_domains = {},
                       const SolverOptions& options = {});

// True iff `assignment` satisfies every literal (exact, wrap-aware).
bool satisfies(const PathConstraint& pc, const Assignment& assignment);

}  // namespace softborg
