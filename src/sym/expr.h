// Symbolic expressions over MiniVM values.
//
// Variables are program inputs (Input i) and syscall results (Unknown j, the
// j-th syscall of the run). Constant folding happens at construction, so an
// expression with no variables is always a kConst node — the symbolic
// executor uses this to tell deterministic branches from input-dependent
// ones, mirroring the interpreter's taint bit exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "minivm/program.h"

namespace softborg {

// BinOp, the binary operators, comes with the opcode table (minivm/ops.h).

const char* binop_name(BinOp op);

struct ExprNode;
using Expr = std::shared_ptr<const ExprNode>;

enum class ExprKind : std::uint8_t { kConst, kInput, kUnknown, kBin };

struct ExprNode {
  ExprKind kind = ExprKind::kConst;
  Value cval = 0;           // kConst
  std::uint32_t index = 0;  // kInput: input slot; kUnknown: syscall ordinal
  BinOp op = BinOp::kAdd;   // kBin
  Expr lhs, rhs;            // kBin
};

// Constructors (fold constants).
Expr make_const(Value v);
Expr make_input(std::uint32_t slot);
Expr make_unknown(std::uint32_t ordinal);
Expr make_bin(BinOp op, Expr lhs, Expr rhs);

inline bool is_const(const Expr& e) { return e->kind == ExprKind::kConst; }

// The interpreter's value (binop_value, minivm/ops.h). Division by zero in
// a fully concrete fold is the caller's bug (checked).
Value eval_binop(BinOp op, Value a, Value b);

// Evaluates under a full assignment. Out-of-range variables read as 0.
Value eval_expr(const Expr& e, const std::vector<Value>& inputs,
                const std::vector<Value>& unknowns);

// Highest variable indices used (for sizing assignments); -1 if none.
void max_indices(const Expr& e, int* max_input, int* max_unknown);

std::string expr_to_string(const Expr& e);

// One branch-condition literal of a path constraint: `cond` must evaluate
// nonzero iff `expected`.
struct Literal {
  Expr cond;
  bool expected = true;
};

using PathConstraint = std::vector<Literal>;

std::string path_to_string(const PathConstraint& pc);

}  // namespace softborg
