#include "sym/expr.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"

namespace softborg {

const char* binop_name(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
  }
  return "?";
}

Expr make_const(Value v) {
  auto node = std::make_shared<ExprNode>();
  node->kind = ExprKind::kConst;
  node->cval = v;
  return node;
}

Expr make_input(std::uint32_t slot) {
  auto node = std::make_shared<ExprNode>();
  node->kind = ExprKind::kInput;
  node->index = slot;
  return node;
}

Expr make_unknown(std::uint32_t ordinal) {
  auto node = std::make_shared<ExprNode>();
  node->kind = ExprKind::kUnknown;
  node->index = ordinal;
  return node;
}

Value eval_binop(BinOp op, Value a, Value b) {
  SB_CHECK(b != 0 || (op != BinOp::kDiv && op != BinOp::kMod));
  return binop_value(op, a, b);
}

Expr make_bin(BinOp op, Expr lhs, Expr rhs) {
  SB_CHECK(lhs != nullptr && rhs != nullptr);
  if (is_const(lhs) && is_const(rhs)) {
    // Fold unless it would divide by zero — keep that symbolic so the
    // executor's crash check sees it.
    if (!((op == BinOp::kDiv || op == BinOp::kMod) && rhs->cval == 0)) {
      return make_const(eval_binop(op, lhs->cval, rhs->cval));
    }
  }
  // Algebraic identities keep expression DAGs small, which directly cuts
  // solver cost. ONLY identities that return one of the operands are legal
  // here: an identity that folded a tainted-operand expression to a
  // constant (x-x, x*0, x==x, ...) would break the taint<->symbolic
  // correspondence — the interpreter taints such results and records a
  // trace bit, so the symbolic executor must keep them symbolic too.
  const bool lhs0 = is_const(lhs) && lhs->cval == 0;
  const bool rhs0 = is_const(rhs) && rhs->cval == 0;
  const bool lhs1 = is_const(lhs) && lhs->cval == 1;
  const bool rhs1 = is_const(rhs) && rhs->cval == 1;
  switch (op) {
    case BinOp::kAdd:
      if (lhs0) return rhs;
      if (rhs0) return lhs;
      break;
    case BinOp::kSub:
      if (rhs0) return lhs;
      break;
    case BinOp::kMul:
      if (lhs1) return rhs;
      if (rhs1) return lhs;
      break;
    case BinOp::kDiv:
      if (rhs1) return lhs;
      break;
    default:
      break;
  }
  auto node = std::make_shared<ExprNode>();
  node->kind = ExprKind::kBin;
  node->op = op;
  node->lhs = std::move(lhs);
  node->rhs = std::move(rhs);
  return node;
}

namespace {

// Expressions are DAGs (register reuse shares subtrees); every walk must
// memoize on node identity or evaluation goes exponential.
Value eval_memo(const ExprNode* e, const std::vector<Value>& inputs,
                const std::vector<Value>& unknowns,
                std::unordered_map<const ExprNode*, Value>& memo) {
  switch (e->kind) {
    case ExprKind::kConst:
      return e->cval;
    case ExprKind::kInput:
      return e->index < inputs.size() ? inputs[e->index] : 0;
    case ExprKind::kUnknown:
      return e->index < unknowns.size() ? unknowns[e->index] : 0;
    case ExprKind::kBin: {
      auto it = memo.find(e);
      if (it != memo.end()) return it->second;
      const Value a = eval_memo(e->lhs.get(), inputs, unknowns, memo);
      const Value b = eval_memo(e->rhs.get(), inputs, unknowns, memo);
      Value r;
      if ((e->op == BinOp::kDiv || e->op == BinOp::kMod) && b == 0) {
        // Division by zero under this assignment: define as 0 for the
        // purpose of constraint evaluation (the executor treats divisor==0
        // as a crash condition separately).
        r = 0;
      } else {
        r = eval_binop(e->op, a, b);
      }
      memo.emplace(e, r);
      return r;
    }
  }
  return 0;
}

void max_indices_memo(const ExprNode* e, int* max_input, int* max_unknown,
                      std::unordered_set<const ExprNode*>& seen) {
  switch (e->kind) {
    case ExprKind::kConst:
      return;
    case ExprKind::kInput:
      *max_input = std::max(*max_input, static_cast<int>(e->index));
      return;
    case ExprKind::kUnknown:
      *max_unknown = std::max(*max_unknown, static_cast<int>(e->index));
      return;
    case ExprKind::kBin:
      if (!seen.insert(e).second) return;
      max_indices_memo(e->lhs.get(), max_input, max_unknown, seen);
      max_indices_memo(e->rhs.get(), max_input, max_unknown, seen);
      return;
  }
}

}  // namespace

Value eval_expr(const Expr& e, const std::vector<Value>& inputs,
                const std::vector<Value>& unknowns) {
  std::unordered_map<const ExprNode*, Value> memo;
  return eval_memo(e.get(), inputs, unknowns, memo);
}

void max_indices(const Expr& e, int* max_input, int* max_unknown) {
  std::unordered_set<const ExprNode*> seen;
  max_indices_memo(e.get(), max_input, max_unknown, seen);
}

namespace {
std::string expr_to_string_depth(const ExprNode* e, int depth) {
  switch (e->kind) {
    case ExprKind::kConst:
      return std::to_string(e->cval);
    case ExprKind::kInput:
      return "in" + std::to_string(e->index);
    case ExprKind::kUnknown:
      return "sys" + std::to_string(e->index);
    case ExprKind::kBin:
      if (depth <= 0) return "(...)";  // DAGs can be huge; elide deep parts
      return "(" + expr_to_string_depth(e->lhs.get(), depth - 1) + " " +
             binop_name(e->op) + " " +
             expr_to_string_depth(e->rhs.get(), depth - 1) + ")";
  }
  return "?";
}
}  // namespace

std::string expr_to_string(const Expr& e) {
  return expr_to_string_depth(e.get(), 12);
}

std::string path_to_string(const PathConstraint& pc) {
  std::string s;
  for (const auto& lit : pc) {
    if (!s.empty()) s += " && ";
    s += (lit.expected ? "" : "!") + expr_to_string(lit.cond);
  }
  return s.empty() ? "true" : s;
}

}  // namespace softborg
