#include "csolver_oracle.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "sym/interval.h"

namespace softborg {

namespace {

using namespace interval;

struct Box {
  std::vector<Ival> inputs;
  std::vector<Ival> unknowns;
};

// Expressions are DAGs (register reuse shares subtrees): memoize on node
// identity per box evaluation or this walk goes exponential.
using IvalMemo = std::unordered_map<const ExprNode*, Ival>;

Ival eval_interval(const ExprNode* e, const Box& box, IvalMemo& memo) {
  switch (e->kind) {
    case ExprKind::kConst:
      return {e->cval, e->cval};
    case ExprKind::kInput:
      return e->index < box.inputs.size() ? box.inputs[e->index] : Ival{0, 0};
    case ExprKind::kUnknown:
      return e->index < box.unknowns.size() ? box.unknowns[e->index]
                                            : Ival{0, 0};
    case ExprKind::kBin: {
      auto it = memo.find(e);
      if (it != memo.end()) return it->second;
      const Ival a = eval_interval(e->lhs.get(), box, memo);
      const Ival b = eval_interval(e->rhs.get(), box, memo);
      Ival r;
      switch (e->op) {
        case BinOp::kAdd: r = iv_add(a, b); break;
        case BinOp::kSub: r = iv_sub(a, b); break;
        case BinOp::kMul: r = iv_mul(a, b); break;
        case BinOp::kDiv: r = iv_div(a, b); break;
        case BinOp::kMod: r = iv_mod(a, b); break;
        default: r = iv_cmp(e->op, a, b); break;
      }
      memo.emplace(e, r);
      return r;
    }
  }
  return kTop;
}

enum class LitState { kTrue, kFalse, kUndecided };

LitState literal_state(const Literal& lit, const Box& box, IvalMemo& memo) {
  const Ival v = eval_interval(lit.cond.get(), box, memo);
  const bool definitely_nonzero = v.lo > 0 || v.hi < 0;
  const bool definitely_zero = v.lo == 0 && v.hi == 0;
  if (lit.expected) {
    if (definitely_nonzero) return LitState::kTrue;
    if (definitely_zero) return LitState::kFalse;
  } else {
    if (definitely_zero) return LitState::kTrue;
    if (definitely_nonzero) return LitState::kFalse;
  }
  return LitState::kUndecided;
}

class Search {
 public:
  Search(const PathConstraint& pc, const SolverOptions& options)
      : pc_(pc), options_(options) {}

  SolveResult run(Box box) {
    result_.status = descend(box);
    result_.nodes = nodes_;
    return result_;
  }

 private:
  SolveStatus descend(Box& box) {
    if (++nodes_ > options_.max_nodes) return SolveStatus::kUnknown;

    bool all_true = true;
    IvalMemo memo;  // shared across this box's literals
    for (const auto& lit : pc_) {
      switch (literal_state(lit, box, memo)) {
        case LitState::kFalse:
          return SolveStatus::kUnsat;
        case LitState::kUndecided:
          all_true = false;
          break;
        case LitState::kTrue:
          break;
      }
    }
    if (all_true) {
      extract_model(box);
      return SolveStatus::kSat;
    }

    // Split the widest non-singleton variable.
    Ival* widest = nullptr;
    std::uint64_t widest_span = 0;
    for (auto* vars : {&box.inputs, &box.unknowns}) {
      for (auto& iv : *vars) {
        const std::uint64_t span = static_cast<std::uint64_t>(iv.hi) -
                                   static_cast<std::uint64_t>(iv.lo);
        if (span > widest_span) {
          widest_span = span;
          widest = &iv;
        }
      }
    }
    if (widest == nullptr) {
      // All singletons yet some literal undecided: interval arithmetic was
      // too coarse (e.g. widened div). Decide exactly.
      Assignment a = box_point(box);
      if (satisfies(pc_, a)) {
        result_.model = std::move(a);
        return SolveStatus::kSat;
      }
      return SolveStatus::kUnsat;
    }

    const Ival saved = *widest;
    const Value mid = saved.lo + static_cast<Value>(widest_span / 2);

    *widest = {saved.lo, mid};
    const SolveStatus left = descend(box);
    if (left != SolveStatus::kUnsat) {
      *widest = saved;
      return left;  // kSat or kUnknown
    }
    *widest = {mid + 1, saved.hi};
    const SolveStatus right = descend(box);
    *widest = saved;
    return right;
  }

  static Assignment box_point(const Box& box) {
    Assignment a;
    for (const auto& iv : box.inputs) a.inputs.push_back(iv.lo);
    for (const auto& iv : box.unknowns) a.unknowns.push_back(iv.lo);
    return a;
  }

  void extract_model(const Box& box) {
    // Every point of the box satisfies the constraint; take the low corner.
    result_.model = box_point(box);
  }

  const PathConstraint& pc_;
  const SolverOptions& options_;
  SolveResult result_;
  std::uint64_t nodes_ = 0;
};

}  // namespace

SolveResult solve_path_oracle(const PathConstraint& pc,
                              const std::vector<VarDomain>& input_domains,
                              const std::vector<VarDomain>& unknown_domains,
                              const SolverOptions& options) {
  // Size the box to cover both the declared domains and every variable the
  // constraint mentions.
  int max_input = -1, max_unknown = -1;
  for (const auto& lit : pc) max_indices(lit.cond, &max_input, &max_unknown);

  Box box;
  const std::size_t n_inputs = std::max<std::size_t>(
      input_domains.size(), static_cast<std::size_t>(max_input + 1));
  const std::size_t n_unknowns = std::max<std::size_t>(
      unknown_domains.size(), static_cast<std::size_t>(max_unknown + 1));
  for (std::size_t i = 0; i < n_inputs; ++i) {
    const VarDomain d =
        i < input_domains.size() ? input_domains[i] : VarDomain{0, 0};
    SB_CHECK(d.lo <= d.hi);
    box.inputs.push_back({d.lo, d.hi});
  }
  for (std::size_t j = 0; j < n_unknowns; ++j) {
    const VarDomain d =
        j < unknown_domains.size() ? unknown_domains[j] : VarDomain{0, 0};
    SB_CHECK(d.lo <= d.hi);
    box.unknowns.push_back({d.lo, d.hi});
  }

  Search search(pc, options);
  return search.run(std::move(box));
}

}  // namespace softborg
