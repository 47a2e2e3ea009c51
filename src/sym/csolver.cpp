#include "sym/csolver.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/check.h"
#include "sym/interval.h"

namespace softborg {

namespace {

using interval::Ival;

// One query's path constraint, compiled once: one slot per distinct DAG node,
// children before parents, read by index. Variables are flat: input i is
// variable i and unknown j is variable num_inputs + j.
struct Tape {
  enum class Kind : std::uint8_t { kConst, kVar, kBin };
  struct Slot {
    Kind kind = Kind::kConst;
    BinOp op = BinOp::kAdd;      // kBin
    std::uint32_t lhs = 0;       // kBin: left child slot; kVar: variable
    std::uint32_t rhs = 0;       // kBin: right child slot
    Value cval = 0;              // kConst
  };
  struct Root {
    std::uint32_t slot = 0;
    bool expected = true;
  };

  std::vector<Slot> slots;
  std::vector<Root> roots;  // one per literal, in constraint order
  std::size_t num_inputs = 0;
  std::size_t num_unknowns = 0;
};

// One walk over the DAG interns each distinct node and finds the highest
// input and unknown index; the variable count covers both the declared
// domains and every variable the constraint mentions.
Tape compile(const PathConstraint& pc, std::size_t declared_inputs,
             std::size_t declared_unknowns) {
  Tape tape;
  tape.num_inputs = declared_inputs;
  tape.num_unknowns = declared_unknowns;
  std::vector<bool> is_unknown;  // per slot: a kVar still holding ordinal j
  std::unordered_map<const ExprNode*, std::uint32_t> slot_of;
  std::vector<const ExprNode*> stack;
  for (const auto& lit : pc) {
    stack.push_back(lit.cond.get());
    while (!stack.empty()) {
      const ExprNode* e = stack.back();
      if (slot_of.count(e) != 0) {
        stack.pop_back();
        continue;
      }
      Tape::Slot slot;
      bool unknown = false;
      switch (e->kind) {
        case ExprKind::kConst:
          slot.cval = e->cval;
          break;
        case ExprKind::kInput:
          slot.kind = Tape::Kind::kVar;
          slot.lhs = e->index;
          tape.num_inputs =
              std::max<std::size_t>(tape.num_inputs, e->index + std::size_t{1});
          break;
        case ExprKind::kUnknown:
          slot.kind = Tape::Kind::kVar;
          slot.lhs = e->index;
          unknown = true;
          tape.num_unknowns = std::max<std::size_t>(tape.num_unknowns,
                                                    e->index + std::size_t{1});
          break;
        case ExprKind::kBin: {
          const auto l = slot_of.find(e->lhs.get());
          const auto r = slot_of.find(e->rhs.get());
          if (l == slot_of.end() || r == slot_of.end()) {
            // Children first; this node is revisited once they are interned.
            if (l == slot_of.end()) stack.push_back(e->lhs.get());
            if (r == slot_of.end()) stack.push_back(e->rhs.get());
            continue;
          }
          slot.kind = Tape::Kind::kBin;
          slot.op = e->op;
          slot.lhs = l->second;
          slot.rhs = r->second;
          break;
        }
      }
      slot_of.emplace(e, static_cast<std::uint32_t>(tape.slots.size()));
      tape.slots.push_back(slot);
      is_unknown.push_back(unknown);
      stack.pop_back();
    }
    tape.roots.push_back({slot_of.at(lit.cond.get()), lit.expected});
  }
  for (std::size_t s = 0; s < tape.slots.size(); ++s) {
    if (is_unknown[s]) {
      tape.slots[s].lhs += static_cast<std::uint32_t>(tape.num_inputs);
    }
  }
  return tape;
}

enum class LitState { kTrue, kFalse, kUndecided };

LitState literal_state(Ival v, bool expected) {
  const bool definitely_nonzero = v.lo > 0 || v.hi < 0;
  const bool definitely_zero = v.lo == 0 && v.hi == 0;
  if (expected) {
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
  Search(const Tape& tape, std::vector<Ival> vars,
         const SolverOptions& options)
      : tape_(tape),
        options_(options),
        vars_(std::move(vars)),
        ival_(tape.slots.size()),
        ival_epoch_(tape.slots.size(), 0),
        point_(tape.slots.size(), 0),
        point_epoch_(tape.slots.size(), 0) {}

  SolveResult run() {
    carried_.resize(tape_.roots.size());
    std::iota(carried_.begin(), carried_.end(), std::uint32_t{0});
    result_.status = descend(0, carried_.size());
    result_.nodes = nodes_;
    return result_;
  }

 private:
  // Decides the box against the literals carried_[begin, end): the ones the
  // parent box left undecided. Interval evaluation is inclusion-monotone, so
  // a literal true on the parent box is true here too and is not evaluated
  // again; the first false literal still ends the node, so node order and
  // count match a search that evaluates every literal at every node.
  SolveStatus descend(std::size_t begin, std::size_t end) {
    if (++nodes_ > options_.max_nodes) return SolveStatus::kUnknown;

    ++epoch_;  // invalidates every slot memoized for another box
    const std::size_t mine = carried_.size();
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t lit = carried_[k];
      const Tape::Root& root = tape_.roots[lit];
      switch (literal_state(eval(root.slot), root.expected)) {
        case LitState::kFalse:
          carried_.resize(mine);
          return SolveStatus::kUnsat;
        case LitState::kUndecided:
          carried_.push_back(lit);
          break;
        case LitState::kTrue:
          break;
      }
    }
    const std::size_t undecided = carried_.size();
    const SolveStatus status = undecided == mine
                                   ? take_low_corner()
                                   : split(mine, undecided);
    carried_.resize(mine);
    return status;
  }

  SolveStatus split(std::size_t begin, std::size_t end) {
    // Split the widest non-singleton variable.
    std::size_t widest = vars_.size();
    std::uint64_t widest_span = 0;
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      const std::uint64_t span = static_cast<std::uint64_t>(vars_[v].hi) -
                                 static_cast<std::uint64_t>(vars_[v].lo);
      if (span > widest_span) {
        widest_span = span;
        widest = v;
      }
    }
    if (widest == vars_.size()) return decide_point(begin, end);

    const Ival saved = vars_[widest];
    const Value mid = saved.lo + static_cast<Value>(widest_span / 2);

    vars_[widest] = {saved.lo, mid};
    SolveStatus status = descend(begin, end);
    if (status == SolveStatus::kUnsat) {
      vars_[widest] = {mid + 1, saved.hi};
      status = descend(begin, end);
    }
    vars_[widest] = saved;
    return status;  // kSat or kUnknown stop the search
  }

  // All singletons yet some literal undecided: interval arithmetic was too
  // coarse (e.g. widened div). Decide the point exactly. Only the carried
  // literals need it: interval evaluation holds every point's exact value,
  // so a literal true on this box is true at its one point.
  SolveStatus decide_point(std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const Tape::Root& root = tape_.roots[carried_[k]];
      if ((eval_point(root.slot) != 0) != root.expected) {
        return SolveStatus::kUnsat;
      }
    }
    return take_low_corner();
  }

  // Every point of the box satisfies the constraint; take the low corner.
  SolveStatus take_low_corner() {
    for (std::size_t v = 0; v < vars_.size(); ++v) {
      auto& values = v < tape_.num_inputs ? result_.model.inputs
                                          : result_.model.unknowns;
      values.push_back(vars_[v].lo);
    }
    return SolveStatus::kSat;
  }

  // Interval value of slot `s` on the current box, memoized per node.
  Ival eval(std::uint32_t s) {
    const Tape::Slot& slot = tape_.slots[s];
    switch (slot.kind) {
      case Tape::Kind::kConst:
        return {slot.cval, slot.cval};
      case Tape::Kind::kVar:
        return vars_[slot.lhs];
      case Tape::Kind::kBin:
        break;
    }
    if (ival_epoch_[s] == epoch_) return ival_[s];
    const Ival a = eval(slot.lhs);
    const Ival b = eval(slot.rhs);
    Ival r;
    switch (slot.op) {
      case BinOp::kAdd: r = interval::iv_add(a, b); break;
      case BinOp::kSub: r = interval::iv_sub(a, b); break;
      case BinOp::kMul: r = interval::iv_mul(a, b); break;
      case BinOp::kDiv: r = interval::iv_div(a, b); break;
      case BinOp::kMod: r = interval::iv_mod(a, b); break;
      default: r = interval::iv_cmp(slot.op, a, b); break;
    }
    ival_[s] = r;
    ival_epoch_[s] = epoch_;
    return r;
  }

  // Exact value of slot `s` at the box's low corner, with eval_expr's
  // semantics: values wrap, and division or modulo by zero reads as 0.
  Value eval_point(std::uint32_t s) {
    const Tape::Slot& slot = tape_.slots[s];
    switch (slot.kind) {
      case Tape::Kind::kConst:
        return slot.cval;
      case Tape::Kind::kVar:
        return vars_[slot.lhs].lo;
      case Tape::Kind::kBin:
        break;
    }
    if (point_epoch_[s] == epoch_) return point_[s];
    const Value a = eval_point(slot.lhs);
    const Value b = eval_point(slot.rhs);
    const bool by_zero =
        (slot.op == BinOp::kDiv || slot.op == BinOp::kMod) && b == 0;
    const Value r = by_zero ? 0 : eval_binop(slot.op, a, b);
    point_[s] = r;
    point_epoch_[s] = epoch_;
    return r;
  }

  const Tape& tape_;
  const SolverOptions& options_;
  std::vector<Ival> vars_;  // the current box
  // Per-slot memos, valid for the slots whose epoch equals epoch_ (one
  // epoch per node; a node evaluates its point only when it cannot split).
  std::vector<Ival> ival_;
  std::vector<std::uint64_t> ival_epoch_;
  std::vector<Value> point_;
  std::vector<std::uint64_t> point_epoch_;
  std::uint64_t epoch_ = 0;
  // Undecided literal indices: each node's list sits on top of its parent's.
  std::vector<std::uint32_t> carried_;
  SolveResult result_;
  std::uint64_t nodes_ = 0;
};

}  // namespace

const char* solve_status_name(SolveStatus s) {
  switch (s) {
    case SolveStatus::kSat: return "sat";
    case SolveStatus::kUnsat: return "unsat";
    case SolveStatus::kUnknown: return "unknown";
  }
  return "?";
}

SolveResult solve_path(const PathConstraint& pc,
                       const std::vector<VarDomain>& input_domains,
                       const std::vector<VarDomain>& unknown_domains,
                       const SolverOptions& options) {
  const Tape tape =
      compile(pc, input_domains.size(), unknown_domains.size());

  std::vector<Ival> box;
  box.reserve(tape.num_inputs + tape.num_unknowns);
  auto push = [&box](const std::vector<VarDomain>& domains, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const VarDomain d = i < domains.size() ? domains[i] : VarDomain{0, 0};
      SB_CHECK(d.lo <= d.hi);
      box.push_back({d.lo, d.hi});
    }
  };
  push(input_domains, tape.num_inputs);
  push(unknown_domains, tape.num_unknowns);

  Search search(tape, std::move(box), options);
  return search.run();
}

bool satisfies(const PathConstraint& pc, const Assignment& assignment) {
  for (const auto& lit : pc) {
    const Value v = eval_expr(lit.cond, assignment.inputs, assignment.unknowns);
    if ((v != 0) != lit.expected) return false;
  }
  return true;
}

}  // namespace softborg
