// solve_path against the frozen original search (csolver_oracle.h), and the
// interval properties the compiled search leans on: every interval operation
// is inclusion-monotone (a literal decided on a box stays decided on every
// sub-box) and holds the exact value of every point of its operands (a
// literal true on an all-singleton box is true at its point).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "common/rng.h"
#include "csolver_oracle.h"
#include "sym/csolver.h"
#include "sym/expr.h"
#include "sym/interval.h"

namespace softborg {
namespace {

using interval::Ival;

constexpr BinOp kAllOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul,
                             BinOp::kDiv, BinOp::kMod, BinOp::kLt,
                             BinOp::kLe,  BinOp::kEq,  BinOp::kNe};

Ival apply(BinOp op, Ival a, Ival b) {
  switch (op) {
    case BinOp::kAdd: return interval::iv_add(a, b);
    case BinOp::kSub: return interval::iv_sub(a, b);
    case BinOp::kMul: return interval::iv_mul(a, b);
    case BinOp::kDiv: return interval::iv_div(a, b);
    case BinOp::kMod: return interval::iv_mod(a, b);
    default: return interval::iv_cmp(op, a, b);
  }
}

// eval_expr's semantics for one operation: wrapping, x/0 and x%0 read as 0.
Value exact(BinOp op, Value a, Value b) {
  if ((op == BinOp::kDiv || op == BinOp::kMod) && b == 0) return 0;
  return eval_binop(op, a, b);
}

// Values that sit on the edges the interval operations special-case.
Value edge_value(Rng& rng) {
  static constexpr Value kEdges[] = {
      INT64_MIN, INT64_MIN + 1, -(Value{1} << 32), -1000, -2, -1, 0, 1, 2,
      3, 1000, Value{1} << 31, Value{1} << 32, INT64_MAX - 1, INT64_MAX};
  switch (rng.next_below(4)) {
    case 0:
      return kEdges[rng.next_below(std::size(kEdges))];
    case 1:
      return rng.next_in(-20, 20);
    case 2:
      return rng.next_in(-(Value{1} << 40), Value{1} << 40);
    default:
      return static_cast<Value>(rng());
  }
}

Ival random_ival(Rng& rng) {
  Value a = edge_value(rng), b = edge_value(rng);
  if (a > b) std::swap(a, b);
  return {a, b};
}

// A point of `iv`, often one of its ends.
Value point_in(Rng& rng, Ival iv) {
  switch (rng.next_below(4)) {
    case 0: return iv.lo;
    case 1: return iv.hi;
    default: {
      const std::uint64_t span = static_cast<std::uint64_t>(iv.hi) -
                                 static_cast<std::uint64_t>(iv.lo);
      const std::uint64_t off =
          span == UINT64_MAX ? rng() : rng.next_below(span + 1);
      return static_cast<Value>(static_cast<std::uint64_t>(iv.lo) + off);
    }
  }
}

Ival sub_ival(Rng& rng, Ival iv) {
  Value a = point_in(rng, iv), b = point_in(rng, iv);
  if (a > b) std::swap(a, b);
  return {a, b};
}

bool within(Ival inner, Ival outer) {
  return outer.lo <= inner.lo && inner.hi <= outer.hi;
}

std::string show(Ival iv) {
  return "[" + std::to_string(iv.lo) + ", " + std::to_string(iv.hi) + "]";
}

TEST(IntervalOps, InclusionMonotoneOnRandomSubBoxes) {
  Rng rng(20);
  for (int round = 0; round < 20'000; ++round) {
    const Ival a = random_ival(rng), b = random_ival(rng);
    const Ival a2 = sub_ival(rng, a), b2 = sub_ival(rng, b);
    for (const BinOp op : kAllOps) {
      const Ival outer = apply(op, a, b);
      const Ival inner = apply(op, a2, b2);
      ASSERT_LE(inner.lo, inner.hi);
      ASSERT_TRUE(within(inner, outer))
          << binop_name(op) << " on " << show(a2) << " " << show(b2)
          << " gave " << show(inner) << ", outside " << show(outer)
          << " on " << show(a) << " " << show(b);
    }
  }
}

TEST(IntervalOps, HoldTheExactValueOfEveryPoint) {
  Rng rng(21);
  for (int round = 0; round < 20'000; ++round) {
    const Ival a = random_ival(rng), b = random_ival(rng);
    const Value x = point_in(rng, a), y = point_in(rng, b);
    for (const BinOp op : kAllOps) {
      const Ival r = apply(op, a, b);
      const Value v = exact(op, x, y);
      ASSERT_TRUE(r.lo <= v && v <= r.hi)
          << x << " " << binop_name(op) << " " << y << " = " << v
          << " lies outside " << show(r) << " on " << show(a) << " "
          << show(b);
    }
  }
}

TEST(IntervalOps, DivisionByMinusOneOfAnOverflowedDividendWidens) {
  // An overflowed product reaches INT64_MIN; the corner INT64_MIN / -1 must
  // widen to the full interval, not trap.
  const Ival r = interval::iv_div({INT64_MIN, 5}, {-10, -1});
  EXPECT_EQ(r.lo, INT64_MIN);
  EXPECT_EQ(r.hi, INT64_MAX);
  const Ival q = interval::iv_div({-100, 5}, {-10, -1});
  EXPECT_EQ(q.lo, -5);
  EXPECT_EQ(q.hi, 100);
}

// ------------------------------------------------- random path queries -----

struct Query {
  PathConstraint pc;
  std::vector<VarDomain> inputs;
  std::vector<VarDomain> unknowns;
  SolverOptions options;
};

VarDomain narrow_domain(Rng& rng) {
  const Value lo = rng.next_in(-12, 12);
  return {lo, lo + rng.next_in(0, 15)};
}

VarDomain wide_domain(Rng& rng) {
  static constexpr VarDomain kWide[] = {
      {INT64_MIN, INT64_MAX},
      {-(Value{1} << 40), Value{1} << 40},
      {0, Value{1} << 62},
      {INT64_MIN, 0},
      {-1'000'000, 1'000'000}};
  return kWide[rng.next_below(std::size(kWide))];
}

Value small_const(Rng& rng) {
  static constexpr Value kNearZero[] = {-2, -1, 0, 1, 2};
  if (rng.next_bool(0.3)) return kNearZero[rng.next_below(5)];
  if (rng.next_bool(0.1)) return rng.next_bool() ? INT64_MIN : INT64_MAX;
  return rng.next_in(-40, 40);
}

// A random DAG over the query's variables: each new node picks its operands
// from everything built so far, so subterms are shared. Divisors are often
// `v - c` with c inside v's domain, so they straddle 0 and -1; products of
// products overflow on the wide domains.
std::vector<Expr> random_dag(Rng& rng, const Query& q, int nodes) {
  std::vector<Expr> pool;
  for (std::uint32_t i = 0; i < q.inputs.size(); ++i) {
    pool.push_back(make_input(i));
  }
  for (std::uint32_t j = 0; j < q.unknowns.size(); ++j) {
    pool.push_back(make_unknown(j));
  }
  const std::size_t num_vars = pool.size();
  for (int n = 0; n < nodes; ++n) {
    const BinOp op = kAllOps[rng.next_below(std::size(kAllOps))];
    const Expr lhs = pool[rng.next_below(pool.size())];
    Expr rhs = rng.next_bool(0.3) ? make_const(small_const(rng))
                                  : pool[rng.next_below(pool.size())];
    if ((op == BinOp::kDiv || op == BinOp::kMod) && rng.next_bool(0.6)) {
      const std::size_t v = rng.next_below(num_vars);
      const VarDomain d = v < q.inputs.size()
                              ? q.inputs[v]
                              : q.unknowns[v - q.inputs.size()];
      const bool below = rng.next_bool(0.5) && d.lo > INT64_MIN;
      const Value c = d.lo + rng.next_in(0, 2) - (below ? 1 : 0);
      rhs = make_bin(BinOp::kSub, pool[v], make_const(c));
    }
    if (op == BinOp::kMul && rng.next_bool(0.2)) {
      pool.push_back(make_bin(BinOp::kMul, lhs, lhs));  // x*x, then x^4, ...
      continue;
    }
    pool.push_back(make_bin(op, lhs, rhs));
  }
  pool.erase(pool.begin(),
             pool.begin() + static_cast<std::ptrdiff_t>(num_vars));
  return pool;
}

constexpr std::uint64_t kBudgets[] = {1,   2,    3,    4,     7,      16,
                                      64,  300,  1000, 5000,  20'000, 200'000};

Query random_query(Rng& rng) {
  Query q;
  const bool wide = rng.next_bool(0.3);
  const int n_inputs = static_cast<int>(rng.next_in(1, 3));
  const int n_unknowns = static_cast<int>(rng.next_in(0, 2));
  for (int i = 0; i < n_inputs; ++i) {
    q.inputs.push_back(wide && rng.next_bool(0.5) ? wide_domain(rng)
                                                  : narrow_domain(rng));
  }
  for (int j = 0; j < n_unknowns; ++j) {
    // Syscall results: often the full int64 range.
    q.unknowns.push_back(wide ? wide_domain(rng) : narrow_domain(rng));
  }
  const std::vector<Expr> dag =
      random_dag(rng, q, static_cast<int>(rng.next_in(1, 14)));
  const int n_literals = static_cast<int>(rng.next_in(1, 5));
  for (int l = 0; l < n_literals; ++l) {
    // Prefer the later (larger) nodes; sometimes compare with a constant.
    const std::size_t pick =
        dag.size() - 1 - rng.next_below(std::min<std::size_t>(dag.size(), 4));
    Expr cond = dag[pick];
    if (rng.next_bool(0.5)) {
      static constexpr BinOp kCmp[] = {BinOp::kLt, BinOp::kLe, BinOp::kEq,
                                       BinOp::kNe};
      cond = make_bin(kCmp[rng.next_below(4)], cond,
                      make_const(small_const(rng)));
    }
    q.pc.push_back({cond, rng.next_bool(0.6)});
  }
  if (rng.next_bool(0.3)) {
    // input_hull's probe shape: the constraint plus lo <= x <= hi.
    const std::uint32_t x =
        static_cast<std::uint32_t>(rng.next_below(q.inputs.size()));
    const VarDomain d = q.inputs[x];
    Value lo = d.lo, hi = d.hi;
    const std::uint64_t span =
        static_cast<std::uint64_t>(d.hi) - static_cast<std::uint64_t>(d.lo);
    if (span > 0) {
      const auto mid =
          static_cast<Value>(static_cast<std::uint64_t>(d.lo) + span / 2);
      if (rng.next_bool()) hi = mid; else lo = mid;
    }
    const Expr var = make_input(x);
    q.pc.push_back({make_bin(BinOp::kLe, make_const(lo), var), true});
    q.pc.push_back({make_bin(BinOp::kLe, var, make_const(hi)), true});
  }
  if (rng.next_bool(0.1)) {
    // A variable past the declared domains defaults to [0, 0].
    q.pc.push_back({make_bin(BinOp::kLe, make_unknown(3),
                             make_input(static_cast<std::uint32_t>(n_inputs))),
                    true});
  }
  // Wide boxes can search long: keep their budgets small.
  const std::size_t budgets = wide ? std::size(kBudgets) - 3
                                   : std::size(kBudgets);
  q.options.max_nodes = kBudgets[rng.next_below(budgets)];
  return q;
}

// Status, node count and model must all match the oracle's.
void expect_same(const Query& q, const std::string& where,
                 SolveStatus* status = nullptr) {
  const SolveResult got = solve_path(q.pc, q.inputs, q.unknowns, q.options);
  const SolveResult want =
      solve_path_oracle(q.pc, q.inputs, q.unknowns, q.options);
  ASSERT_EQ(solve_status_name(got.status), solve_status_name(want.status))
      << where << ": " << path_to_string(q.pc);
  ASSERT_EQ(got.nodes, want.nodes) << where << ": " << path_to_string(q.pc);
  ASSERT_EQ(got.model, want.model) << where << ": " << path_to_string(q.pc);
  if (got.status == SolveStatus::kSat) {
    ASSERT_TRUE(satisfies(q.pc, got.model)) << where;
  }
  if (status != nullptr) *status = got.status;
}

TEST(CSolverDiff, MatchesTheSeedSearchOnRandomQueries) {
  Rng rng(2011);
  int decided = 0, cut = 0;
  for (int i = 0; i < 6000; ++i) {
    SolveStatus status = SolveStatus::kUnknown;
    expect_same(random_query(rng), "query " + std::to_string(i), &status);
    if (HasFatalFailure()) return;
    (status == SolveStatus::kUnknown ? cut : decided) += 1;
  }
  // The mix must exercise both budget cut-offs and decisions.
  EXPECT_GT(cut, 300);
  EXPECT_GT(decided, 3000);
}

TEST(CSolverDiff, MatchesTheSeedSearchOnOverflowingQuotients) {
  // x*x*x*x / (y - c) < k: the product overflows to the full interval,
  // and y - c reaches -1 and 0 as c moves across y's domain.
  const Expr x = make_input(0), y = make_input(1);
  const Expr x2 = make_bin(BinOp::kMul, x, x);
  const Expr x4 = make_bin(BinOp::kMul, x2, x2);
  for (Value c = -3; c <= 3; ++c) {
    for (const BinOp op : {BinOp::kDiv, BinOp::kMod}) {
      for (const bool expected : {true, false}) {
        Query q;
        q.inputs = {{0, 1'000'000}, {-10, -1}};
        const Expr quotient =
            make_bin(op, x4, make_bin(BinOp::kSub, y, make_const(c)));
        q.pc.push_back(
            {make_bin(BinOp::kLt, quotient, make_const(5)), expected});
        q.options.max_nodes = 20'000;
        expect_same(q, "c=" + std::to_string(c));
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace softborg
