// Interval arithmetic over MiniVM values (private to the sym layer).
//
// Each operation returns an interval that holds the operation's wrapped
// MiniVM result for every pair of points in its operand intervals, and any
// operation that could wrap returns the full int64 interval (kTop). Every
// operation is also inclusion-monotone: sub-intervals of its operands give a
// sub-interval of its result. The constraint solver leans on both: the first
// makes pruning sound, the second lets a literal decided on a box stay
// decided on every sub-box.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "common/check.h"
#include "sym/expr.h"

namespace softborg::interval {

struct Ival {
  Value lo = 0;
  Value hi = 0;

  bool singleton() const { return lo == hi; }
  bool contains_zero() const { return lo <= 0 && 0 <= hi; }
};

inline constexpr Ival kTop{INT64_MIN, INT64_MAX};

// Exact i128 helpers; widen to kTop when the result cannot be represented.
inline bool fits(__int128 v) { return v >= INT64_MIN && v <= INT64_MAX; }

inline Ival iv_from(__int128 lo, __int128 hi) {
  if (!fits(lo) || !fits(hi)) return kTop;
  return {static_cast<Value>(lo), static_cast<Value>(hi)};
}

inline Ival iv_add(Ival a, Ival b) {
  return iv_from(static_cast<__int128>(a.lo) + b.lo,
                 static_cast<__int128>(a.hi) + b.hi);
}

inline Ival iv_sub(Ival a, Ival b) {
  return iv_from(static_cast<__int128>(a.lo) - b.hi,
                 static_cast<__int128>(a.hi) - b.lo);
}

inline Ival iv_mul(Ival a, Ival b) {
  const __int128 products[4] = {
      static_cast<__int128>(a.lo) * b.lo, static_cast<__int128>(a.lo) * b.hi,
      static_cast<__int128>(a.hi) * b.lo, static_cast<__int128>(a.hi) * b.hi};
  __int128 lo = products[0], hi = products[0];
  for (auto p : products) {
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  return iv_from(lo, hi);
}

inline Ival iv_div(Ival a, Ival b) {
  if (b.contains_zero()) return kTop;  // conservative
  // Corners in i128: INT64_MIN / -1 is 2^63 there, which does not fit and
  // widens to kTop (covering MiniVM's defined INT64_MIN result) instead of
  // trapping as the int64 division would.
  const __int128 quotients[4] = {static_cast<__int128>(a.lo) / b.lo,
                                 static_cast<__int128>(a.lo) / b.hi,
                                 static_cast<__int128>(a.hi) / b.lo,
                                 static_cast<__int128>(a.hi) / b.hi};
  __int128 lo = quotients[0], hi = quotients[0];
  for (auto q : quotients) {
    lo = std::min(lo, q);
    hi = std::max(hi, q);
  }
  return iv_from(lo, hi);
}

inline Ival iv_mod(Ival a, Ival b) {
  if (b.contains_zero()) return kTop;  // conservative
  const Value m =
      std::max(b.hi == INT64_MIN ? INT64_MAX : std::abs(b.hi),
               b.lo == INT64_MIN ? INT64_MAX : std::abs(b.lo));
  if (m == INT64_MAX) return kTop;
  if (a.lo >= 0) return {0, std::min(a.hi, m - 1)};
  return {-(m - 1), m - 1};
}

inline Ival iv_cmp(BinOp op, Ival a, Ival b) {
  auto certainly = [](bool v) { return Ival{v, v}; };
  switch (op) {
    case BinOp::kLt:
      if (a.hi < b.lo) return certainly(true);
      if (a.lo >= b.hi) return certainly(false);
      return {0, 1};
    case BinOp::kLe:
      if (a.hi <= b.lo) return certainly(true);
      if (a.lo > b.hi) return certainly(false);
      return {0, 1};
    case BinOp::kEq:
      if (a.singleton() && b.singleton() && a.lo == b.lo) {
        return certainly(true);
      }
      if (a.hi < b.lo || b.hi < a.lo) return certainly(false);
      return {0, 1};
    case BinOp::kNe:
      if (a.singleton() && b.singleton() && a.lo == b.lo) {
        return certainly(false);
      }
      if (a.hi < b.lo || b.hi < a.lo) return certainly(true);
      return {0, 1};
    default:
      SB_CHECK(false);
  }
  return {0, 1};
}

}  // namespace softborg::interval
