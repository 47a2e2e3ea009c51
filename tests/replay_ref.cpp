// The pre-unification hive replayer, frozen verbatim as the differential
// baseline for replay on the interpreter core (src/minivm/interp.cpp). Do
// not edit it: its value is that it is the second, independent MiniVM
// engine the core's replay mode must stay identical to
// (tests/replay_diff_test.cpp).
#include "replay_ref.h"

#include <algorithm>
#include <deque>
#include <optional>

namespace softborg {

namespace {

Value wrap_add(Value a, Value b) {
  return static_cast<Value>(static_cast<std::uint64_t>(a) +
                            static_cast<std::uint64_t>(b));
}
Value wrap_sub(Value a, Value b) {
  return static_cast<Value>(static_cast<std::uint64_t>(a) -
                            static_cast<std::uint64_t>(b));
}
Value wrap_mul(Value a, Value b) {
  return static_cast<Value>(static_cast<std::uint64_t>(a) *
                            static_cast<std::uint64_t>(b));
}

// Three-valued register: a concrete value, or "unknown" (derived from a
// program-external event whose value the hive never sees).
struct MaybeVal {
  Value v = 0;
  bool known = true;
};

struct ThreadR {
  std::uint32_t pc = 0;
  std::vector<MaybeVal> regs;
  bool halted = false;
  std::optional<std::uint16_t> blocked_on;
  std::vector<std::uint16_t> held;

  bool runnable() const { return !halted && !blocked_on; }
};

struct LockR {
  int owner = -1;
  std::deque<std::uint8_t> waiters;
};

class Replayer {
 public:
  Replayer(const Program& p, const Trace& t) : p_(p), t_(t) {
    threads_.resize(p.num_threads());
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      threads_[i].pc = p.thread_entries[i];
      threads_[i].regs.assign(p.num_regs, MaybeVal{});
    }
    globals_.assign(p.num_globals, MaybeVal{});
    locks_.resize(p.num_locks);
    record_all_ = t.granularity == Granularity::kAllBranches ||
                  t.granularity == Granularity::kFull;
  }

  ReferenceReplayResult run();

 private:
  bool step(std::uint8_t t);  // false => stop (error or recorded crash)
  void fail(const std::string& msg) {
    if (result_.error.empty()) result_.error = msg;
    failed_ = true;
  }
  bool next_bit(bool* bit) {
    if (bit_pos_ >= t_.branch_bits.size()) {
      fail("trace bit-vector exhausted");
      return false;
    }
    *bit = t_.branch_bits[bit_pos_++];
    return true;
  }
  // Recorded crash at this pc ends the replay successfully. The crash site
  // can be visited many times before the failing occurrence (e.g. a div in
  // a loop), so the recorded crash is only accepted on the *final* recorded
  // step — the crashing instruction was the last one executed.
  bool crash_recorded_here(std::uint32_t pc, CrashKind kind) const {
    return t_.outcome == Outcome::kCrash && t_.crash.has_value() &&
           t_.crash->pc == pc && t_.crash->kind == kind && steps_ == t_.steps;
  }

  const Program& p_;
  const Trace& t_;
  std::vector<ThreadR> threads_;
  std::vector<MaybeVal> globals_;
  std::vector<LockR> locks_;
  std::size_t bit_pos_ = 0;
  std::uint64_t steps_ = 0;
  bool record_all_ = false;
  bool failed_ = false;
  bool finished_ = false;  // reached recorded terminal condition
  ReferenceReplayResult result_;
};

bool Replayer::step(std::uint8_t t) {
  ThreadR& th = threads_[t];
  if (th.halted) {
    fail("schedule names a halted thread");
    return false;
  }
  if (th.blocked_on) {
    fail("schedule names a blocked thread");
    return false;
  }
  const Instr& ins = p_.at(th.pc);
  auto& regs = th.regs;

  switch (ins.op) {
    case Op::kConst:
      regs[ins.a] = {ins.imm, true};
      th.pc++;
      break;
    case Op::kMov:
      regs[ins.a] = regs[ins.b];
      th.pc++;
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kCmpLt:
    case Op::kCmpLe:
    case Op::kCmpEq:
    case Op::kCmpNe: {
      const MaybeVal x = regs[ins.b], y = regs[ins.c];
      MaybeVal r;
      r.known = x.known && y.known;
      if (r.known) {
        switch (ins.op) {
          case Op::kAdd: r.v = wrap_add(x.v, y.v); break;
          case Op::kSub: r.v = wrap_sub(x.v, y.v); break;
          case Op::kMul: r.v = wrap_mul(x.v, y.v); break;
          case Op::kCmpLt: r.v = x.v < y.v; break;
          case Op::kCmpLe: r.v = x.v <= y.v; break;
          case Op::kCmpEq: r.v = x.v == y.v; break;
          case Op::kCmpNe: r.v = x.v != y.v; break;
          default: break;
        }
      }
      regs[ins.a] = r;
      th.pc++;
      break;
    }
    case Op::kDiv:
    case Op::kMod: {
      const MaybeVal x = regs[ins.b], y = regs[ins.c];
      if (!y.known) {
        // Data-dependent crash check: its survive/crash decision is in the
        // trace, exactly like an input-dependent branch.
        bool survived;
        if (!next_bit(&survived)) return false;
        result_.decisions.push_back({ins.site, survived, true, t});
        if (!survived) {
          if (crash_recorded_here(th.pc, CrashKind::kDivByZero)) {
            finished_ = true;
            return false;
          }
          fail("crash decision recorded but trace has no matching crash");
          return false;
        }
        regs[ins.a] = {0, false};
        th.pc++;
        break;
      }
      if (record_all_) {
        bool recorded;
        if (!next_bit(&recorded)) return false;
        if (recorded != (y.v != 0)) {
          fail("deterministic check direction mismatch");
          return false;
        }
      }
      if (y.v == 0) {
        if (crash_recorded_here(th.pc, CrashKind::kDivByZero)) {
          finished_ = true;
          return false;
        }
        fail("deterministic div-by-zero not recorded in trace");
        return false;
      }
      MaybeVal r;
      r.known = x.known;
      if (r.known) {
        if (ins.op == Op::kDiv) {
          r.v = (x.v == INT64_MIN && y.v == -1) ? INT64_MIN : x.v / y.v;
        } else {
          r.v = (x.v == INT64_MIN && y.v == -1) ? 0 : x.v % y.v;
        }
      }
      regs[ins.a] = r;
      th.pc++;
      break;
    }
    case Op::kBranchIf: {
      const MaybeVal cond = regs[ins.a];
      bool dir;
      if (!cond.known) {
        // Input-dependent branch: direction comes from the trace.
        if (!next_bit(&dir)) return false;
        result_.decisions.push_back({ins.site, dir, true, t});
      } else {
        dir = cond.v != 0;
        if (record_all_) {
          // Cross-check the recorded direction of deterministic branches.
          bool recorded;
          if (!next_bit(&recorded)) return false;
          if (recorded != dir) {
            fail("deterministic branch direction mismatch");
            return false;
          }
        }
      }
      th.pc = dir ? ins.b : ins.c;
      break;
    }
    case Op::kJump:
      th.pc = ins.a;
      break;
    case Op::kInput:
    case Op::kSyscall:
      // Program-external values are unknown to the hive.
      regs[ins.a] = {0, false};
      th.pc++;
      break;
    case Op::kLoadG:
      regs[ins.a] = globals_[ins.b];
      th.pc++;
      break;
    case Op::kStoreG:
      globals_[ins.a] = regs[ins.b];
      th.pc++;
      break;
    case Op::kLock: {
      const std::uint16_t l = static_cast<std::uint16_t>(ins.a);
      LockR& lock = locks_[l];
      if (lock.owner < 0) {
        lock.owner = t;
        th.held.push_back(l);
        th.pc++;
      } else {
        th.blocked_on = l;
        lock.waiters.push_back(t);
        // A recorded deadlock ends the replay once the cycle closes; the
        // scheduler loop notices no-runnable below.
      }
      break;
    }
    case Op::kUnlock: {
      const std::uint16_t l = static_cast<std::uint16_t>(ins.a);
      LockR& lock = locks_[l];
      if (lock.owner != static_cast<int>(t)) {
        if (crash_recorded_here(th.pc, CrashKind::kExplicitAbort)) {
          finished_ = true;
          return false;
        }
        fail("unlock of lock not held");
        return false;
      }
      lock.owner = -1;
      th.held.erase(std::find(th.held.begin(), th.held.end(), l));
      th.pc++;
      while (!lock.waiters.empty()) {
        const std::uint8_t w = lock.waiters.front();
        lock.waiters.pop_front();
        ThreadR& wt = threads_[w];
        if (!wt.blocked_on || *wt.blocked_on != l) continue;
        lock.owner = w;
        wt.blocked_on.reset();
        wt.held.push_back(l);
        wt.pc++;
        break;
      }
      break;
    }
    case Op::kAssert: {
      const MaybeVal cond = regs[ins.a];
      if (!cond.known) {
        bool survived;
        if (!next_bit(&survived)) return false;
        result_.decisions.push_back({ins.site, survived, true, t});
        if (!survived) {
          if (crash_recorded_here(th.pc, CrashKind::kAssertFailure)) {
            finished_ = true;
            return false;
          }
          fail("crash decision recorded but trace has no matching crash");
          return false;
        }
        th.pc++;
        break;
      }
      if (record_all_) {
        bool recorded;
        if (!next_bit(&recorded)) return false;
        if (recorded != (cond.v != 0)) {
          fail("deterministic check direction mismatch");
          return false;
        }
      }
      if (cond.v == 0) {
        if (crash_recorded_here(th.pc, CrashKind::kAssertFailure)) {
          finished_ = true;
          return false;
        }
        fail("deterministic assert failure not recorded in trace");
        return false;
      }
      th.pc++;
      break;
    }
    case Op::kAbort:
      if (crash_recorded_here(th.pc, CrashKind::kExplicitAbort)) {
        finished_ = true;
        return false;
      }
      fail("abort reached but trace did not record it");
      return false;
    case Op::kOutput:
    case Op::kYield:
      th.pc++;
      break;
    case Op::kHalt:
      th.halted = true;
      break;
  }
  return true;
}

ReferenceReplayResult Replayer::run() {
  result_.outcome = t_.outcome;
  const std::uint64_t budget = t_.steps;

  if (p_.num_threads() > 1) {
    // Multi-threaded: follow the recorded schedule exactly.
    for (const auto& run : t_.schedule) {
      if (failed_ || finished_) break;
      if (run.thread >= threads_.size()) {
        fail("schedule names an unknown thread");
        break;
      }
      for (std::uint32_t i = 0; i < run.steps; ++i) {
        steps_++;
        if (!step(run.thread)) break;
        if (failed_ || finished_) break;
      }
    }
  } else {
    // Single-threaded: run thread 0 for the recorded number of steps.
    while (!failed_ && !finished_ && steps_ < budget &&
           threads_[0].runnable()) {
      steps_++;
      if (!step(0)) break;
    }
  }

  result_.steps_used = steps_;
  result_.bits_consumed = bit_pos_;
  if (failed_) {
    result_.ok = false;
    return result_;
  }
  // Consistency: every recorded bit must have been consumed.
  if (bit_pos_ != t_.branch_bits.size()) {
    result_.ok = false;
    result_.error = "unconsumed branch bits";
    return result_;
  }
  result_.ok = true;
  return result_;
}

}  // namespace

ReferenceReplayResult replay_trace_reference(const Program& program,
                                             const Trace& trace) {
  if (trace.granularity == Granularity::kNone) {
    ReferenceReplayResult r;
    r.error = "trace has no branch bits (granularity=kNone)";
    return r;
  }
  if (trace.patched) {
    // A fix altered control flow; the recorded path is not a natural path
    // of P and must not enter the execution tree (§3.3).
    ReferenceReplayResult r;
    r.error = "patched traces are not replayable as natural executions";
    return r;
  }
  Replayer rep(program, trace);
  return rep.run();
}

}  // namespace softborg
