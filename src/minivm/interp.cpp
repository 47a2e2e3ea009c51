// MiniVM execution core: predecode + direct-threaded dispatch.
//
// The hot loop runs over the DecodedProgram stream (decode.h): one 64-byte
// slot per pc with the handler token, pre-unpacked operands, and the fix
// hooks for that pc already resolved, so the per-instruction work is a
// single indirect jump plus the handler body. Under GCC/Clang the dispatch
// is computed goto (&&handler jump table); -DSOFTBORG_DISPATCH_SWITCH (CMake
// option SOFTBORG_DISPATCH=switch) selects a portable token-threaded switch
// over the exact same handler bodies (SB_CASE expands to a label in one
// mode, a case in the other).
//
// Superinstructions (const+ALU, cmp+branch, mov+storeg) execute both halves
// of a fused pair in one dispatch. Accounting stays per *original*
// instruction: a fused slot debits the step counter, the scheduler quantum,
// and the steering-plan cursor by its length, and a pair only dispatches
// fused when the remaining turn budget covers both halves (otherwise the
// slot's base token runs the first half alone). Together with fusion being
// restricted to non-trapping, non-yielding first halves, this keeps traces,
// branch bit-vectors, schedule summaries, and every other by-product
// byte-identical to the unfused interpreter — the property the differential
// suite (tests/dispatch_diff_test.cpp) pins against execute_reference().
//
// Semantic quirks preserved from the original step loop, in case they look
// accidental: a voluntary kYield (and the lock-fix yield) ends the turn
// *without* the step-limit check, so a thread that yields exactly at
// max_steps gets one more instruction on its next turn before the hang
// fires; blocking on a lock and halting *do* run the step-limit check;
// crash/deadlock exits skip it (done_ is already set).
#include "minivm/interp.h"

#include <algorithm>
#include <deque>

#include "common/check.h"
#include "minivm/decode.h"
#include "obs/registry.h"
#include "obs/span.h"

#if !defined(SOFTBORG_DISPATCH_SWITCH) && \
    (defined(__GNUC__) || defined(__clang__))
#define SB_DISPATCH_GOTO 1
#endif

namespace softborg {

namespace {

// Wrapping arithmetic: MiniVM integers are two's-complement 64-bit with
// defined wraparound (no UB on overflow).
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

struct ThreadCtx {
  std::uint32_t pc = 0;
  std::vector<Value> regs;
  // Byte-per-register taint (the old vector<bool> cost a shift+mask per
  // access in the hottest path). Values are strictly 0/1.
  std::vector<std::uint8_t> taint;
  bool halted = false;
  std::optional<std::uint16_t> blocked_on;
  std::vector<std::uint16_t> held;
  // Opcode-pair profiling cursor (ExecConfig::pair_counts): the previous
  // instruction this thread executed, to detect fallthrough successors.
  bool pair_valid = false;
  std::uint32_t pair_prev_pc = 0;
  Op pair_prev_op = Op::kHalt;

  bool runnable() const { return !halted && !blocked_on; }
};

struct LockCtx {
  int owner = -1;  // thread index, -1 = free
  std::deque<std::uint8_t> waiters;
};

// Sentinel quantum for the single-threaded fast path: with one thread and
// no steering plan, the scheduler has no choice to make and the schedule
// summary is not recorded, so the whole execution runs as one turn. A
// kYield then just refreshes the turn budget in place (preserving the
// yield-at-limit quirk) instead of bouncing through the scheduler.
constexpr std::uint32_t kUnboundedQuantum = 0xffffffffu;

// exec_lock outcomes, mapped onto turn control flow by the kLock handler.
enum LockResult {
  kLockAcquired,  // proceed within the turn
  kLockBlocked,   // turn ends; step-limit check still applies
  kLockYield,     // lock-avoidance fix yielded; turn ends, no limit check
  kLockStop,      // deadlock detected; execution is over
};

class Machine {
 public:
  // Everything the run reads about the program comes from the validated
  // stream; `program` only names the trace.
  Machine(ProgramId program, const DecodedProgram& decoded,
          const ExecConfig& config)
      : program_(program),
        cfg_(config),
        env_(config.env != nullptr ? *config.env : default_env()),
        sched_rng_(config.seed),
        env_rng_(Rng(config.seed).split(0x0e17)),
        decoded_(decoded) {
    threads_.resize(decoded_.thread_entries.size());
    for (std::size_t t = 0; t < threads_.size(); ++t) {
      threads_[t].pc = decoded_.thread_entries[t];
      threads_[t].regs.assign(decoded_.num_regs, 0);
      threads_[t].taint.assign(decoded_.num_regs, 0);
    }
    globals_.assign(decoded_.num_globals, 0);
    global_taint_.assign(decoded_.num_globals, 0);
    locks_.resize(decoded_.num_locks);
  }

  ExecResult run();

 private:
  // Executes one scheduler turn of thread `t`: up to `quantum` original
  // instructions, fewer if the thread yields/blocks/halts or execution ends.
  void run_quantum(std::uint8_t t, std::uint32_t quantum);
  LockResult exec_lock(std::uint8_t t, const DecodedInstr& d);
  void exec_unlock(std::uint8_t t, std::uint16_t l);
  void crash(CrashKind kind, std::uint32_t pc, std::int64_t detail);
  int pick_next_thread();
  bool wait_chain_has_cycle(std::uint8_t start,
                            std::vector<LockEvent>* cycle) const;
  void record_branch_bit(bool dir, bool tainted);
  bool record_all_branches() const {
    return cfg_.granularity == Granularity::kAllBranches ||
           cfg_.granularity == Granularity::kFull;
  }

  const ProgramId program_;
  const ExecConfig& cfg_;
  const EnvModel& env_;
  Rng sched_rng_;
  Rng env_rng_;
  const DecodedProgram& decoded_;

  std::vector<ThreadCtx> threads_;
  std::vector<Value> globals_;
  std::vector<std::uint8_t> global_taint_;
  std::vector<LockCtx> locks_;

  std::uint64_t steps_ = 0;
  std::uint64_t fused_dispatches_ = 0;
  std::uint32_t syscall_index_ = 0;
  bool done_ = false;
  Outcome outcome_ = Outcome::kOk;
  std::optional<CrashInfo> crash_info_;

  // Scheduler plan cursor.
  std::size_t plan_run_ = 0;
  std::uint32_t plan_used_ = 0;
  std::uint32_t plan_cap_ = 0;  // steps left in the current plan run

  // Captured by-products.
  BitVec bits_;
  std::vector<ScheduleRun> schedule_;
  std::vector<LockEvent> lock_events_;
  std::vector<SyscallRecord> syscalls_;
  std::vector<BranchEvent> branch_events_;
  std::vector<LockEvent> deadlock_cycle_;
  std::vector<Value> outputs_;
  bool fix_intervened_ = false;
};

void Machine::record_branch_bit(bool dir, bool tainted) {
  if (cfg_.granularity == Granularity::kNone) return;
  if (tainted || record_all_branches()) bits_.push_back(dir);
}

void Machine::crash(CrashKind kind, std::uint32_t pc, std::int64_t detail) {
  done_ = true;
  outcome_ = Outcome::kCrash;
  crash_info_ = CrashInfo{kind, pc, detail};
}

bool Machine::wait_chain_has_cycle(std::uint8_t start,
                                   std::vector<LockEvent>* cycle) const {
  // Follow thread -> lock-it-waits-on -> owner; bounded by thread count.
  std::vector<LockEvent> path;
  std::uint8_t t = start;
  for (std::size_t hop = 0; hop <= threads_.size(); ++hop) {
    const auto& th = threads_[t];
    if (!th.blocked_on) return false;
    const std::uint16_t l = *th.blocked_on;
    path.push_back({t, true, l, th.pc,
                    static_cast<std::uint32_t>(steps_)});
    const int owner = locks_[l].owner;
    if (owner < 0) return false;  // transiently free; no cycle
    if (static_cast<std::uint8_t>(owner) == start) {
      if (cycle != nullptr) *cycle = path;
      return true;
    }
    t = static_cast<std::uint8_t>(owner);
  }
  return false;
}

LockResult Machine::exec_lock(std::uint8_t t, const DecodedInstr& d) {
  ThreadCtx& th = threads_[t];
  const std::uint16_t l = static_cast<std::uint16_t>(d.a);

  // Deadlock-immunity fix: serialize entry into a diagnosed cycle's lock
  // set. If another thread currently holds any lock of the cycle, yield
  // (quantum ends, pc unchanged) instead of entering the pattern. Predecode
  // already filtered the installed fixes down to the ones covering `l`.
  if (d.fix_count != 0) {
    const LockAvoidanceFix* fs = decoded_.lockfix_pool.data() + d.fix_begin;
    for (std::uint32_t i = 0; i < d.fix_count; ++i) {
      const LockAvoidanceFix& fix = fs[i];
      // If we already hold a cycle lock we are the occupant; proceed.
      bool self_inside = false;
      for (auto h : th.held) {
        if (fix.covers(h)) {
          self_inside = true;
          break;
        }
      }
      if (self_inside) continue;
      for (std::size_t other = 0; other < threads_.size(); ++other) {
        if (other == t) continue;
        for (auto h : threads_[other].held) {
          if (fix.covers(h)) {
            fix_intervened_ = true;
            return kLockYield;  // retry this kLock later
          }
        }
      }
    }
  }

  LockCtx& lock = locks_[l];
  if (lock.owner < 0) {
    lock.owner = t;
    th.held.push_back(l);
    th.pc++;
    lock_events_.push_back(
        {t, true, l, th.pc - 1, static_cast<std::uint32_t>(steps_)});
    return kLockAcquired;
  }

  // Block (possibly on a lock we already own: self-deadlock).
  th.blocked_on = l;
  lock.waiters.push_back(t);
  if (cfg_.detect_deadlock) {
    std::vector<LockEvent> cycle;
    if (wait_chain_has_cycle(t, &cycle)) {
      done_ = true;
      outcome_ = Outcome::kDeadlock;
      deadlock_cycle_ = cycle;
      return kLockStop;
    }
  }
  return kLockBlocked;
}

void Machine::exec_unlock(std::uint8_t t, std::uint16_t l) {
  ThreadCtx& th = threads_[t];
  LockCtx& lock = locks_[l];
  if (lock.owner != static_cast<int>(t)) {
    crash(CrashKind::kExplicitAbort, th.pc, 1000 + l);
    return;
  }
  lock.owner = -1;
  th.held.erase(std::find(th.held.begin(), th.held.end(), l));
  lock_events_.push_back(
      {t, false, l, th.pc, static_cast<std::uint32_t>(steps_)});
  th.pc++;

  // Hand the lock to the first waiter, FIFO; its pc moves past its kLock.
  while (!lock.waiters.empty()) {
    const std::uint8_t w = lock.waiters.front();
    lock.waiters.pop_front();
    ThreadCtx& wt = threads_[w];
    if (!wt.blocked_on || *wt.blocked_on != l) continue;  // stale waiter
    lock.owner = w;
    wt.blocked_on.reset();
    wt.held.push_back(l);
    lock_events_.push_back(
        {w, true, l, wt.pc, static_cast<std::uint32_t>(steps_)});
    wt.pc++;
    break;
  }
}

void Machine::run_quantum(std::uint8_t t, std::uint32_t quantum) {
  if (quantum == 0) return;
  ThreadCtx& th = threads_[t];
  Value* const regs = th.regs.data();
  std::uint8_t* const taint = th.taint.data();
  const DecodedInstr* const code = decoded_.code.data();
  const std::uint64_t max_steps = cfg_.max_steps;
  // Invariant per turn: plan_run_ only advances in pick_next_thread.
  const bool plan_active = cfg_.schedule_plan != nullptr &&
                           plan_run_ < cfg_.schedule_plan->runs.size();
  OpPairCounts* const pairs = cfg_.pair_counts;

  // Original instructions this turn may still execute before it must end:
  // the scheduler quantum, capped at the step limit. A thread that yielded
  // exactly at max_steps re-enters with steps_ >= max_steps and gets exactly
  // one more instruction before the limit check fires (see header comment).
  std::uint64_t left = std::min<std::uint64_t>(
      quantum, steps_ >= max_steps ? 1 : max_steps - steps_);

  // The whole turn is one thread, so the schedule summary advances by bulk
  // increments on one run instead of a call per instruction.
  ScheduleRun* sched = nullptr;
  if (threads_.size() > 1) {
    if (schedule_.empty() || schedule_.back().thread != t) {
      schedule_.push_back({t, 0});
    }
    sched = &schedule_.back();
  }

  const DecodedInstr* d = nullptr;
  std::uint64_t len = 0;
  Tok tok = Tok::kHalt;
  // branch_resolve inputs (shared tail of kBranchIf and fused cmp+branch).
  bool br_dir = false;
  bool br_tnt = false;
  std::uint32_t br_site = 0;
  std::uint32_t br_then = 0;
  std::uint32_t br_else = 0;

#ifdef SB_DISPATCH_GOTO
  // Jump table in Tok value order (decode.h).
  static const void* const kJump[] = {
      &&H_kConst,      &&H_kMov,        &&H_kAdd,       &&H_kSub,
      &&H_kMul,        &&H_kDiv,        &&H_kMod,       &&H_kCmpLt,
      &&H_kCmpLe,      &&H_kCmpEq,      &&H_kCmpNe,     &&H_kBranchIf,
      &&H_kJump,       &&H_kInput,      &&H_kSyscall,   &&H_kLoadG,
      &&H_kStoreG,     &&H_kLock,       &&H_kUnlock,    &&H_kAssert,
      &&H_kAbort,      &&H_kOutput,     &&H_kYield,     &&H_kHalt,
      &&H_kConstAdd,   &&H_kConstSub,   &&H_kConstMul,  &&H_kConstCmpLt,
      &&H_kConstCmpLe, &&H_kConstCmpEq, &&H_kConstCmpNe, &&H_kCmpLtBranch,
      &&H_kCmpLeBranch, &&H_kCmpEqBranch, &&H_kCmpNeBranch, &&H_kMovStoreG,
  };
  static_assert(sizeof(kJump) / sizeof(kJump[0]) == kNumToks);
#define SB_CASE(T) H_##T
#define SB_NEXT() goto* kJump[static_cast<std::size_t>(tok)]
#else
#define SB_CASE(T) case Tok::T
#define SB_NEXT() goto dispatch_switch
#endif

fetch:
  d = &code[th.pc];
  tok = d->tok;
  len = d->len;
  if (len > left) {
    // Not enough budget for both halves of a fused pair: run the first half
    // alone so step accounting lands exactly where the unfused machine's
    // would. The second half re-fetches as its own (plain) slot next turn.
    tok = d->base;
    len = 1;
  } else if (len == 2) {
    fused_dispatches_++;
  }
  if (sched != nullptr) sched->steps += static_cast<std::uint32_t>(len);
  steps_ += len;
  if (plan_active) plan_used_ += static_cast<std::uint32_t>(len);
  left -= len;
  if (pairs != nullptr) {
    // Profiling runs unfused, so d->base is the executed opcode.
    const Op cur = static_cast<Op>(d->base);
    if (th.pair_valid && th.pair_prev_pc + 1 == th.pc) {
      pairs->add(th.pair_prev_op, cur);
    }
    th.pair_prev_pc = th.pc;
    th.pair_prev_op = cur;
    th.pair_valid = true;
  }
  SB_NEXT();

#ifndef SB_DISPATCH_GOTO
dispatch_switch:
  switch (tok) {
#endif

    SB_CASE(kConst) : {
      regs[d->a] = d->imm;
      taint[d->a] = 0;
      th.pc++;
      goto done_step;
    }
    SB_CASE(kMov) : {
      regs[d->a] = regs[d->b];
      taint[d->a] = taint[d->b];
      th.pc++;
      goto done_step;
    }

// Non-trapping binary ALU handler: one flat body per op (the old
// interpreter decoded `op` twice through nested switches here).
#define SB_ALU(EXPR)                                                 \
  {                                                                  \
    const Value x = regs[d->b];                                      \
    const Value y = regs[d->c];                                      \
    regs[d->a] = (EXPR);                                             \
    taint[d->a] = static_cast<std::uint8_t>(taint[d->b] | taint[d->c]); \
    th.pc++;                                                         \
    goto done_step;                                                  \
  }

    SB_CASE(kAdd) : SB_ALU(wrap_add(x, y))
    SB_CASE(kSub) : SB_ALU(wrap_sub(x, y))
    SB_CASE(kMul) : SB_ALU(wrap_mul(x, y))
    SB_CASE(kCmpLt) : SB_ALU(x < y)
    SB_CASE(kCmpLe) : SB_ALU(x <= y)
    SB_CASE(kCmpEq) : SB_ALU(x == y)
    SB_CASE(kCmpNe) : SB_ALU(x != y)

// Division-family handler: surviving the divisor-zero check is a decision
// of the execution tree, recorded like a branch (true = survived). The
// pre-resolved crash guard (kSubstitute) can absorb the crash.
#define SB_DIVMOD(DETAIL, EXPR)                                         \
  {                                                                     \
    const Value x = regs[d->b];                                         \
    const Value y = regs[d->c];                                         \
    record_branch_bit(y != 0, taint[d->c] != 0);                        \
    if (cfg_.collect_branch_events) {                                   \
      branch_events_.push_back({d->site, y != 0, taint[d->c] != 0, t}); \
    }                                                                   \
    Value r;                                                            \
    if (y == 0) {                                                       \
      const CrashGuardFix* g =                                          \
          d->guard != kNoFix ? &decoded_.guard_pool[d->guard] : nullptr; \
      if (g == nullptr || g->action != CrashGuardFix::Action::kSubstitute) { \
        crash(CrashKind::kDivByZero, th.pc, (DETAIL));                  \
        return;                                                         \
      }                                                                 \
      r = g->fallback;                                                  \
      fix_intervened_ = true;                                           \
    } else {                                                            \
      r = (EXPR);                                                       \
    }                                                                   \
    regs[d->a] = r;                                                     \
    taint[d->a] = static_cast<std::uint8_t>(taint[d->b] | taint[d->c]); \
    th.pc++;                                                            \
    goto done_step;                                                     \
  }

    SB_CASE(kDiv)
        : SB_DIVMOD(0, (x == INT64_MIN && y == -1) ? INT64_MIN : x / y)
    SB_CASE(kMod) : SB_DIVMOD(1, (x == INT64_MIN && y == -1) ? 0 : x % y)

    SB_CASE(kBranchIf) : {
      br_dir = regs[d->a] != 0;
      br_tnt = taint[d->a] != 0;
      br_site = d->site;
      br_then = d->b;
      br_else = d->c;
      goto branch_resolve;
    }
    SB_CASE(kJump) : {
      th.pc = d->a;
      goto done_step;
    }
    SB_CASE(kInput) : {
      regs[d->a] = d->b < cfg_.inputs.size() ? cfg_.inputs[d->b] : 0;
      taint[d->a] = 1;
      th.pc++;
      goto done_step;
    }
    SB_CASE(kSyscall) : {
      const std::uint16_t sys = static_cast<std::uint16_t>(d->b);
      const Value arg = regs[d->c];
      const Value result =
          env_.call(sys, arg, syscall_index_, env_rng_, cfg_.fault_plan);
      if (cfg_.granularity == Granularity::kFull) {
        syscalls_.push_back(
            {sys, syscall_index_, env_.classify(sys, arg, result)});
      }
      syscall_index_++;
      regs[d->a] = result;
      taint[d->a] = 1;
      th.pc++;
      goto done_step;
    }
    SB_CASE(kLoadG) : {
      regs[d->a] = globals_[d->b];
      taint[d->a] = global_taint_[d->b];
      th.pc++;
      goto done_step;
    }
    SB_CASE(kStoreG) : {
      globals_[d->a] = regs[d->b];
      global_taint_[d->a] = taint[d->b];
      th.pc++;
      goto done_step;
    }
    SB_CASE(kLock) : {
      switch (exec_lock(t, *d)) {
        case kLockAcquired:
          goto done_step;
        case kLockBlocked:
          goto end_turn;
        default:  // kLockYield / kLockStop: turn over, no step-limit check
          return;
      }
    }
    SB_CASE(kUnlock) : {
      exec_unlock(t, static_cast<std::uint16_t>(d->a));
      if (done_) return;  // unlock-without-ownership crash
      goto done_step;
    }
    SB_CASE(kAssert) : {
      const bool ok = regs[d->a] != 0;
      const bool tnt = taint[d->a] != 0;
      record_branch_bit(ok, tnt);
      if (cfg_.collect_branch_events) {
        branch_events_.push_back({d->site, ok, tnt, t});
      }
      if (!ok) {
        const CrashGuardFix* g =
            d->guard != kNoFix ? &decoded_.guard_pool[d->guard] : nullptr;
        if (g != nullptr && g->action == CrashGuardFix::Action::kSkip) {
          fix_intervened_ = true;
          th.pc++;
          goto done_step;
        }
        crash(CrashKind::kAssertFailure, th.pc,
              static_cast<std::int64_t>(d->b));
        return;
      }
      th.pc++;
      goto done_step;
    }
    SB_CASE(kAbort) : {
      const CrashGuardFix* g =
          d->guard != kNoFix ? &decoded_.guard_pool[d->guard] : nullptr;
      if (g != nullptr && g->action == CrashGuardFix::Action::kSkip) {
        fix_intervened_ = true;
        th.pc++;
        goto done_step;
      }
      crash(CrashKind::kExplicitAbort, th.pc, static_cast<std::int64_t>(d->a));
      return;
    }
    SB_CASE(kOutput) : {
      outputs_.push_back(regs[d->a]);
      th.pc++;
      goto done_step;
    }
    SB_CASE(kYield) : {
      th.pc++;
      // Voluntary turn end: deliberately skips the step-limit check, so a
      // thread that yields exactly at max_steps still gets one instruction
      // on its next turn.
      if (quantum != kUnboundedQuantum) return;
      // Single-threaded fast path: the scheduler would re-pick this thread
      // immediately, so refresh the budget in place instead of bouncing
      // through the outer loop. Mirrors the turn-entry computation above.
      left = steps_ >= max_steps ? 1 : max_steps - steps_;
      goto fetch;
    }
    SB_CASE(kHalt) : {
      th.halted = true;
      goto end_turn;
    }

// Fused const+ALU: the const half (slot operands a/imm) then the ALU half
// (a2/b2/c2), exactly as two back-to-back unfused steps would.
#define SB_CONST_ALU(EXPR)                                              \
  {                                                                     \
    regs[d->a] = d->imm;                                                \
    taint[d->a] = 0;                                                    \
    const Value x = regs[d->b2];                                        \
    const Value y = regs[d->c2];                                        \
    regs[d->a2] = (EXPR);                                               \
    taint[d->a2] = static_cast<std::uint8_t>(taint[d->b2] | taint[d->c2]); \
    th.pc += 2;                                                         \
    goto done_step;                                                     \
  }

    SB_CASE(kConstAdd) : SB_CONST_ALU(wrap_add(x, y))
    SB_CASE(kConstSub) : SB_CONST_ALU(wrap_sub(x, y))
    SB_CASE(kConstMul) : SB_CONST_ALU(wrap_mul(x, y))
    SB_CASE(kConstCmpLt) : SB_CONST_ALU(x < y)
    SB_CASE(kConstCmpLe) : SB_CONST_ALU(x <= y)
    SB_CASE(kConstCmpEq) : SB_CONST_ALU(x == y)
    SB_CASE(kConstCmpNe) : SB_CONST_ALU(x != y)

// Fused cmp+branch: the compare result still lands in its register (later
// code may re-read it), then the branch half resolves on the fresh value.
// Fusion requires branch.a == cmp.a (decode.cpp), so dir/taint come straight
// from the compare. The slot inherited the branch's GuardPatch range.
#define SB_CMP_BRANCH(EXPR)                                          \
  {                                                                  \
    const Value x = regs[d->b];                                      \
    const Value y = regs[d->c];                                      \
    const Value v = (EXPR);                                          \
    const std::uint8_t tnt =                                         \
        static_cast<std::uint8_t>(taint[d->b] | taint[d->c]);        \
    regs[d->a] = v;                                                  \
    taint[d->a] = tnt;                                               \
    br_dir = v != 0;                                                 \
    br_tnt = tnt != 0;                                               \
    br_site = d->site2;                                              \
    br_then = d->b2;                                                 \
    br_else = d->c2;                                                 \
    goto branch_resolve;                                             \
  }

    SB_CASE(kCmpLtBranch) : SB_CMP_BRANCH(x < y)
    SB_CASE(kCmpLeBranch) : SB_CMP_BRANCH(x <= y)
    SB_CASE(kCmpEqBranch) : SB_CMP_BRANCH(x == y)
    SB_CASE(kCmpNeBranch) : SB_CMP_BRANCH(x != y)

    SB_CASE(kMovStoreG) : {
      // Mov completes before the store reads (b2 may alias the mov dest).
      regs[d->a] = regs[d->b];
      taint[d->a] = taint[d->b];
      globals_[d->a2] = regs[d->b2];
      global_taint_[d->a2] = taint[d->b2];
      th.pc += 2;
      goto done_step;
    }

#ifndef SB_DISPATCH_GOTO
  }
  SB_CHECK(false);  // every token has a case above
#endif

branch_resolve : {
  // GuardPatch fix hook: steer away from a known crash direction when the
  // synthesized input predicate holds. Candidates were pre-filtered to this
  // site at predecode, in FixSet order; first match wins.
  if (d->fix_count != 0) {
    const GuardPatch* ps = decoded_.patch_pool.data() + d->fix_begin;
    for (std::uint32_t i = 0; i < d->fix_count; ++i) {
      if (br_dir == ps[i].crash_direction && ps[i].matches(cfg_.inputs)) {
        br_dir = !br_dir;
        fix_intervened_ = true;
        break;
      }
    }
  }
  record_branch_bit(br_dir, br_tnt);
  if (cfg_.collect_branch_events) {
    branch_events_.push_back({br_site, br_dir, br_tnt, t});
  }
  th.pc = br_dir ? br_then : br_else;
  goto done_step;
}

done_step:
  if (steps_ >= max_steps) goto step_limit;
  if (left == 0) return;
  goto fetch;

end_turn:
  if (steps_ >= max_steps) goto step_limit;
  return;

step_limit : {
  bool all_halted = true;
  for (const auto& other : threads_) {
    if (!other.halted) all_halted = false;
  }
  outcome_ = all_halted ? Outcome::kOk : Outcome::kHang;
  done_ = true;
  return;
}

#undef SB_CASE
#undef SB_NEXT
#undef SB_ALU
#undef SB_DIVMOD
#undef SB_CONST_ALU
#undef SB_CMP_BRANCH
}

int Machine::pick_next_thread() {
  // Honor the steering plan first (guidance, §3.3: "guide P in exploring
  // previously unseen thread schedules").
  if (cfg_.schedule_plan != nullptr) {
    const auto& runs = cfg_.schedule_plan->runs;
    while (plan_run_ < runs.size()) {
      const auto& run = runs[plan_run_];
      if (plan_used_ >= run.steps) {
        plan_run_++;
        plan_used_ = 0;
        continue;
      }
      if (run.thread < threads_.size() && threads_[run.thread].runnable()) {
        // Cap this turn exactly at the run boundary so short runs are not
        // overrun by the default quantum.
        plan_cap_ = run.steps - plan_used_;
        return run.thread;
      }
      // Planned thread can't run; skip the rest of this run.
      plan_run_++;
      plan_used_ = 0;
    }
  }
  plan_cap_ = 0;
  // Stack buffer: this runs once per turn, and a heap-backed vector here
  // dominated the whole interpreter at short quanta. threads_.size() <= 256
  // is enforced in predecode().
  std::uint8_t runnable[256];
  std::size_t n = 0;
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    if (threads_[t].runnable()) runnable[n++] = static_cast<std::uint8_t>(t);
  }
  if (n == 0) return -1;
  return runnable[sched_rng_.next_below(n)];
}

// Fleet-wide interpreter telemetry. Only deterministic sums go here (the
// ingest_batch differential suite pins counter snapshots byte-identical
// across worker counts); predecode cache hit rates are schedule-dependent
// and stay in PredecodeCacheStats.
struct VmMetrics {
  obs::Counter& instrs =
      obs::MetricsRegistry::global().counter("minivm.instrs_executed_total");
  obs::Counter& fused =
      obs::MetricsRegistry::global().counter("minivm.fused_dispatches_total");

  static VmMetrics& get() {
    static VmMetrics m;
    return m;
  }
};

ExecResult Machine::run() {
  while (!done_) {
    const int picked = pick_next_thread();
    if (picked < 0) {
      // No runnable thread. All halted: OK. Otherwise threads are blocked
      // with no possible wake-up: resource deadlock (even without a
      // wait-for cycle, e.g. owner halted while holding).
      bool any_blocked = false;
      for (const auto& th : threads_) {
        if (th.blocked_on) any_blocked = true;
      }
      outcome_ = any_blocked ? Outcome::kDeadlock : Outcome::kOk;
      done_ = true;
      break;
    }
    const std::uint8_t t = static_cast<std::uint8_t>(picked);
    // Single thread + no steering plan: every turn would re-pick thread 0
    // and the schedule summary is not recorded, so run unbounded turns. The
    // quantum only feeds the turn budget (`left`), which the step limit
    // already caps, and the kYield handler refreshes in place.
    if (threads_.size() == 1 && cfg_.schedule_plan == nullptr) {
      run_quantum(t, kUnboundedQuantum);
    } else {
      run_quantum(t, plan_cap_ > 0 ? plan_cap_ : cfg_.quantum);
    }
  }

  ExecResult result;
  Trace& tr = result.trace;
  tr.program = program_;
  tr.outcome = outcome_;
  tr.crash = crash_info_;
  tr.granularity = cfg_.granularity;
  tr.branch_bits = std::move(bits_);
  tr.schedule = std::move(schedule_);
  tr.steps = steps_;
  tr.patched = fix_intervened_;
  tr.syscalls = std::move(syscalls_);
  // Lock events ride along at full granularity, or as part of the "crash
  // report" whenever the run deadlocked. For deadlocks the blocked requests
  // (the wait-for cycle) are appended as pseudo-acquire events so the hive
  // can reconstruct the full lock-order cycle from the trace alone.
  if (cfg_.granularity == Granularity::kFull ||
      outcome_ == Outcome::kDeadlock) {
    tr.lock_events = std::move(lock_events_);
    if (outcome_ == Outcome::kDeadlock) {
      tr.lock_events.insert(tr.lock_events.end(), deadlock_cycle_.begin(),
                            deadlock_cycle_.end());
    }
  }
  result.outputs = std::move(outputs_);
  result.branch_events = std::move(branch_events_);
  result.deadlock_cycle = std::move(deadlock_cycle_);
  result.fix_intervened = fix_intervened_;
  if (obs::enabled()) {
    auto& m = VmMetrics::get();
    m.instrs.add(steps_);
    m.fused.add(fused_dispatches_);
  }
  return result;
}

}  // namespace

const EnvModel& default_env() {
  static const EnvModel kEnv;
  return kEnv;
}

namespace {

// The stream mode a config asks for. Pair profiling needs the raw unfused
// stream to observe pairs.
bool wants_fused(const ExecConfig& config) {
  return config.enable_fusion && config.pair_counts == nullptr;
}

// The one Machine path behind both execute() overloads. `decoded` was built
// by predecode() from `program` (or a program equal to it), so the program
// is already validated.
ExecResult run_decoded(const Program& program, const DecodedProgram& decoded,
                       const ExecConfig& config) {
  SB_SPAN("minivm.execute");
  Machine m(program.id, decoded, config);
  return m.run();
}

}  // namespace

ExecResult execute(const Program& program, const ExecConfig& config) {
  const std::shared_ptr<const DecodedProgram> decoded = predecode_cached(
      program, config.fixes, {.fuse = wants_fused(config)});
  return run_decoded(program, *decoded, config);
}

ExecResult execute(const Program& program, const DecodedProgram& decoded,
                   const ExecConfig& config) {
  SB_CHECK(decoded.same_shape(program));
  SB_CHECK(config.fixes == nullptr);  // the stream carries its fixes
  SB_CHECK(decoded.fused == wants_fused(config));
  return run_decoded(program, decoded, config);
}

}  // namespace softborg
