// MiniVM execution core: predecode + direct-threaded dispatch.
//
// The hot loop runs over the DecodedProgram stream (decode.h): one 64-byte
// slot per pc with the handler token, pre-unpacked operands, and the fix
// hooks for that pc already resolved, so the per-instruction work is a
// single indirect jump plus the handler body. Dispatch is computed goto
// (&&handler jump table, one label per Tok of the opcode table, ops.h);
// the project builds only with GCC or Clang.
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
//
// The same machine replays traces for the hive (replay.h), in a mode fixed
// at compile time: Machine<Mode::kReplay> runs the program with its inputs
// unknown, which is what taint already tracks. At a decision (a branch, a
// divisor check, an assert) a tainted condition reads the trace's next bit
// where execute mode records one; an untainted condition is reconstructed
// from values, and cross-checked against its bit where the trace records
// every decision. Inputs and syscalls yield a tainted 0. Replay follows the
// recorded schedule strictly, runs no fix hooks, and records nothing but
// the tainted decisions; a crash ends it successfully only where the trace
// recorded one. Execute mode compiles without any of this.
#include "minivm/interp.h"

#include <algorithm>
#include <deque>
#include <string>
#include <type_traits>

#include "common/check.h"
#include "minivm/decode.h"
#include "minivm/replay.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace softborg {

namespace {

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

enum class Mode {
  kExecute,  // a pod's run: inputs, environment, fixes, by-products
  kReplay,   // the hive's replay of a trace, with the inputs unknown
};

// Replay's view of the trace it follows.
struct ReplayCursor {
  const Trace* trace = nullptr;
  std::size_t next_bit = 0;
  bool record_all = false;  // the trace records untainted decisions too
  bool failed = false;
  std::string error;
};
struct NoReplay {};

// The configuration replay runs under: no inputs, plan, profile or fixes.
const ExecConfig kReplayConfig{};

template <Mode kMode>
class Machine {
  static constexpr bool kReplay = kMode == Mode::kReplay;

 public:
  // Everything the run reads about the program comes from the validated
  // stream; `program` only names the trace. Replay mode follows `trace`.
  Machine(ProgramId program, const DecodedProgram& decoded,
          const ExecConfig& config, const Trace* trace = nullptr)
      : program_(program),
        cfg_(config),
        env_(config.env != nullptr ? *config.env : default_env()),
        sched_rng_(config.seed),
        env_rng_(Rng(config.seed).split(0x0e17)),
        decoded_(decoded) {
    if constexpr (kReplay) {
      replay_.trace = trace;
      replay_.record_all = trace->granularity == Granularity::kAllBranches ||
                           trace->granularity == Granularity::kFull;
    }
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
  ReplayResult replay();

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
  // Replay mode only.
  void replay_fail(const char* error);
  bool replay_decide(bool value, bool tainted, std::uint32_t site,
                     std::uint8_t t, const char* mismatch, bool* dir);
  void replay_crash(CrashKind kind, std::uint32_t pc, const char* error);

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

  [[no_unique_address]] std::conditional_t<kReplay, ReplayCursor, NoReplay>
      replay_;
};

template <Mode kMode>
void Machine<kMode>::replay_fail(const char* error) {
  if (replay_.error.empty()) replay_.error = error;
  replay_.failed = true;
  done_ = true;
}

// A decision's direction in replay: a tainted condition is unknown to the
// hive, so the trace's next bit gives it (and it joins the decision
// stream); an untainted one is `value`, checked against its bit where the
// trace records every decision. False when the trace runs out of bits or
// contradicts the program.
template <Mode kMode>
bool Machine<kMode>::replay_decide(bool value, bool tainted,
                                   std::uint32_t site, std::uint8_t t,
                                   const char* mismatch, bool* dir) {
  *dir = value;
  if (!tainted && !replay_.record_all) return true;
  const BitVec& bits = replay_.trace->branch_bits;
  if (replay_.next_bit >= bits.size()) {
    replay_fail("trace bit-vector exhausted");
    return false;
  }
  const bool bit = bits[replay_.next_bit++];
  if (tainted) {
    *dir = bit;
    branch_events_.push_back({site, bit, true, t});
  } else if (bit != value) {
    replay_fail(mismatch);
    return false;
  }
  return true;
}

// A crash ends replay, successfully only where the trace recorded it: the
// same pc and kind, at the trace's final step. A crash site can run many
// times before the failing occurrence (a div in a loop).
template <Mode kMode>
void Machine<kMode>::replay_crash(CrashKind kind, std::uint32_t pc,
                                  const char* error) {
  const Trace& tr = *replay_.trace;
  done_ = true;
  if (tr.outcome != Outcome::kCrash || !tr.crash.has_value() ||
      tr.crash->pc != pc || tr.crash->kind != kind || steps_ != tr.steps) {
    replay_fail(error);
  }
}

template <Mode kMode>
void Machine<kMode>::record_branch_bit(bool dir, bool tainted) {
  if (cfg_.granularity == Granularity::kNone) return;
  if (tainted || record_all_branches()) bits_.push_back(dir);
}

template <Mode kMode>
void Machine<kMode>::crash(CrashKind kind, std::uint32_t pc,
                           std::int64_t detail) {
  done_ = true;
  outcome_ = Outcome::kCrash;
  crash_info_ = CrashInfo{kind, pc, detail};
}

template <Mode kMode>
bool Machine<kMode>::wait_chain_has_cycle(
    std::uint8_t start, std::vector<LockEvent>* cycle) const {
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

template <Mode kMode>
LockResult Machine<kMode>::exec_lock(std::uint8_t t,
                                     const DecodedInstr& d) {
  ThreadCtx& th = threads_[t];
  const std::uint16_t l = static_cast<std::uint16_t>(d.a);

  // Deadlock-immunity fix: serialize entry into a diagnosed cycle's lock
  // set. If another thread currently holds any lock of the cycle, yield
  // (quantum ends, pc unchanged) instead of entering the pattern. Predecode
  // already filtered the installed fixes down to the ones covering `l`.
  if (!kReplay && d.fix_count != 0) {
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
    if constexpr (!kReplay) {
      lock_events_.push_back(
          {t, true, l, th.pc - 1, static_cast<std::uint32_t>(steps_)});
    }
    return kLockAcquired;
  }

  // Block (possibly on a lock we already own: self-deadlock). Replay
  // detects no deadlock: the recorded schedule ends where the run did.
  th.blocked_on = l;
  lock.waiters.push_back(t);
  if constexpr (!kReplay) {
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

template <Mode kMode>
void Machine<kMode>::exec_unlock(std::uint8_t t, std::uint16_t l) {
  ThreadCtx& th = threads_[t];
  LockCtx& lock = locks_[l];
  if (lock.owner != static_cast<int>(t)) {
    if constexpr (kReplay) {
      replay_crash(CrashKind::kExplicitAbort, th.pc, "unlock of lock not held");
    } else {
      crash(CrashKind::kExplicitAbort, th.pc, 1000 + l);
    }
    return;
  }
  lock.owner = -1;
  th.held.erase(std::find(th.held.begin(), th.held.end(), l));
  if constexpr (!kReplay) {
    lock_events_.push_back(
        {t, false, l, th.pc, static_cast<std::uint32_t>(steps_)});
  }
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
    if constexpr (!kReplay) {
      lock_events_.push_back(
          {w, true, l, wt.pc, static_cast<std::uint32_t>(steps_)});
    }
    wt.pc++;
    break;
  }
}

template <Mode kMode>
void Machine<kMode>::run_quantum(std::uint8_t t, std::uint32_t quantum) {
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
  // Replay's turns are the trace's own runs, and have no step limit.
  std::uint64_t left =
      kReplay ? quantum
              : std::min<std::uint64_t>(
                    quantum, steps_ >= max_steps ? 1 : max_steps - steps_);

  // The whole turn is one thread, so the schedule summary advances by bulk
  // increments on one run instead of a call per instruction.
  ScheduleRun* sched = nullptr;
  if (!kReplay && threads_.size() > 1) {
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

  // Jump table in Tok value order: one handler label per row of the opcode
  // table (ops.h).
  static const void* const kJump[] = {
#define SB_LABEL(TOK, ...) &&H_##TOK,
      SB_MINIVM_OPS(SB_LABEL) SB_MINIVM_SUPERS(SB_LABEL)
#undef SB_LABEL
  };
  static_assert(sizeof(kJump) / sizeof(kJump[0]) == kNumToks);

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
  goto* kJump[static_cast<std::size_t>(tok)];

    H_kConst : {
      regs[d->a] = d->imm;
      taint[d->a] = 0;
      th.pc++;
      goto done_step;
    }
    H_kMov : {
      regs[d->a] = regs[d->b];
      taint[d->a] = taint[d->b];
      th.pc++;
      goto done_step;
    }

// Non-trapping binary ALU handlers: one flat body per op (the old
// interpreter decoded `op` twice through nested switches here).
#define SB_ALU(OP, BIN, VALUE)                                          \
  H_##OP : {                                                            \
    regs[d->a] = binop_value(BinOp::BIN, regs[d->b], regs[d->c]);       \
    taint[d->a] = static_cast<std::uint8_t>(taint[d->b] | taint[d->c]); \
    th.pc++;                                                            \
    goto done_step;                                                     \
  }
    SB_MINIVM_PLAIN_ALU(SB_ALU)
#undef SB_ALU

// Division-family handlers: surviving the divisor-zero check is a decision
// of the execution tree, recorded like a branch (true = survived). The
// pre-resolved crash guard (kSubstitute) can absorb the crash. In replay, a
// tainted divisor that survives leaves a tainted result: its value means
// nothing, so no division runs.
#define SB_DIVMOD(OP, BIN, VALUE)                                           \
  H_##OP : {                                                                \
    const Value x = regs[d->b];                                             \
    const Value y = regs[d->c];                                             \
    const bool tnt = taint[d->c] != 0;                                      \
    Value r;                                                                \
    if constexpr (kReplay) {                                                \
      bool survived;                                                        \
      if (!replay_decide(y != 0, tnt, d->site, t,                           \
                         "deterministic check direction mismatch",          \
                         &survived)) {                                      \
        return;                                                             \
      }                                                                     \
      if (!survived) {                                                      \
        replay_crash(CrashKind::kDivByZero, th.pc,                          \
                     tnt ? "crash decision recorded but trace has no "      \
                           "matching crash"                                 \
                         : "deterministic div-by-zero not recorded in "     \
                           "trace");                                        \
        return;                                                             \
      }                                                                     \
      r = tnt ? 0 : binop_value(BinOp::BIN, x, y);                          \
    } else {                                                                \
      record_branch_bit(y != 0, tnt);                                       \
      if (cfg_.collect_branch_events) {                                     \
        branch_events_.push_back({d->site, y != 0, tnt, t});                \
      }                                                                     \
      if (y == 0) {                                                         \
        const CrashGuardFix* g =                                            \
            d->guard != kNoFix ? &decoded_.guard_pool[d->guard] : nullptr;  \
        if (g == nullptr ||                                                 \
            g->action != CrashGuardFix::Action::kSubstitute) {              \
          crash(CrashKind::kDivByZero, th.pc, Op::OP == Op::kDiv ? 0 : 1);  \
          return;                                                           \
        }                                                                   \
        r = g->fallback;                                                    \
        fix_intervened_ = true;                                             \
      } else {                                                              \
        r = binop_value(BinOp::BIN, x, y);                                  \
      }                                                                     \
    }                                                                       \
    regs[d->a] = r;                                                         \
    taint[d->a] = static_cast<std::uint8_t>(taint[d->b] | taint[d->c]);     \
    th.pc++;                                                                \
    goto done_step;                                                         \
  }
    SB_MINIVM_DIVISION(SB_DIVMOD)
#undef SB_DIVMOD

    H_kBranchIf : {
      br_dir = regs[d->a] != 0;
      br_tnt = taint[d->a] != 0;
      br_site = d->site;
      br_then = d->b;
      br_else = d->c;
      goto branch_resolve;
    }
    H_kJump : {
      th.pc = d->a;
      goto done_step;
    }
    H_kInput : {
      // Replay: a program-external value the hive never sees.
      regs[d->a] =
          !kReplay && d->b < cfg_.inputs.size() ? cfg_.inputs[d->b] : 0;
      taint[d->a] = 1;
      th.pc++;
      goto done_step;
    }
    H_kSyscall : {
      if constexpr (kReplay) {
        regs[d->a] = 0;
      } else {
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
      }
      taint[d->a] = 1;
      th.pc++;
      goto done_step;
    }
    H_kLoadG : {
      regs[d->a] = globals_[d->b];
      taint[d->a] = global_taint_[d->b];
      th.pc++;
      goto done_step;
    }
    H_kStoreG : {
      globals_[d->a] = regs[d->b];
      global_taint_[d->a] = taint[d->b];
      th.pc++;
      goto done_step;
    }
    H_kLock : {
      switch (exec_lock(t, *d)) {
        case kLockAcquired:
          goto done_step;
        case kLockBlocked:
          goto end_turn;
        default:  // kLockYield / kLockStop: turn over, no step-limit check
          return;
      }
    }
    H_kUnlock : {
      exec_unlock(t, static_cast<std::uint16_t>(d->a));
      if (done_) return;  // unlock-without-ownership crash
      goto done_step;
    }
    H_kAssert : {
      bool ok = regs[d->a] != 0;
      const bool tnt = taint[d->a] != 0;
      if constexpr (kReplay) {
        if (!replay_decide(ok, tnt, d->site, t,
                           "deterministic check direction mismatch", &ok)) {
          return;
        }
        if (!ok) {
          replay_crash(CrashKind::kAssertFailure, th.pc,
                       tnt ? "crash decision recorded but trace has no "
                             "matching crash"
                           : "deterministic assert failure not recorded in "
                             "trace");
          return;
        }
        th.pc++;
        goto done_step;
      }
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
    H_kAbort : {
      if constexpr (kReplay) {
        replay_crash(CrashKind::kExplicitAbort, th.pc,
                     "abort reached but trace did not record it");
        return;
      }
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
    H_kOutput : {
      if constexpr (!kReplay) outputs_.push_back(regs[d->a]);
      th.pc++;
      goto done_step;
    }
    H_kYield : {
      th.pc++;
      // Replay runs the trace's runs whole: a run spans every turn the thread
      // took back to back.
      if constexpr (kReplay) goto done_step;
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
    H_kHalt : {
      th.halted = true;
      goto end_turn;
    }

// Superinstructions, both halves in one dispatch, exactly as two
// back-to-back unfused steps would run them. A const feeds its ALU op
// (a2/b2/c2); a compare's result still lands in its register (later code
// may re-read it) before the branch half resolves on it, since fusion
// requires branch.a == cmp.a (decode.cpp) and the slot inherited the
// branch's GuardPatch range; a mov completes before the store reads (b2
// may alias the mov dest).
#define SB_SUPER(TOK, FIRST, SECOND, NAME)                                  \
  H_##TOK : {                                                               \
    constexpr Op kFirst = Op::FIRST;                                        \
    constexpr Op kSecond = Op::SECOND;                                      \
    static_assert(kFirst == Op::kConst || kSecond == Op::kBranchIf ||       \
                      (kFirst == Op::kMov && kSecond == Op::kStoreG),       \
                  "superinstruction without a handler");                    \
    if constexpr (kFirst == Op::kConst) {                                   \
      regs[d->a] = d->imm;                                                  \
      taint[d->a] = 0;                                                      \
      regs[d->a2] = binop_value(binop_of(kSecond), regs[d->b2], regs[d->c2]); \
      taint[d->a2] =                                                        \
          static_cast<std::uint8_t>(taint[d->b2] | taint[d->c2]);           \
      th.pc += 2;                                                           \
      goto done_step;                                                       \
    } else if constexpr (kSecond == Op::kBranchIf) {                        \
      const Value v = binop_value(binop_of(kFirst), regs[d->b], regs[d->c]); \
      const std::uint8_t tnt =                                              \
          static_cast<std::uint8_t>(taint[d->b] | taint[d->c]);             \
      regs[d->a] = v;                                                       \
      taint[d->a] = tnt;                                                    \
      br_dir = v != 0;                                                      \
      br_tnt = tnt != 0;                                                    \
      br_site = d->site2;                                                   \
      br_then = d->b2;                                                      \
      br_else = d->c2;                                                      \
      goto branch_resolve;                                                  \
    } else {                                                                \
      regs[d->a] = regs[d->b];                                              \
      taint[d->a] = taint[d->b];                                            \
      globals_[d->a2] = regs[d->b2];                                        \
      global_taint_[d->a2] = taint[d->b2];                                  \
      th.pc += 2;                                                           \
      goto done_step;                                                       \
    }                                                                       \
  }
    SB_MINIVM_SUPERS(SB_SUPER)
#undef SB_SUPER

branch_resolve : {
  if constexpr (kReplay) {
    if (!replay_decide(br_dir, br_tnt, br_site, t,
                       "deterministic branch direction mismatch", &br_dir)) {
      return;
    }
    th.pc = br_dir ? br_then : br_else;
    goto done_step;
  }
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
  if (!kReplay && steps_ >= max_steps) goto step_limit;
  if (left == 0) return;
  goto fetch;

end_turn:
  if (!kReplay && steps_ >= max_steps) goto step_limit;
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
}

template <Mode kMode>
int Machine<kMode>::pick_next_thread() {
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

template <Mode kMode>
ExecResult Machine<kMode>::run() {
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

// Follows the trace: a multi-threaded program runs the recorded schedule,
// each run as one turn of its thread, and a run that names a halted or
// blocked thread fails; a single-threaded one runs up to the trace's steps.
// replay_refusal() has already bounded both.
template <Mode kMode>
ReplayResult Machine<kMode>::replay() {
  const Trace& tr = *replay_.trace;
  if (threads_.size() > 1) {
    for (const ScheduleRun& run : tr.schedule) {
      if (done_) break;
      if (run.thread >= threads_.size()) {
        replay_fail("schedule names an unknown thread");
        break;
      }
      const ThreadCtx& th = threads_[run.thread];
      for (std::uint32_t left = run.steps; left != 0 && !done_;) {
        if (th.halted) {
          replay_fail("schedule names a halted thread");
        } else if (th.blocked_on) {
          replay_fail("schedule names a blocked thread");
        } else {
          const std::uint64_t before = steps_;
          run_quantum(run.thread, left);
          left -= static_cast<std::uint32_t>(steps_ - before);
        }
      }
    }
  } else {
    run_quantum(0, static_cast<std::uint32_t>(tr.steps));
  }

  ReplayResult result;
  result.outcome = tr.outcome;
  result.decisions = std::move(branch_events_);
  if (replay_.failed) {
    result.error = std::move(replay_.error);
  } else if (replay_.next_bit != tr.branch_bits.size()) {
    // Consistency: every recorded bit must have been consumed.
    result.error = "unconsumed branch bits";
  } else {
    result.ok = true;
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
  Machine<Mode::kExecute> m(program.id, decoded, config);
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

ReplayResult replay_trace(const Program& program, const DecodedProgram& decoded,
                          const Trace& trace) {
  SB_CHECK(decoded.same_shape(program));
  ReplayResult refused;
  if (trace.granularity == Granularity::kNone) {
    refused.error = "trace has no branch bits (granularity=kNone)";
    return refused;
  }
  if (trace.patched) {
    // A fix altered control flow; the recorded path is not a natural path
    // of P and must not enter the execution tree (§3.3).
    refused.error = "patched traces are not replayable as natural executions";
    return refused;
  }
  if (const char* why = replay_refusal(program.num_threads(), trace)) {
    refused.error = why;
    return refused;
  }
  Machine<Mode::kReplay> m(program.id, decoded, kReplayConfig, &trace);
  return m.replay();
}

}  // namespace softborg
