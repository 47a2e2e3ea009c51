// The pre-threaded-dispatch interpreter, frozen verbatim as the
// differential baseline for the predecode + direct-threaded core in
// src/minivm/interp.cpp. Do not optimize this file: its value is that it is
// the nested-switch machine the dispatch rebuild must stay byte-identical to
// (tests/dispatch_diff_test.cpp) and the baseline BM_PodExecute measures
// against. It ignores the dispatch-era ExecConfig knobs (enable_fusion,
// pair_counts) by construction. Only dispatch_diff_test and
// bench_pod_execute link it.
#include "interp_ref.h"

#include <algorithm>
#include <deque>

#include "common/check.h"

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
  std::vector<bool> taint;
  bool halted = false;
  std::optional<std::uint16_t> blocked_on;
  std::vector<std::uint16_t> held;

  bool runnable() const { return !halted && !blocked_on; }
};

struct LockCtx {
  int owner = -1;  // thread index, -1 = free
  std::deque<std::uint8_t> waiters;
};

class ReferenceMachine {
 public:
  ReferenceMachine(const Program& program, const ExecConfig& config)
      : p_(program),
        cfg_(config),
        env_(config.env != nullptr ? *config.env : default_env()),
        sched_rng_(config.seed),
        env_rng_(Rng(config.seed).split(0x0e17)) {
    threads_.resize(p_.num_threads());
    for (std::size_t t = 0; t < threads_.size(); ++t) {
      threads_[t].pc = p_.thread_entries[t];
      threads_[t].regs.assign(p_.num_regs, 0);
      threads_[t].taint.assign(p_.num_regs, false);
    }
    globals_.assign(p_.num_globals, 0);
    global_taint_.assign(p_.num_globals, false);
    locks_.resize(p_.num_locks);
  }

  ExecResult run();

 private:
  // Returns false when the whole execution must stop (crash/deadlock/hang).
  bool step(std::uint8_t t);
  bool exec_lock(std::uint8_t t, const Instr& ins);
  void exec_unlock(std::uint8_t t, const Instr& ins);
  void crash(CrashKind kind, std::uint32_t pc, std::int64_t detail);
  const CrashGuardFix* crash_guard_at(std::uint32_t pc) const {
    if (cfg_.fixes == nullptr) return nullptr;
    for (const auto& g : cfg_.fixes->crash_guards) {
      if (g.pc == pc) return &g;
    }
    return nullptr;
  }
  int pick_next_thread();
  bool wait_chain_has_cycle(std::uint8_t start,
                            std::vector<LockEvent>* cycle) const;
  void record_schedule_step(std::uint8_t t);
  void record_branch_bit(bool dir, bool tainted);
  bool record_all_branches() const {
    return cfg_.granularity == Granularity::kAllBranches ||
           cfg_.granularity == Granularity::kFull;
  }

  const Program& p_;
  const ExecConfig& cfg_;
  const EnvModel& env_;
  Rng sched_rng_;
  Rng env_rng_;

  std::vector<ThreadCtx> threads_;
  std::vector<Value> globals_;
  std::vector<bool> global_taint_;
  std::vector<LockCtx> locks_;

  std::uint64_t steps_ = 0;
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
  bool yielded_ = false;  // current thread's quantum ended voluntarily
};

void ReferenceMachine::record_schedule_step(std::uint8_t t) {
  if (p_.num_threads() <= 1) return;
  if (!schedule_.empty() && schedule_.back().thread == t) {
    schedule_.back().steps++;
  } else {
    schedule_.push_back({t, 1});
  }
}

void ReferenceMachine::record_branch_bit(bool dir, bool tainted) {
  if (cfg_.granularity == Granularity::kNone) return;
  if (tainted || record_all_branches()) bits_.push_back(dir);
}

void ReferenceMachine::crash(CrashKind kind, std::uint32_t pc,
                             std::int64_t detail) {
  done_ = true;
  outcome_ = Outcome::kCrash;
  crash_info_ = CrashInfo{kind, pc, detail};
}

bool ReferenceMachine::wait_chain_has_cycle(
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

bool ReferenceMachine::exec_lock(std::uint8_t t, const Instr& ins) {
  ThreadCtx& th = threads_[t];
  const std::uint16_t l = static_cast<std::uint16_t>(ins.a);

  // Deadlock-immunity fix: serialize entry into a diagnosed cycle's lock
  // set. If another thread currently holds any lock of the cycle, yield
  // (quantum ends, pc unchanged) instead of entering the pattern.
  if (cfg_.fixes != nullptr) {
    for (const auto& fix : cfg_.fixes->lock_fixes) {
      if (!fix.covers(l)) continue;
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
            yielded_ = true;  // retry this kLock later
            return true;
          }
        }
      }
    }
  }
  if (yielded_) return true;

  LockCtx& lock = locks_[l];
  if (lock.owner < 0) {
    lock.owner = t;
    th.held.push_back(l);
    th.pc++;
    lock_events_.push_back(
        {t, true, l, th.pc - 1, static_cast<std::uint32_t>(steps_)});
    return true;
  }

  // Block (possibly on a lock we already own: self-deadlock).
  th.blocked_on = l;
  lock.waiters.push_back(t);
  {
    std::vector<LockEvent> cycle;
    if (wait_chain_has_cycle(t, &cycle)) {
      done_ = true;
      outcome_ = Outcome::kDeadlock;
      deadlock_cycle_ = cycle;
      return false;
    }
  }
  return true;
}

void ReferenceMachine::exec_unlock(std::uint8_t t, const Instr& ins) {
  ThreadCtx& th = threads_[t];
  const std::uint16_t l = static_cast<std::uint16_t>(ins.a);
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

bool ReferenceMachine::step(std::uint8_t t) {
  ThreadCtx& th = threads_[t];
  const Instr& ins = p_.at(th.pc);
  auto& regs = th.regs;
  auto taint_of = [&](std::uint32_t r) -> bool { return th.taint[r]; };

  switch (ins.op) {
    case Op::kConst:
      regs[ins.a] = ins.imm;
      th.taint[ins.a] = false;
      th.pc++;
      break;
    case Op::kMov:
      regs[ins.a] = regs[ins.b];
      th.taint[ins.a] = th.taint[ins.b];
      th.pc++;
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kCmpLt:
    case Op::kCmpLe:
    case Op::kCmpEq:
    case Op::kCmpNe: {
      const Value x = regs[ins.b], y = regs[ins.c];
      Value r = 0;
      switch (ins.op) {
        case Op::kAdd:
          r = wrap_add(x, y);
          break;
        case Op::kSub:
          r = wrap_sub(x, y);
          break;
        case Op::kMul:
          r = wrap_mul(x, y);
          break;
        case Op::kDiv:
        case Op::kMod: {
          // Surviving a data-dependent crash check is a decision of the
          // execution tree: record it like a branch (true = survived).
          record_branch_bit(y != 0, taint_of(ins.c));
          if (cfg_.collect_branch_events) {
            branch_events_.push_back(
                {ins.site, y != 0, taint_of(ins.c), t});
          }
          if (y == 0) {
            if (const auto* g = crash_guard_at(th.pc);
                g != nullptr &&
                g->action == CrashGuardFix::Action::kSubstitute) {
              r = g->fallback;
              fix_intervened_ = true;
              break;
            }
            crash(CrashKind::kDivByZero, th.pc, ins.op == Op::kDiv ? 0 : 1);
            return false;
          }
          if (ins.op == Op::kDiv) {
            r = (x == INT64_MIN && y == -1) ? INT64_MIN : x / y;
          } else {
            r = (x == INT64_MIN && y == -1) ? 0 : x % y;
          }
          break;
        }
        case Op::kCmpLt:
          r = x < y;
          break;
        case Op::kCmpLe:
          r = x <= y;
          break;
        case Op::kCmpEq:
          r = x == y;
          break;
        case Op::kCmpNe:
          r = x != y;
          break;
        default:
          break;
      }
      regs[ins.a] = r;
      th.taint[ins.a] = taint_of(ins.b) || taint_of(ins.c);
      th.pc++;
      break;
    }
    case Op::kBranchIf: {
      bool dir = regs[ins.a] != 0;
      const bool tainted = taint_of(ins.a);
      // GuardPatch fix hook: steer away from a known crash direction when
      // the synthesized input predicate holds.
      if (cfg_.fixes != nullptr) {
        for (const auto& patch : cfg_.fixes->guards) {
          if (patch.site == ins.site && dir == patch.crash_direction &&
              patch.matches(cfg_.inputs)) {
            dir = !dir;
            fix_intervened_ = true;
            break;
          }
        }
      }
      record_branch_bit(dir, tainted);
      if (cfg_.collect_branch_events) {
        branch_events_.push_back({ins.site, dir, tainted, t});
      }
      th.pc = dir ? ins.b : ins.c;
      break;
    }
    case Op::kJump:
      th.pc = ins.a;
      break;
    case Op::kInput: {
      const Value v =
          ins.b < cfg_.inputs.size() ? cfg_.inputs[ins.b] : 0;
      regs[ins.a] = v;
      th.taint[ins.a] = true;
      th.pc++;
      break;
    }
    case Op::kSyscall: {
      const std::uint16_t sys = static_cast<std::uint16_t>(ins.b);
      const Value arg = regs[ins.c];
      const Value result =
          env_.call(sys, arg, syscall_index_, env_rng_, cfg_.fault_plan);
      if (cfg_.granularity == Granularity::kFull) {
        syscalls_.push_back({sys, syscall_index_, env_.classify(sys, arg, result)});
      }
      syscall_index_++;
      regs[ins.a] = result;
      th.taint[ins.a] = true;
      th.pc++;
      break;
    }
    case Op::kLoadG:
      regs[ins.a] = globals_[ins.b];
      th.taint[ins.a] = global_taint_[ins.b];
      th.pc++;
      break;
    case Op::kStoreG:
      globals_[ins.a] = regs[ins.b];
      global_taint_[ins.a] = th.taint[ins.b];
      th.pc++;
      break;
    case Op::kLock:
      return exec_lock(t, ins);
    case Op::kUnlock:
      exec_unlock(t, ins);
      return !done_;
    case Op::kAssert:
      record_branch_bit(regs[ins.a] != 0, taint_of(ins.a));
      if (cfg_.collect_branch_events) {
        branch_events_.push_back(
            {ins.site, regs[ins.a] != 0, taint_of(ins.a), t});
      }
      if (regs[ins.a] == 0) {
        if (const auto* g = crash_guard_at(th.pc);
            g != nullptr && g->action == CrashGuardFix::Action::kSkip) {
          fix_intervened_ = true;
          th.pc++;
          break;
        }
        crash(CrashKind::kAssertFailure, th.pc,
              static_cast<std::int64_t>(ins.b));
        return false;
      }
      th.pc++;
      break;
    case Op::kAbort:
      if (const auto* g = crash_guard_at(th.pc);
          g != nullptr && g->action == CrashGuardFix::Action::kSkip) {
        fix_intervened_ = true;
        th.pc++;
        break;
      }
      crash(CrashKind::kExplicitAbort, th.pc, static_cast<std::int64_t>(ins.a));
      return false;
    case Op::kOutput:
      outputs_.push_back(regs[ins.a]);
      th.pc++;
      break;
    case Op::kYield:
      yielded_ = true;
      th.pc++;
      break;
    case Op::kHalt:
      th.halted = true;
      break;
  }
  return true;
}

int ReferenceMachine::pick_next_thread() {
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
  std::vector<std::uint8_t> runnable;
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    if (threads_[t].runnable()) runnable.push_back(static_cast<std::uint8_t>(t));
  }
  if (runnable.empty()) return -1;
  return runnable[sched_rng_.next_below(runnable.size())];
}

ExecResult ReferenceMachine::run() {
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

    yielded_ = false;
    const std::uint32_t quantum = plan_cap_ > 0 ? plan_cap_ : cfg_.quantum;
    for (std::uint32_t q = 0; q < quantum && !done_; ++q) {
      if (!threads_[t].runnable()) break;
      record_schedule_step(t);
      steps_++;
      if (cfg_.schedule_plan != nullptr && plan_run_ < cfg_.schedule_plan->runs.size()) {
        plan_used_++;
      }
      if (!step(t)) break;
      if (yielded_) break;
      if (steps_ >= cfg_.max_steps) {
        bool all_halted = true;
        for (const auto& th : threads_) {
          if (!th.halted) all_halted = false;
        }
        outcome_ = all_halted ? Outcome::kOk : Outcome::kHang;
        done_ = true;
      }
    }
  }

  ExecResult result;
  Trace& tr = result.trace;
  tr.program = p_.id;
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
  return result;
}

}  // namespace

ExecResult execute_reference(const Program& program, const ExecConfig& config) {
  SB_CHECK(program.validate());
  SB_CHECK(program.num_threads() <= 256);
  ReferenceMachine m(program, config);
  return m.run();
}

}  // namespace softborg
