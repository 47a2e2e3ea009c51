#include "sym/executor.h"

#include <algorithm>

#include "common/check.h"

namespace softborg {

namespace {
constexpr std::uint32_t kNoForcedStop = 0;
}  // namespace

struct SymbolicExecutor::State {
  std::uint32_t pc = 0;
  std::vector<Expr> regs;
  std::vector<Expr> globals;
  std::vector<std::uint16_t> held_locks;
  PathConstraint constraints;
  std::vector<SymDecision> decisions;
  std::vector<VarDomain> unknown_domains;
  Assignment model;  // witness of `constraints` (kept current)
  std::uint32_t syscall_count = 0;
  std::uint64_t steps = 0;
};

class SymbolicExecutor::Impl {
 public:
  Impl(const Program& program, ExploreOptions& options, ExploreStats& stats)
      : p_(program),
        opt_(options),
        stats_(stats),
        env_(options.env != nullptr ? *options.env : default_env()) {
    SB_CHECK(p_.num_threads() == 1);
  }

  // forced: decisions to follow before forking. follow_only: never fork
  // (used by path_for_decisions). stop_step/crash: pin a recorded crash.
  std::vector<SymPath> run(State initial,
                           const std::vector<SymDecision>& forced,
                           bool follow_only, std::uint64_t stop_step,
                           const std::optional<CrashInfo>& recorded_crash) {
    forced_ = &forced;
    follow_only_ = follow_only;
    stop_step_ = stop_step;
    recorded_crash_ = recorded_crash;
    paths_.clear();

    stack_.clear();
    stack_.push_back(std::move(initial));
    while (!stack_.empty()) {
      if (paths_.size() >= opt_.max_paths ||
          stats_.total_steps >= opt_.max_total_steps) {
        stats_.complete = false;
        break;
      }
      State s = std::move(stack_.back());
      stack_.pop_back();
      advance(std::move(s));
    }
    return std::move(paths_);
  }

 private:
  // Runs one state until it terminates or forks (forked children go on the
  // stack).
  void advance(State s) {
    for (;;) {
      if (s.steps >= opt_.max_steps_per_path) {
        stats_.complete = false;
        finish(std::move(s), PathTerminal::kBudget, std::nullopt);
        return;
      }
      s.steps++;
      stats_.total_steps++;
      const Instr& ins = p_.at(s.pc);
      switch (ins.op) {
        case Op::kConst:
          s.regs[ins.a] = make_const(ins.imm);
          s.pc++;
          break;
        case Op::kMov:
          s.regs[ins.a] = s.regs[ins.b];
          s.pc++;
          break;
#define SB_CASE(OP, ...) case Op::OP:
        SB_MINIVM_PLAIN_ALU(SB_CASE) {
          s.regs[ins.a] = make_bin(binop_of(ins.op), s.regs[ins.b],
                                   s.regs[ins.c]);
          s.pc++;
          break;
        }
        SB_MINIVM_DIVISION(SB_CASE) {
#undef SB_CASE
          if (!handle_div(s, ins)) return;  // crashed or became infeasible
          break;
        }
        case Op::kBranchIf: {
          if (!handle_branch(s, ins)) return;  // forked or infeasible
          break;
        }
        case Op::kJump:
          s.pc = ins.a;
          break;
        case Op::kInput:
          s.regs[ins.a] = make_input(ins.b);
          s.pc++;
          break;
        case Op::kSyscall: {
          const std::uint16_t sys = static_cast<std::uint16_t>(ins.b);
          const SyscallSpec& spec = env_.spec(sys);
          VarDomain dom{std::min<Value>(spec.fail_prob > 0 ? spec.fail_value
                                                           : spec.lo,
                                        spec.lo),
                        spec.hi};
          // Tighter bound when the argument is concrete and arg-bounded.
          const Expr& arg = s.regs[ins.c];
          if (spec.arg_bounded && is_const(arg) && arg->cval >= 0) {
            dom.hi = std::min(dom.hi, arg->cval);
            dom.lo = std::min(dom.lo, dom.hi);
          }
          s.regs[ins.a] = make_unknown(s.syscall_count);
          s.unknown_domains.push_back(dom);
          s.syscall_count++;
          s.pc++;
          break;
        }
        case Op::kLoadG:
          s.regs[ins.a] = s.globals[ins.b];
          s.pc++;
          break;
        case Op::kStoreG:
          s.globals[ins.a] = s.regs[ins.b];
          s.pc++;
          break;
        case Op::kLock: {
          const std::uint16_t l = static_cast<std::uint16_t>(ins.a);
          if (std::find(s.held_locks.begin(), s.held_locks.end(), l) !=
              s.held_locks.end()) {
            finish(std::move(s), PathTerminal::kDeadlock, std::nullopt);
            return;
          }
          s.held_locks.push_back(l);
          s.pc++;
          break;
        }
        case Op::kUnlock: {
          const std::uint16_t l = static_cast<std::uint16_t>(ins.a);
          auto it = std::find(s.held_locks.begin(), s.held_locks.end(), l);
          if (it == s.held_locks.end()) {
            finish(std::move(s), PathTerminal::kCrash,
                   CrashInfo{CrashKind::kExplicitAbort, s.pc, 1000 + l});
            return;
          }
          s.held_locks.erase(it);
          s.pc++;
          break;
        }
        case Op::kAssert: {
          if (!handle_assert(s, ins)) return;
          break;
        }
        case Op::kAbort:
          finish(std::move(s), PathTerminal::kCrash,
                 CrashInfo{CrashKind::kExplicitAbort, s.pc,
                           static_cast<std::int64_t>(ins.a)});
          return;
        case Op::kOutput:
        case Op::kYield:
          s.pc++;
          break;
        case Op::kHalt:
          finish(std::move(s), PathTerminal::kOk, std::nullopt);
          return;
      }
    }
  }

  SolveResult query(const PathConstraint& pc,
                    const std::vector<VarDomain>& unknown_domains) {
    stats_.solver_calls++;
    return solve_path(pc, opt_.input_domains, unknown_domains, opt_.solver);
  }

  SolveStatus check(const PathConstraint& pc, const State& s,
                    Assignment* model) {
    const SolveResult r = query(pc, s.unknown_domains);
    switch (r.status) {
      case SolveStatus::kSat:
        stats_.solver_sat++;
        if (model != nullptr) *model = r.model;
        break;
      case SolveStatus::kUnsat:
        stats_.solver_unsat++;
        break;
      case SolveStatus::kUnknown:
        stats_.solver_unknown++;
        stats_.complete = false;
        break;
    }
    return r.status;
  }

  // Returns false if the state terminated (caller must stop advancing it).
  bool handle_div(State& s, const Instr& ins) {
    const Expr divisor = s.regs[ins.c];
    const CrashKind kind = CrashKind::kDivByZero;
    const std::int64_t detail = ins.op == Op::kDiv ? 0 : 1;

    if (is_const(divisor)) {
      if (divisor->cval == 0) {
        finish(std::move(s), PathTerminal::kCrash,
               CrashInfo{kind, s.pc, detail});
        return false;
      }
      s.regs[ins.a] =
          make_bin(binop_of(ins.op), s.regs[ins.b], s.regs[ins.c]);
      s.pc++;
      return true;
    }

    // Symbolic divisor: this is a decision site (crash = direction false,
    // survive = direction true), handled exactly like a branch.
    const Expr survive_cond =
        make_bin(BinOp::kNe, divisor, make_const(0));

    // Forced prefix?
    if (s.decisions.size() < forced_->size()) {
      const SymDecision want = (*forced_)[s.decisions.size()];
      if (want.site != ins.site) {
        stats_.complete = false;
        return false;
      }
      s.constraints.push_back({survive_cond, want.taken});
      s.decisions.push_back(want);
      if (!want.taken) {
        finish(std::move(s), PathTerminal::kCrash,
               CrashInfo{kind, s.pc, detail});
        return false;
      }
      s.regs[ins.a] =
          make_bin(binop_of(ins.op), s.regs[ins.b], s.regs[ins.c]);
      s.pc++;
      return true;
    }
    if (follow_only_) {
      stats_.complete = false;
      return false;
    }

    if (opt_.check_crashes) {
      // Fork the crash side: divisor == 0.
      PathConstraint crash_pc = s.constraints;
      crash_pc.push_back({survive_cond, false});
      Assignment crash_model;
      if (check(crash_pc, s, &crash_model) == SolveStatus::kSat) {
        State crashed = s;
        crashed.constraints = std::move(crash_pc);
        crashed.model = std::move(crash_model);
        crashed.decisions.push_back({ins.site, false});
        finish(std::move(crashed), PathTerminal::kCrash,
               CrashInfo{kind, s.pc, detail});
      }
    }
    // Continue with divisor != 0.
    s.constraints.push_back({survive_cond, true});
    s.decisions.push_back({ins.site, true});
    Assignment model;
    const SolveStatus st = check(s.constraints, s, &model);
    if (st == SolveStatus::kUnsat) {
      stats_.infeasible_pruned++;
      return false;  // every compliant run crashes here
    }
    if (st == SolveStatus::kSat) s.model = std::move(model);
    s.regs[ins.a] =
        make_bin(binop_of(ins.op), s.regs[ins.b], s.regs[ins.c]);
    s.pc++;
    return true;
  }

  bool handle_assert(State& s, const Instr& ins) {
    const Expr cond = s.regs[ins.a];
    const CrashKind kind = CrashKind::kAssertFailure;
    const std::int64_t detail = static_cast<std::int64_t>(ins.b);

    if (is_const(cond)) {
      if (cond->cval == 0) {
        finish(std::move(s), PathTerminal::kCrash,
               CrashInfo{kind, s.pc, detail});
        return false;
      }
      s.pc++;
      return true;
    }

    // Forced prefix?
    if (s.decisions.size() < forced_->size()) {
      const SymDecision want = (*forced_)[s.decisions.size()];
      if (want.site != ins.site) {
        stats_.complete = false;
        return false;
      }
      s.constraints.push_back({cond, want.taken});
      s.decisions.push_back(want);
      if (!want.taken) {
        finish(std::move(s), PathTerminal::kCrash,
               CrashInfo{kind, s.pc, detail});
        return false;
      }
      s.pc++;
      return true;
    }
    if (follow_only_) {
      stats_.complete = false;
      return false;
    }

    if (opt_.check_crashes) {
      PathConstraint crash_pc = s.constraints;
      crash_pc.push_back({cond, false});
      Assignment crash_model;
      if (check(crash_pc, s, &crash_model) == SolveStatus::kSat) {
        State crashed = s;
        crashed.constraints = std::move(crash_pc);
        crashed.model = std::move(crash_model);
        crashed.decisions.push_back({ins.site, false});
        finish(std::move(crashed), PathTerminal::kCrash,
               CrashInfo{kind, s.pc, detail});
      }
    }
    s.constraints.push_back({cond, true});
    s.decisions.push_back({ins.site, true});
    Assignment model;
    const SolveStatus st = check(s.constraints, s, &model);
    if (st == SolveStatus::kUnsat) {
      stats_.infeasible_pruned++;
      return false;
    }
    if (st == SolveStatus::kSat) s.model = std::move(model);
    s.pc++;
    return true;
  }

  bool handle_branch(State& s, const Instr& ins) {
    const Expr cond = s.regs[ins.a];
    if (is_const(cond)) {
      // Deterministic branch: reconstructed, not a decision (matches the
      // interpreter's taint rule).
      s.pc = cond->cval != 0 ? ins.b : ins.c;
      return true;
    }

    // Forced prefix?
    if (s.decisions.size() < forced_->size()) {
      const SymDecision want = (*forced_)[s.decisions.size()];
      if (want.site != ins.site) {
        // Prefix does not match this program point: inconsistent input.
        stats_.complete = false;
        return false;
      }
      s.constraints.push_back({cond, want.taken});
      s.decisions.push_back(want);
      s.pc = want.taken ? ins.b : ins.c;
      return true;
    }
    if (follow_only_) {
      // Decisions exhausted in follow mode: the remaining branch must not
      // exist on the recorded path.
      stats_.complete = false;
      return false;
    }

    // Fork both directions, feasibility-checked.
    for (const bool dir : {false, true}) {
      PathConstraint child_pc = s.constraints;
      child_pc.push_back({cond, dir});
      Assignment model;
      const SolveStatus st = check(child_pc, s, &model);
      if (st == SolveStatus::kUnsat) {
        stats_.infeasible_pruned++;
        continue;
      }
      State child = s;
      child.constraints = std::move(child_pc);
      if (st == SolveStatus::kSat) child.model = std::move(model);
      child.decisions.push_back({ins.site, dir});
      child.pc = dir ? ins.b : ins.c;
      stack_.push_back(std::move(child));
    }
    return false;  // children continue on the stack
  }

  void finish(State s, PathTerminal terminal,
              std::optional<CrashInfo> crash) {
    SymPath path;
    path.decisions = std::move(s.decisions);
    path.constraints = std::move(s.constraints);
    path.terminal = terminal;
    path.crash = crash;
    path.unknown_domains = std::move(s.unknown_domains);
    path.steps = s.steps;
    path.model = std::move(s.model);
    // Ensure the model is a real witness (it can be stale when the last
    // literals were added without a solver call).
    if (satisfies(path.constraints, path.model)) {
      path.model_verified = true;
    } else {
      const SolveResult r = query(path.constraints, path.unknown_domains);
      if (r.status == SolveStatus::kSat) {
        path.model = r.model;
        path.model_verified = true;
      } else if (r.status == SolveStatus::kUnknown) {
        stats_.solver_unknown++;
        stats_.complete = false;
      } else {
        // Infeasible terminal (possible only in forced/follow modes with a
        // bad prefix): drop it.
        stats_.infeasible_pruned++;
        return;
      }
    }
    if (terminal == PathTerminal::kCrash) stats_.crash_paths++;
    stats_.paths_completed++;
    paths_.push_back(std::move(path));
  }

  const Program& p_;
  ExploreOptions& opt_;
  ExploreStats& stats_;
  const EnvModel& env_;

  const std::vector<SymDecision>* forced_ = nullptr;
  bool follow_only_ = false;
  std::uint64_t stop_step_ = kNoForcedStop;
  std::optional<CrashInfo> recorded_crash_;

  std::vector<State> stack_;
  std::vector<SymPath> paths_;
};

SymbolicExecutor::SymbolicExecutor(const Program& program,
                                   ExploreOptions options)
    : program_(program), options_(std::move(options)) {}

std::vector<SymPath> SymbolicExecutor::explore() {
  State init;
  init.pc = program_.thread_entries[0];
  init.regs.assign(program_.num_regs, make_const(0));
  init.globals.assign(program_.num_globals, make_const(0));
  init.model.inputs.reserve(options_.input_domains.size());
  for (const auto& d : options_.input_domains) init.model.inputs.push_back(d.lo);
  Impl impl(program_, options_, stats_);
  return impl.run(std::move(init), {}, false, 0, std::nullopt);
}

std::vector<SymPath> SymbolicExecutor::explore_unit(
    std::uint32_t entry_pc,
    const std::vector<std::pair<Reg, VarDomain>>& params) {
  State init;
  init.pc = entry_pc;
  init.regs.assign(program_.num_regs, make_const(0));
  init.globals.assign(program_.num_globals, make_const(0));
  // Unit parameters become fresh symbolic inputs; their domains extend (or
  // override) the configured input domains.
  std::uint32_t next_slot =
      static_cast<std::uint32_t>(options_.input_domains.size());
  for (const auto& [reg, domain] : params) {
    init.regs[reg] = make_input(next_slot);
    options_.input_domains.push_back(domain);
    next_slot++;
  }
  init.model.inputs.reserve(options_.input_domains.size());
  for (const auto& d : options_.input_domains) init.model.inputs.push_back(d.lo);
  Impl impl(program_, options_, stats_);
  return impl.run(std::move(init), {}, false, 0, std::nullopt);
}

std::vector<SymPath> SymbolicExecutor::explore_subtree(
    const std::vector<SymDecision>& prefix) {
  State init;
  init.pc = program_.thread_entries[0];
  init.regs.assign(program_.num_regs, make_const(0));
  init.globals.assign(program_.num_globals, make_const(0));
  init.model.inputs.reserve(options_.input_domains.size());
  for (const auto& d : options_.input_domains) init.model.inputs.push_back(d.lo);
  Impl impl(program_, options_, stats_);
  return impl.run(std::move(init), prefix, false, 0, std::nullopt);
}

std::optional<SymPath> SymbolicExecutor::path_for_decisions(
    const std::vector<SymDecision>& decisions, std::uint64_t total_steps,
    const std::optional<CrashInfo>& crash) {
  State init;
  init.pc = program_.thread_entries[0];
  init.regs.assign(program_.num_regs, make_const(0));
  init.globals.assign(program_.num_globals, make_const(0));
  init.model.inputs.reserve(options_.input_domains.size());
  for (const auto& d : options_.input_domains) init.model.inputs.push_back(d.lo);
  Impl impl(program_, options_, stats_);
  auto paths =
      impl.run(std::move(init), decisions, true, total_steps, crash);
  if (paths.empty()) return std::nullopt;
  return std::move(paths.front());
}

std::vector<VarDomain> domains_of(const CorpusEntry& entry) {
  std::vector<VarDomain> ds;
  ds.reserve(entry.domains.size());
  for (const auto& d : entry.domains) ds.push_back({d.lo, d.hi});
  return ds;
}

}  // namespace softborg
