#include <gtest/gtest.h>

#include <set>

#include "minivm/builder.h"
#include "minivm/corpus.h"
#include "minivm/decode.h"
#include "minivm/interp.h"
#include "minivm/program.h"

namespace softborg {
namespace {

ExecResult run(const Program& p, std::vector<Value> inputs,
               std::uint64_t seed = 1) {
  ExecConfig cfg;
  cfg.inputs = std::move(inputs);
  cfg.seed = seed;
  return execute(p, cfg);
}

// ------------------------------------------------------------- builder -----

TEST(Builder, MinimalProgramValidates) {
  ProgramBuilder b("empty");
  b.halt();
  const Program p = b.build();
  EXPECT_TRUE(p.validate());
  EXPECT_EQ(p.num_threads(), 1u);
}

TEST(Builder, BranchSitesAreDense) {
  ProgramBuilder b("branches");
  const Reg r = b.reg();
  b.input(r, b.input_slot());
  for (int i = 0; i < 5; ++i) {
    auto t = b.label(), e = b.label();
    b.branch_if(r, t, e);
    b.bind(t);
    b.bind(e);
  }
  b.halt();
  const Program p = b.build();
  EXPECT_EQ(p.num_branch_sites, 5u);
}

TEST(Builder, ForwardAndBackwardLabels) {
  // Loop: count down from 3, then halt.
  ProgramBuilder b("loop");
  const Reg i = b.reg(), one = b.reg(), cond = b.reg();
  b.const_(i, 3);
  b.const_(one, 1);
  auto top = b.here();
  auto body = b.label(), done = b.label();
  b.const_(cond, 0);
  b.cmp_lt(cond, cond, i);  // 0 < i
  b.branch_if(cond, body, done);
  b.bind(body);
  b.sub(i, i, one);
  b.jump(top);
  b.bind(done);
  b.output(i);
  b.halt();
  const auto result = run(b.build(), {});
  EXPECT_EQ(result.trace.outcome, Outcome::kOk);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0], 0);
}

TEST(Program, ValidateCatchesBadJump) {
  ProgramBuilder b("x");
  b.halt();
  Program p = b.build();
  p.code.push_back({.op = Op::kJump, .a = 999});
  std::string err;
  EXPECT_FALSE(p.validate(&err));
  EXPECT_NE(err.find("jump"), std::string::npos);
}

TEST(Program, ValidateCatchesBadRegister) {
  ProgramBuilder b("x");
  b.halt();
  Program p = b.build();
  p.code.insert(p.code.begin(), {.op = Op::kConst, .a = 7});
  EXPECT_FALSE(p.validate());
}

// ------------------------------------------- checks that abort (SB_CHECK) --

// A two-register program whose first instruction writes register `reg`.
Program writes_register(std::uint32_t reg) {
  ProgramBuilder b("writes_register");
  const Reg r = b.reg();
  b.reg();
  b.const_(r, 1);
  b.halt();
  Program p = b.build();
  p.code[0].a = reg;
  return p;
}

TEST(ExecuteDeathTest, OutOfRangeRegisterAborts) {
  // execute() validates when predecode() builds the stream. The valid
  // program's stream is cached first, and the bad register differs from it
  // only in the top byte, so this also pins that the cache key hashes every
  // operand at full width: a hit would run an unvalidated program.
  const Program valid = writes_register(1);
  EXPECT_EQ(execute(valid, ExecConfig{}).trace.outcome, Outcome::kOk);
  const Program invalid = writes_register(1u | (1u << 24));
  EXPECT_DEATH(execute(invalid, ExecConfig{}), "validate");
  EXPECT_DEATH(execute(writes_register(2), ExecConfig{}), "validate");
}

TEST(ExecuteDeathTest, HeldStreamOfAnotherShapeAborts) {
  const Program p = writes_register(1);
  const DecodedProgram held = predecode(p, nullptr);
  EXPECT_EQ(execute(p, held, ExecConfig{}).trace.outcome, Outcome::kOk);

  Program longer = p;
  longer.code.push_back({.op = Op::kHalt});
  Program more_threads = p;
  more_threads.thread_entries.push_back(0);
  Program more_regs = p;
  more_regs.num_regs++;
  Program more_globals = p;
  more_globals.num_globals++;
  Program more_locks = p;
  more_locks.num_locks++;
  for (const Program* other :
       {&longer, &more_threads, &more_regs, &more_globals, &more_locks}) {
    EXPECT_DEATH(execute(*other, held, ExecConfig{}), "same_shape");
  }
}

TEST(ExecuteDeathTest, HeldStreamRefusesConfigItCannotHonor) {
  const Program p = writes_register(1);
  const DecodedProgram fused = predecode(p, nullptr);
  const DecodedProgram unfused = predecode(p, nullptr, {.fuse = false});

  const FixSet fixes;
  ExecConfig with_fixes;
  with_fixes.fixes = &fixes;
  EXPECT_DEATH(execute(p, fused, with_fixes), "fixes == nullptr");

  ExecConfig fusion_off;
  fusion_off.enable_fusion = false;
  EXPECT_DEATH(execute(p, fused, fusion_off), "wants_fused");
  EXPECT_DEATH(execute(p, unfused, ExecConfig{}), "wants_fused");
  OpPairCounts pairs;
  ExecConfig profiled;
  profiled.pair_counts = &pairs;
  EXPECT_DEATH(execute(p, fused, profiled), "wants_fused");

  // The stream that matches the config runs.
  EXPECT_EQ(execute(p, unfused, fusion_off).trace.outcome, Outcome::kOk);
  EXPECT_EQ(execute(p, unfused, profiled).trace.outcome, Outcome::kOk);
  EXPECT_EQ(pairs.total(), 1u);
}

// ---------------------------------------------------------- arithmetic -----

TEST(Interp, ArithmeticBasics) {
  ProgramBuilder b("arith");
  const Reg a = b.reg(), c = b.reg(), d = b.reg();
  b.const_(a, 10);
  b.const_(c, 3);
  b.add(d, a, c);
  b.output(d);  // 13
  b.sub(d, a, c);
  b.output(d);  // 7
  b.mul(d, a, c);
  b.output(d);  // 30
  b.div(d, a, c);
  b.output(d);  // 3
  b.mod(d, a, c);
  b.output(d);  // 1
  b.halt();
  const auto result = run(b.build(), {});
  EXPECT_EQ(result.outputs, (std::vector<Value>{13, 7, 30, 3, 1}));
}

TEST(Interp, ComparisonsProduceBooleans) {
  ProgramBuilder b("cmp");
  const Reg a = b.reg(), c = b.reg(), d = b.reg();
  b.const_(a, 5);
  b.const_(c, 5);
  b.cmp_lt(d, a, c);
  b.output(d);  // 0
  b.cmp_le(d, a, c);
  b.output(d);  // 1
  b.cmp_eq(d, a, c);
  b.output(d);  // 1
  b.cmp_ne(d, a, c);
  b.output(d);  // 0
  b.halt();
  const auto result = run(b.build(), {});
  EXPECT_EQ(result.outputs, (std::vector<Value>{0, 1, 1, 0}));
}

TEST(Interp, OverflowWrapsWithoutUB) {
  ProgramBuilder b("wrap");
  const Reg a = b.reg(), c = b.reg(), d = b.reg();
  b.const_(a, INT64_MAX);
  b.const_(c, 1);
  b.add(d, a, c);
  b.output(d);
  b.halt();
  const auto result = run(b.build(), {});
  EXPECT_EQ(result.outputs[0], INT64_MIN);
}

TEST(Interp, DivByZeroCrashes) {
  ProgramBuilder b("crash");
  const Reg a = b.reg(), z = b.reg(), d = b.reg();
  b.const_(a, 1);
  b.const_(z, 0);
  b.div(d, a, z);
  b.halt();
  const auto result = run(b.build(), {});
  EXPECT_EQ(result.trace.outcome, Outcome::kCrash);
  ASSERT_TRUE(result.trace.crash.has_value());
  EXPECT_EQ(result.trace.crash->kind, CrashKind::kDivByZero);
  EXPECT_EQ(result.trace.crash->pc, 2u);
}

TEST(Interp, IntMinDivMinusOneIsDefined) {
  ProgramBuilder b("intmin");
  const Reg a = b.reg(), c = b.reg(), d = b.reg();
  b.const_(a, INT64_MIN);
  b.const_(c, -1);
  b.div(d, a, c);
  b.output(d);
  b.mod(d, a, c);
  b.output(d);
  b.halt();
  const auto result = run(b.build(), {});
  EXPECT_EQ(result.trace.outcome, Outcome::kOk);
  EXPECT_EQ(result.outputs, (std::vector<Value>{INT64_MIN, 0}));
}

// --------------------------------------------------------------- taint -----

TEST(Interp, TaintedBranchesRecordBits) {
  ProgramBuilder b("taint1");
  const Reg x = b.reg(), t = b.reg();
  b.input(x, b.input_slot());
  b.cmp_lt_const(t, x, 10);
  auto yes = b.label(), no = b.label();
  b.branch_if(t, yes, no);
  b.bind(yes);
  b.bind(no);
  b.halt();
  const Program p = b.build();
  EXPECT_EQ(run(p, {5}).trace.branch_bits.size(), 1u);
  EXPECT_TRUE(run(p, {5}).trace.branch_bits[0]);
  EXPECT_FALSE(run(p, {15}).trace.branch_bits[0]);
}

TEST(Interp, UntaintedBranchesRecordNothing) {
  ProgramBuilder b("taint2");
  const Reg x = b.reg(), t = b.reg();
  b.const_(x, 5);
  b.cmp_lt_const(t, x, 10);
  auto yes = b.label(), no = b.label();
  b.branch_if(t, yes, no);
  b.bind(yes);
  b.bind(no);
  b.halt();
  EXPECT_EQ(run(b.build(), {}).trace.branch_bits.size(), 0u);
}

TEST(Interp, TaintPropagatesThroughArithmetic) {
  ProgramBuilder b("taint3");
  const Reg x = b.reg(), y = b.reg(), t = b.reg();
  b.input(x, b.input_slot());
  b.add_const(y, x, 1);   // y tainted
  b.cmp_lt_const(t, y, 100);
  auto yes = b.label(), no = b.label();
  b.branch_if(t, yes, no);
  b.bind(yes);
  b.bind(no);
  b.halt();
  EXPECT_EQ(run(b.build(), {1}).trace.branch_bits.size(), 1u);
}

TEST(Interp, ConstOverwriteClearsTaint) {
  ProgramBuilder b("taint4");
  const Reg x = b.reg(), t = b.reg();
  b.input(x, b.input_slot());
  b.const_(x, 7);  // clears taint
  b.cmp_lt_const(t, x, 10);
  auto yes = b.label(), no = b.label();
  b.branch_if(t, yes, no);
  b.bind(yes);
  b.bind(no);
  b.halt();
  EXPECT_EQ(run(b.build(), {1}).trace.branch_bits.size(), 0u);
}

TEST(Interp, TaintFlowsThroughGlobals) {
  ProgramBuilder b("taint5");
  const std::uint32_t g = b.global();
  const Reg x = b.reg(), y = b.reg(), t = b.reg();
  b.input(x, b.input_slot());
  b.storeg(g, x);
  b.loadg(y, g);
  b.cmp_lt_const(t, y, 10);
  auto yes = b.label(), no = b.label();
  b.branch_if(t, yes, no);
  b.bind(yes);
  b.bind(no);
  b.halt();
  EXPECT_EQ(run(b.build(), {1}).trace.branch_bits.size(), 1u);
}

TEST(Interp, SyscallResultsAreTainted) {
  ProgramBuilder b("taint6");
  const Reg x = b.reg(), n = b.reg(), t = b.reg();
  b.const_(n, 10);
  b.syscall(x, 2, n);  // clock()
  b.cmp_lt_const(t, x, 1000000);
  auto yes = b.label(), no = b.label();
  b.branch_if(t, yes, no);
  b.bind(yes);
  b.bind(no);
  b.halt();
  EXPECT_EQ(run(b.build(), {}).trace.branch_bits.size(), 1u);
}

// -------------------------------------------------------- granularities ----

TEST(Interp, GranularityNoneRecordsNoBits) {
  auto entry = make_media_parser();
  ExecConfig cfg;
  cfg.inputs = {13, 250};
  cfg.granularity = Granularity::kNone;
  const auto result = execute(entry.program, cfg);
  EXPECT_EQ(result.trace.branch_bits.size(), 0u);
  EXPECT_EQ(result.trace.outcome, Outcome::kCrash);
}

TEST(Interp, GranularityAllRecordsAtLeastTainted) {
  auto entry = make_media_parser();
  ExecConfig tainted_cfg, all_cfg;
  tainted_cfg.inputs = all_cfg.inputs = {20, 100};
  tainted_cfg.granularity = Granularity::kTaintedBranches;
  all_cfg.granularity = Granularity::kAllBranches;
  const auto tainted = execute(entry.program, tainted_cfg);
  const auto all = execute(entry.program, all_cfg);
  EXPECT_GE(all.trace.branch_bits.size(), tainted.trace.branch_bits.size());
}

TEST(Interp, FullGranularityRecordsSyscalls) {
  auto entry = make_file_copier();
  ExecConfig cfg;
  cfg.inputs = {10, 3};
  cfg.granularity = Granularity::kFull;
  const auto result = execute(entry.program, cfg);
  EXPECT_FALSE(result.trace.syscalls.empty());
}

// ------------------------------------------------------------ schedule -----

TEST(Interp, SingleThreadedHasNoSchedule) {
  auto entry = make_media_parser();
  const auto result = run(entry.program, {1, 1});
  EXPECT_TRUE(result.trace.schedule.empty());
}

TEST(Interp, MultiThreadedRecordsSchedule) {
  auto entry = make_bank_transfer();
  const auto result = run(entry.program, {50});
  EXPECT_FALSE(result.trace.schedule.empty());
  std::uint64_t total = 0;
  for (const auto& r : result.trace.schedule) total += r.steps;
  EXPECT_EQ(total, result.trace.steps);
}

TEST(Interp, DeterministicGivenSeed) {
  auto entry = make_bank_transfer();
  const auto a = run(entry.program, {150}, 42);
  const auto b = run(entry.program, {150}, 42);
  EXPECT_EQ(a.trace.outcome, b.trace.outcome);
  EXPECT_EQ(a.trace.branch_bits, b.trace.branch_bits);
  EXPECT_EQ(a.trace.schedule, b.trace.schedule);
  EXPECT_EQ(a.trace.steps, b.trace.steps);
}

TEST(Interp, SchedulePlanSteersExecution) {
  // Force thread 0 to run to completion before thread 1 starts: no deadlock
  // even with amount > 100.
  auto entry = make_bank_transfer();
  SchedulePlan plan;
  plan.runs = {{0, 100}};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ExecConfig cfg;
    cfg.inputs = {150};
    cfg.seed = seed;
    cfg.schedule_plan = &plan;
    const auto result = execute(entry.program, cfg);
    EXPECT_EQ(result.trace.outcome, Outcome::kOk) << "seed " << seed;
  }
}

// ------------------------------------------------------------ deadlock -----

TEST(Interp, BankTransferDeadlocksUnderSomeSchedule) {
  auto entry = make_bank_transfer();
  int deadlocks = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto result = run(entry.program, {150}, seed);
    if (result.trace.outcome == Outcome::kDeadlock) {
      deadlocks++;
      EXPECT_FALSE(result.deadlock_cycle.empty());
      EXPECT_FALSE(result.trace.lock_events.empty());
    }
  }
  EXPECT_GT(deadlocks, 0);
  EXPECT_LT(deadlocks, 200);  // not every schedule deadlocks
}

TEST(Interp, SafeAmountNeverDeadlocks) {
  auto entry = make_bank_transfer();
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const auto result = run(entry.program, {50}, seed);
    EXPECT_EQ(result.trace.outcome, Outcome::kOk) << "seed " << seed;
  }
}

TEST(Interp, SelfDeadlockDetected) {
  ProgramBuilder b("selflock");
  const auto l = b.lock();
  b.lock_acq(l);
  b.lock_acq(l);  // blocks on itself
  b.halt();
  const auto result = run(b.build(), {});
  EXPECT_EQ(result.trace.outcome, Outcome::kDeadlock);
}

TEST(Interp, UnlockNotHeldCrashes) {
  ProgramBuilder b("badunlock");
  const auto l = b.lock();
  b.lock_rel(l);
  b.halt();
  const auto result = run(b.build(), {});
  EXPECT_EQ(result.trace.outcome, Outcome::kCrash);
  EXPECT_EQ(result.trace.crash->kind, CrashKind::kExplicitAbort);
}

TEST(Interp, HaltWhileHoldingLockIsDeadlockForWaiter) {
  ProgramBuilder b("halt-holding");
  const auto l = b.lock();
  b.lock_acq(l);
  b.halt();  // never releases
  b.start_thread();
  b.lock_acq(l);
  b.halt();
  int deadlocks = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    if (run(b.build(), {}, seed).trace.outcome == Outcome::kDeadlock) {
      deadlocks++;
    }
  }
  EXPECT_GT(deadlocks, 0);
}

// ---------------------------------------------------------------- hang -----

TEST(Interp, InfiniteLoopClassifiedAsHang) {
  ProgramBuilder b("spin");
  auto top = b.here();
  b.jump(top);
  ExecConfig cfg;
  cfg.max_steps = 1000;
  const auto result = execute(b.build(), cfg);
  EXPECT_EQ(result.trace.outcome, Outcome::kHang);
  EXPECT_EQ(result.trace.steps, 1000u);
}

// ---------------------------------------------------------------- fixes ----

TEST(Fixes, GuardPatchAvertsCrash) {
  auto entry = make_media_parser();
  FixSet fixes;
  // Site 3 is the "size < 200" check inside format 13; crash direction is
  // `false` (size >= 200). Fire only for the known crash region.
  GuardPatch patch;
  patch.site = 3;
  patch.crash_direction = false;
  patch.when = {{0, 13, 13}, {1, 200, 255}};
  fixes.guards.push_back(patch);

  ExecConfig cfg;
  cfg.inputs = {13, 250};
  cfg.fixes = &fixes;
  const auto result = execute(entry.program, cfg);
  EXPECT_EQ(result.trace.outcome, Outcome::kOk);
  EXPECT_TRUE(result.trace.patched);
  EXPECT_TRUE(result.fix_intervened);
}

TEST(Fixes, GuardPatchDoesNotFireOutsidePredicate) {
  auto entry = make_media_parser();
  FixSet fixes;
  GuardPatch patch;
  patch.site = 3;
  patch.crash_direction = false;
  patch.when = {{0, 13, 13}, {1, 200, 255}};
  fixes.guards.push_back(patch);

  ExecConfig cfg;
  cfg.inputs = {13, 150};  // size < 200: healthy run
  cfg.fixes = &fixes;
  const auto result = execute(entry.program, cfg);
  EXPECT_EQ(result.trace.outcome, Outcome::kOk);
  EXPECT_FALSE(result.trace.patched);
}

TEST(Fixes, CrashGuardSubstituteAvertsDivByZero) {
  auto entry = make_file_copier();
  // Find the div pc: it is the only kDiv in the program.
  std::uint32_t div_pc = 0;
  for (std::uint32_t pc = 0; pc < entry.program.code.size(); ++pc) {
    if (entry.program.code[pc].op == Op::kDiv) div_pc = pc;
  }
  FixSet fixes;
  fixes.crash_guards.push_back({FixId(1), entry.program.id, div_pc,
                                CrashGuardFix::Action::kSubstitute, 0});

  FaultPlan faults;
  faults.forced[0] = 0;  // first read returns 0 bytes => would crash
  ExecConfig cfg;
  cfg.inputs = {10, 3};
  cfg.fixes = &fixes;
  cfg.fault_plan = &faults;
  const auto result = execute(entry.program, cfg);
  EXPECT_EQ(result.trace.outcome, Outcome::kOk);
  EXPECT_TRUE(result.trace.patched);
}

TEST(Fixes, CrashGuardSkipAvertsAbort) {
  auto entry = make_magic_lookup();
  std::uint32_t abort_pc = 0;
  for (std::uint32_t pc = 0; pc < entry.program.code.size(); ++pc) {
    if (entry.program.code[pc].op == Op::kAbort) abort_pc = pc;
  }
  FixSet fixes;
  fixes.crash_guards.push_back({FixId(2), entry.program.id, abort_pc,
                                CrashGuardFix::Action::kSkip, 0});
  ExecConfig cfg;
  cfg.inputs = {4242};
  cfg.fixes = &fixes;
  const auto result = execute(entry.program, cfg);
  EXPECT_EQ(result.trace.outcome, Outcome::kOk);
}

TEST(Fixes, LockAvoidanceEliminatesDeadlock) {
  auto entry = make_bank_transfer();
  FixSet fixes;
  fixes.lock_fixes.push_back({FixId(3), entry.program.id, {0, 1}});
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ExecConfig cfg;
    cfg.inputs = {150};
    cfg.seed = seed;
    cfg.fixes = &fixes;
    const auto result = execute(entry.program, cfg);
    EXPECT_EQ(result.trace.outcome, Outcome::kOk) << "seed " << seed;
  }
}

TEST(Fixes, LockAvoidancePreservesResultOnSafeRuns) {
  auto entry = make_bank_transfer();
  FixSet fixes;
  fixes.lock_fixes.push_back({FixId(3), entry.program.id, {0, 1}});
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    ExecConfig cfg;
    cfg.inputs = {50};
    cfg.seed = seed;
    cfg.fixes = &fixes;
    EXPECT_EQ(execute(entry.program, cfg).trace.outcome, Outcome::kOk);
  }
}

// ------------------------------------------------------------ guidance -----

TEST(Guidance, FaultPlanForcesSyscallResult) {
  auto entry = make_file_copier();
  FaultPlan faults;
  faults.forced[0] = 0;  // zero-length read on the first call
  ExecConfig cfg;
  cfg.inputs = {10, 3};
  cfg.fault_plan = &faults;
  const auto result = execute(entry.program, cfg);
  EXPECT_EQ(result.trace.outcome, Outcome::kCrash);
  EXPECT_EQ(result.trace.crash->kind, CrashKind::kDivByZero);
}

// -------------------------------------------------------------- corpus -----

TEST(Corpus, AllProgramsValidate) {
  for (const auto& entry : standard_corpus()) {
    std::string err;
    EXPECT_TRUE(entry.program.validate(&err))
        << entry.program.name << ": " << err;
    EXPECT_EQ(entry.domains.size(), entry.program.num_inputs)
        << entry.program.name;
  }
}

TEST(Corpus, MediaParserCrashRegionExact) {
  auto entry = make_media_parser();
  // Exhaustive sweep of the whole input domain against ground truth.
  for (Value format = 0; format <= 63; ++format) {
    for (Value size = 0; size <= 255; size += 5) {
      const auto result = run(entry.program, {format, size});
      const bool should_crash = format == 13 && size >= 200;
      EXPECT_EQ(result.trace.outcome == Outcome::kCrash, should_crash)
          << "format=" << format << " size=" << size;
    }
  }
}

TEST(Corpus, MagicLookupOnlyCrashesOnNeedle) {
  auto entry = make_magic_lookup();
  EXPECT_EQ(run(entry.program, {4242}).trace.outcome, Outcome::kCrash);
  EXPECT_EQ(run(entry.program, {4241}).trace.outcome, Outcome::kOk);
  EXPECT_EQ(run(entry.program, {0}).trace.outcome, Outcome::kOk);
}

TEST(Corpus, ConfigSpaceOutputsBitmask) {
  auto entry = make_config_space(4);
  const auto result = run(entry.program, {1, 0, 1, 1});
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0], 0b1101);
  EXPECT_EQ(result.trace.branch_bits.size(), 4u);
}

TEST(Corpus, ConfigSpaceAllPathsDistinct) {
  auto entry = make_config_space(5);
  std::set<std::string> paths;
  for (Value mask = 0; mask < 32; ++mask) {
    std::vector<Value> inputs;
    for (int j = 0; j < 5; ++j) inputs.push_back((mask >> j) & 1);
    paths.insert(run(entry.program, inputs).trace.branch_bits.to_string());
  }
  EXPECT_EQ(paths.size(), 32u);
}

TEST(Corpus, WorkerPoolNeverAbortsInSystem) {
  auto entry = make_worker_pool();
  for (Value raw = 0; raw <= 255; ++raw) {
    EXPECT_EQ(run(entry.program, {raw}).trace.outcome, Outcome::kOk)
        << "raw=" << raw;
  }
}

TEST(Corpus, RaceCounterFailsUnderSomeSchedule) {
  auto entry = make_race_counter();
  int failures = 0, oks = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const auto result = run(entry.program, {}, seed);
    if (result.trace.outcome == Outcome::kCrash) {
      EXPECT_EQ(result.trace.crash->kind, CrashKind::kAssertFailure);
      failures++;
    } else if (result.trace.outcome == Outcome::kOk) {
      oks++;
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_GT(oks, 0);
}

TEST(Corpus, FileCopierCrashesOnZeroRead) {
  auto entry = make_file_copier();
  int crashes = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    // Small chunk => higher chance of a zero-length read.
    const auto result = run(entry.program, {2, 8}, seed);
    if (result.trace.outcome == Outcome::kCrash) crashes++;
  }
  EXPECT_GT(crashes, 0);
}

}  // namespace
}  // namespace softborg
