#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <set>

#include "minivm/builder.h"
#include "minivm/corpus.h"
#include "minivm/decode.h"
#include "minivm/disasm.h"
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

// What each operand of each opcode names, written out independently of
// src/minivm so that this test pins validate() rather than restating it.
enum class Operand { kNone, kReg, kTarget, kGlobal, kLock, kSlot, kFree };

struct OpcodeShape {
  Op op;
  Operand a, b, c;
  bool site;  // owns a decision site
};

constexpr OpcodeShape kShapes[] = {
    {Op::kConst, Operand::kReg, Operand::kNone, Operand::kNone, false},
    {Op::kMov, Operand::kReg, Operand::kReg, Operand::kNone, false},
    {Op::kAdd, Operand::kReg, Operand::kReg, Operand::kReg, false},
    {Op::kSub, Operand::kReg, Operand::kReg, Operand::kReg, false},
    {Op::kMul, Operand::kReg, Operand::kReg, Operand::kReg, false},
    {Op::kDiv, Operand::kReg, Operand::kReg, Operand::kReg, true},
    {Op::kMod, Operand::kReg, Operand::kReg, Operand::kReg, true},
    {Op::kCmpLt, Operand::kReg, Operand::kReg, Operand::kReg, false},
    {Op::kCmpLe, Operand::kReg, Operand::kReg, Operand::kReg, false},
    {Op::kCmpEq, Operand::kReg, Operand::kReg, Operand::kReg, false},
    {Op::kCmpNe, Operand::kReg, Operand::kReg, Operand::kReg, false},
    {Op::kBranchIf, Operand::kReg, Operand::kTarget, Operand::kTarget, true},
    {Op::kJump, Operand::kTarget, Operand::kNone, Operand::kNone, false},
    {Op::kInput, Operand::kReg, Operand::kSlot, Operand::kNone, false},
    // Syscall id, assert message and abort code are free-form: validate()
    // accepts any value there.
    {Op::kSyscall, Operand::kReg, Operand::kFree, Operand::kReg, false},
    {Op::kLoadG, Operand::kReg, Operand::kGlobal, Operand::kNone, false},
    {Op::kStoreG, Operand::kGlobal, Operand::kReg, Operand::kNone, false},
    {Op::kLock, Operand::kLock, Operand::kNone, Operand::kNone, false},
    {Op::kUnlock, Operand::kLock, Operand::kNone, Operand::kNone, false},
    {Op::kAssert, Operand::kReg, Operand::kFree, Operand::kNone, true},
    {Op::kAbort, Operand::kFree, Operand::kNone, Operand::kNone, false},
    {Op::kOutput, Operand::kReg, Operand::kNone, Operand::kNone, false},
    {Op::kYield, Operand::kNone, Operand::kNone, Operand::kNone, false},
    {Op::kHalt, Operand::kNone, Operand::kNone, Operand::kNone, false},
};
static_assert(std::size(kShapes) == kNumOps);

// [instr, halt] with two registers, one global, lock and input slot, and
// `copies` copies of the instruction under test (site ids 0..copies-1 when
// it owns a site).
Program shape_program(const OpcodeShape& s, std::uint32_t copies = 1) {
  Program p;
  p.name = "shape";
  for (std::uint32_t i = 0; i < copies; ++i) {
    p.code.push_back({.op = s.op, .site = s.site ? i : 0});
  }
  p.code.push_back({.op = Op::kHalt});
  p.thread_entries = {0};
  p.num_regs = 2;
  p.num_globals = 1;
  p.num_locks = 1;
  p.num_inputs = 1;
  p.num_branch_sites = s.site ? copies : 0;
  return p;
}

// The first value out of range for an operand of `kind` in `p`.
std::uint32_t first_out_of_range(const Program& p, Operand kind) {
  switch (kind) {
    case Operand::kReg: return p.num_regs;
    case Operand::kTarget: return static_cast<std::uint32_t>(p.code.size());
    case Operand::kGlobal: return p.num_globals;
    case Operand::kLock: return p.num_locks;
    case Operand::kSlot: return p.num_inputs;
    default: return 0;
  }
}

TEST(Program, ValidateChecksEveryOperandOfEveryOpcode) {
  for (const OpcodeShape& s : kShapes) {
    const std::string name = op_name(s.op);
    const Program base = shape_program(s);
    std::string err;
    ASSERT_TRUE(base.validate(&err)) << name << ": " << err;

    const std::pair<Operand, std::uint32_t Instr::*> operands[] = {
        {s.a, &Instr::a}, {s.b, &Instr::b}, {s.c, &Instr::c}};
    for (const auto& [kind, field] : operands) {
      Program p = base;
      if (kind == Operand::kNone || kind == Operand::kFree) {
        // Unchecked: any value is accepted.
        p.code[0].*field = 0xffffffffu;
        EXPECT_TRUE(p.validate(&err)) << name << ": " << err;
        continue;
      }
      p.code[0].*field = first_out_of_range(p, kind) - 1;  // last valid
      EXPECT_TRUE(p.validate(&err)) << name << ": " << err;
      p.code[0].*field = first_out_of_range(p, kind);
      EXPECT_FALSE(p.validate()) << name << " accepted an operand out of range";
      p.code[0].*field = 0xffffffffu;
      EXPECT_FALSE(p.validate()) << name << " accepted 0xffffffff";
    }

    Program site = base;
    site.code[0].site = 7;
    if (!s.site) {
      EXPECT_TRUE(site.validate(&err)) << name << ": " << err;
      continue;
    }
    EXPECT_FALSE(site.validate()) << name << " accepted a site out of range";
    Program two = shape_program(s, 2);
    ASSERT_TRUE(two.validate(&err)) << name << ": " << err;
    two.code[1].site = 0;  // duplicate, and site 1 left unused
    EXPECT_FALSE(two.validate()) << name << " accepted a duplicate site";
    Program sparse = base;
    sparse.num_branch_sites = 2;  // site 1 declared but never used
    EXPECT_FALSE(sparse.validate()) << name << " accepted non-dense sites";
  }
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

// -------------------------------------------------------- disassembly -----

// Compares `actual` with tests/golden/<file>. On a mismatch the actual
// text is written to <file>.actual in the working directory, so
// `diff tests/golden/<file> <build>/tests/<file>.actual` shows the change.
void expect_golden(const std::string& actual, const std::string& file) {
  std::ifstream in(std::string(SOFTBORG_GOLDEN_DIR) + "/" + file);
  const std::string expected((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (!in.good() && expected.empty()) ADD_FAILURE() << "no golden " << file;
  if (actual != expected) {
    std::ofstream(file + ".actual") << actual;
    ADD_FAILURE() << "text differs from tests/golden/" << file
                  << "; the actual text is in " << file << ".actual";
  }
}

// Every opcode, every superinstruction, the const+cmp deferral and a
// cmp+branch pair that does not fuse (the branch tests another register),
// over two threads.
Program every_opcode_program() {
  ProgramBuilder b("every_opcode", 77);
  const Reg r0 = b.reg(), r1 = b.reg(), r2 = b.reg(), r3 = b.reg(),
            r4 = b.reg(), r5 = b.reg();
  const std::uint32_t g = b.global();
  const std::uint32_t l = b.lock();
  const std::uint32_t in = b.input_slot();
  b.const_(r0, 5);
  b.add(r1, r0, r0);
  b.const_(r2, -3);
  b.sub(r1, r1, r2);
  b.const_(r2, 2);
  b.mul(r1, r1, r2);
  b.const_(r2, 1);
  b.cmp_lt(r3, r1, r2);
  b.const_(r2, 1);
  b.cmp_le(r3, r1, r2);
  b.const_(r2, 1);
  b.cmp_eq(r3, r1, r2);
  b.const_(r2, 1);
  b.cmp_ne(r3, r1, r2);
  b.input(r4, in);
  auto next = b.label();
  b.cmp_lt(r3, r4, r0);
  b.branch_if(r3, next, next);
  b.bind(next);
  next = b.label();
  b.cmp_le(r3, r4, r0);
  b.branch_if(r3, next, next);
  b.bind(next);
  next = b.label();
  b.cmp_eq(r3, r4, r0);
  b.branch_if(r3, next, next);
  b.bind(next);
  next = b.label();
  b.cmp_ne(r3, r4, r0);
  b.branch_if(r3, next, next);
  b.bind(next);
  next = b.label();
  b.const_(r2, 7);  // deferred: the cmp fuses with the branch instead
  b.cmp_eq(r3, r4, r2);
  b.branch_if(r3, next, next);
  b.bind(next);
  next = b.label();
  b.cmp_lt(r3, r4, r0);
  b.branch_if(r5, next, next);  // tests r5, not the compare: no fusion
  b.bind(next);
  b.mov(r5, r4);
  b.storeg(g, r5);
  b.loadg(r5, g);
  b.div(r1, r1, r4);
  b.mod(r1, r1, r4);
  b.syscall(r1, 2, r4);
  b.lock_acq(l);
  b.lock_rel(l);
  b.assert_true(r1, 9);
  b.output(r1);
  b.yield();
  auto end = b.label();
  b.jump(end);
  b.abort_now(3);
  b.bind(end);
  b.halt();
  b.start_thread();
  b.yield();
  b.halt();
  return b.build();
}

TEST(Disasm, GoldenListingsOfEveryOpcode) {
  const Program p = every_opcode_program();
  std::set<Op> ops;
  for (const Instr& ins : p.code) ops.insert(ins.op);
  EXPECT_EQ(ops.size(), kNumOps);
  const DecodedProgram fused = predecode(p, nullptr);
  std::set<Tok> supers;
  for (const DecodedInstr& slot : fused.code) {
    if (slot.len == 2) supers.insert(slot.tok);
  }
  EXPECT_EQ(supers.size(), kNumToks - kNumOps);

  expect_golden(disassemble(p), "every_opcode.disasm");
  expect_golden(disassemble_decoded(p, fused), "every_opcode.decoded");
  expect_golden(disassemble_decoded(p, predecode(p, nullptr, {.fuse = false})),
                "every_opcode.unfused");
}

TEST(Disasm, GoldenPairCountTableOfEveryOpcodePair) {
  // Each of the 576 pairs gets a distinct count, scrambled against opcode
  // order (577 is prime), so the table's row order is fixed.
  OpPairCounts counts;
  for (std::size_t i = 0; i < counts.counts.size(); ++i) {
    counts.counts[i] = (i * 7919) % 577 + 1;
  }
  expect_golden(format_pair_counts(counts), "every_pair.counts");
  expect_golden(format_pair_counts(counts, 5), "every_pair_top5.counts");
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
