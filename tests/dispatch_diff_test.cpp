// Differential suite for the predecode + direct-threaded dispatch rebuild:
// the new core (fused and unfused) must be byte-identical to the frozen
// pre-rebuild interpreter (execute_reference, interp_ref.cpp) on every
// observable — encoded trace bytes, outputs, branch events, deadlock
// cycles, fix interventions — across random programs, corpus programs,
// schedules, fault plans, and installed fixes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "interp_ref.h"
#include "minivm/builder.h"
#include "minivm/corpus.h"
#include "minivm/decode.h"
#include "minivm/disasm.h"
#include "minivm/interp.h"
#include "minivm/random_program.h"
#include "trace/codec.h"

namespace softborg {
namespace {

constexpr Granularity kAllGranularities[] = {
    Granularity::kNone, Granularity::kTaintedBranches,
    Granularity::kAllBranches, Granularity::kFull};

void expect_same(const ExecResult& got, const ExecResult& want,
                 const std::string& ctx) {
  EXPECT_EQ(encode_trace(got.trace), encode_trace(want.trace)) << ctx;
  EXPECT_TRUE(got.trace == want.trace) << ctx;
  EXPECT_EQ(got.outputs, want.outputs) << ctx;
  EXPECT_EQ(got.branch_events, want.branch_events) << ctx;
  EXPECT_EQ(got.deadlock_cycle, want.deadlock_cycle) << ctx;
  EXPECT_EQ(got.fix_intervened, want.fix_intervened) << ctx;
}

// Runs `p` five ways — frozen reference, then the new core unfused and
// fused, each through the cached execute(program, config) and through a
// held stream decoded outside the cache — and requires all observables
// identical.
void expect_all_backends_identical(const Program& p, const ExecConfig& cfg,
                                   const std::string& ctx) {
  const ExecResult want = execute_reference(p, cfg);
  for (const bool fuse : {false, true}) {
    const std::string leg = fuse ? " [fused]" : " [unfused]";
    ExecConfig cached = cfg;
    cached.enable_fusion = fuse;
    expect_same(execute(p, cached), want, ctx + leg);

    const DecodedProgram held = predecode(p, cfg.fixes, {.fuse = fuse});
    ExecConfig held_cfg = cached;
    held_cfg.fixes = nullptr;  // the held stream carries them
    expect_same(execute(p, held, held_cfg), want, ctx + leg + " [held]");
  }
}

// ------------------------------------------------- random programs ---------

TEST(DispatchDiff, RandomProgramsAllBackendsIdentical) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const CorpusEntry entry = make_random_program(seed);
    Rng rng(seed * 77 + 1);
    for (Granularity g : kAllGranularities) {
      ExecConfig cfg;
      cfg.seed = rng();
      cfg.granularity = g;
      cfg.collect_branch_events = true;
      for (const auto& domain : entry.domains) {
        cfg.inputs.push_back(rng.next_in(domain.lo, domain.hi));
      }
      expect_all_backends_identical(
          entry.program, cfg,
          "random seed=" + std::to_string(seed) + " g=" +
              std::to_string(static_cast<int>(g)));
    }
  }
}

TEST(DispatchDiff, RandomProgramsWithCrashGuardsAndPatches) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const CorpusEntry entry = make_random_program(seed);
    const Program& p = entry.program;

    // Install fixes at every eligible site, including duplicates at the
    // same pc/site so first-match resolution is exercised.
    FixSet fixes;
    for (std::uint32_t pc = 0; pc < p.code.size(); ++pc) {
      const Instr& ins = p.code[pc];
      switch (ins.op) {
        case Op::kDiv:
        case Op::kMod: {
          CrashGuardFix g;
          g.pc = pc;
          g.action = CrashGuardFix::Action::kSubstitute;
          g.fallback = 7 + static_cast<Value>(pc);
          fixes.crash_guards.push_back(g);
          // Shadowed duplicate: must never win over the first.
          g.action = CrashGuardFix::Action::kSkip;
          g.fallback = -1;
          fixes.crash_guards.push_back(g);
          break;
        }
        case Op::kAssert:
        case Op::kAbort: {
          CrashGuardFix g;
          g.pc = pc;
          g.action = (pc % 2 == 0) ? CrashGuardFix::Action::kSkip
                                   : CrashGuardFix::Action::kSubstitute;
          fixes.crash_guards.push_back(g);
          break;
        }
        case Op::kBranchIf: {
          GuardPatch patch;
          patch.site = ins.site;
          patch.crash_direction = (ins.site % 2 == 0);
          patch.when.push_back({0, 0, 31});  // fires for half the domain
          fixes.guards.push_back(patch);
          break;
        }
        default:
          break;
      }
    }

    Rng rng(seed * 131 + 5);
    for (int rep = 0; rep < 4; ++rep) {
      ExecConfig cfg;
      cfg.seed = rng();
      cfg.fixes = &fixes;
      cfg.granularity = Granularity::kFull;
      cfg.collect_branch_events = true;
      for (const auto& domain : entry.domains) {
        cfg.inputs.push_back(rng.next_in(domain.lo, domain.hi));
      }
      expect_all_backends_identical(
          p, cfg, "random+fixes seed=" + std::to_string(seed));
    }
  }
}

// ----------------------------------------------------- corpus sweep --------

TEST(DispatchDiff, CorpusUnderSchedulesFaultsAndFixes) {
  const std::vector<CorpusEntry> corpus = standard_corpus();
  for (const CorpusEntry& entry : corpus) {
    const std::size_t threads = entry.program.num_threads();
    Rng rng(0xd1f'f0 + entry.program.id.value);
    for (std::uint64_t s = 0; s < 6; ++s) {
      ExecConfig cfg;
      cfg.seed = rng();
      cfg.granularity = kAllGranularities[s % 4];
      cfg.collect_branch_events = (s % 2 == 0);
      for (const auto& domain : entry.domains) {
        cfg.inputs.push_back(rng.next_in(domain.lo, domain.hi));
      }

      // Random steering plan over the entry's threads.
      SchedulePlan plan;
      for (int i = 0; i < 12; ++i) {
        plan.runs.push_back(
            {static_cast<std::uint8_t>(rng.next_below(threads)),
             static_cast<std::uint32_t>(1 + rng.next_below(7))});
      }
      if (s % 3 != 0) cfg.schedule_plan = &plan;

      // Fault-plan a few syscall invocations.
      FaultPlan faults;
      faults.forced[1 + rng.next_below(4)] = -1;
      faults.forced[8 + rng.next_below(8)] = 0;
      if (s % 2 != 0) cfg.fault_plan = &faults;

      expect_all_backends_identical(
          entry.program, cfg,
          entry.program.name + " s=" + std::to_string(s));
    }
  }
}

TEST(DispatchDiff, DeadlockCyclesAndLockFixesIdentical) {
  for (CorpusEntry entry :
       {make_bank_transfer(), make_dining_philosophers(3),
        make_dining_philosophers(4)}) {
    // The planted cycles span all locks; a fix covering them flips the
    // runs from deadlock-prone to immune (with lock-fix yields).
    LockAvoidanceFix lock_fix;
    for (std::uint16_t l = 0; l < entry.program.num_locks; ++l) {
      lock_fix.cycle_locks.push_back(l);
    }
    FixSet fixes;
    fixes.lock_fixes.push_back(lock_fix);

    Rng rng(42);
    for (std::uint64_t s = 0; s < 30; ++s) {
      ExecConfig cfg;
      cfg.seed = rng();
      cfg.granularity = Granularity::kFull;
      for (const auto& domain : entry.domains) {
        cfg.inputs.push_back(rng.next_in(domain.lo, domain.hi));
      }
      expect_all_backends_identical(
          entry.program, cfg, entry.program.name + " bare s=" + std::to_string(s));
      cfg.fixes = &fixes;
      expect_all_backends_identical(
          entry.program, cfg, entry.program.name + " fixed s=" + std::to_string(s));
    }
  }
}

// ------------------------------------------ step/quantum accounting --------

// Hot loop of fusible pairs: every iteration is [const ; add ; jump], so a
// fused slot sits at the loop head and the run only ends via max_steps.
Program fused_pair_loop() {
  ProgramBuilder b("fused_pair_loop");
  const Reg acc = b.reg();
  const Reg one = b.reg();
  b.const_(acc, 0);
  const ProgramBuilder::Label loop = b.here();
  b.const_(one, 1);
  b.add(acc, acc, one);
  b.jump(loop);
  return b.build();
}

// Same loop with a yield: lets the quantum end voluntarily at arbitrary
// phases relative to the fused pair and the step limit (the yield-at-limit
// quirk gets crossed for some max_steps below).
Program fused_pair_loop_with_yield() {
  ProgramBuilder b("fused_pair_loop_yield");
  const Reg acc = b.reg();
  const Reg one = b.reg();
  b.const_(acc, 0);
  const ProgramBuilder::Label loop = b.here();
  b.const_(one, 1);
  b.add(acc, acc, one);
  b.yield();
  b.jump(loop);
  return b.build();
}

TEST(DispatchDiff, MaxStepsBoundaryWithFusedPairs) {
  const Program plain = fused_pair_loop();
  const Program yielding = fused_pair_loop_with_yield();
  // The loop head really is fused — otherwise this test proves nothing.
  ASSERT_GT(predecode(plain, nullptr).fused_slots, 0u);

  for (std::uint64_t max_steps = 1; max_steps <= 60; ++max_steps) {
    for (std::uint32_t quantum : {1u, 2u, 3u, 6u}) {
      ExecConfig cfg;
      cfg.max_steps = max_steps;
      cfg.quantum = quantum;
      const std::string ctx = "max=" + std::to_string(max_steps) +
                              " q=" + std::to_string(quantum);
      expect_all_backends_identical(plain, cfg, "plain " + ctx);
      expect_all_backends_identical(yielding, cfg, "yield " + ctx);
    }
  }
}

TEST(DispatchDiff, MultiThreadStepLimitAndQuantumBoundaries) {
  for (CorpusEntry entry : {make_race_counter(4), make_bank_transfer(),
                            make_dining_philosophers(3)}) {
    Rng rng(entry.program.id.value * 9 + 1);
    for (std::uint64_t max_steps = 1; max_steps <= 80; max_steps += 3) {
      ExecConfig cfg;
      cfg.seed = rng();
      cfg.max_steps = max_steps;
      cfg.quantum = static_cast<std::uint32_t>(1 + rng.next_below(7));
      cfg.granularity = Granularity::kFull;
      for (const auto& domain : entry.domains) {
        cfg.inputs.push_back(rng.next_in(domain.lo, domain.hi));
      }
      expect_all_backends_identical(
          entry.program, cfg,
          entry.program.name + " max=" + std::to_string(max_steps));
    }
  }
}

// --------------------------------------------------- fusion shapes ---------

TEST(FusionShape, ConstAluPairsFuse) {
  ProgramBuilder b("const_alu");
  const Reg a = b.reg();
  const Reg c = b.reg();
  b.const_(c, 5);
  b.add(a, a, c);
  b.halt();
  const Program p = b.build();
  const DecodedProgram d = predecode(p, nullptr);
  EXPECT_EQ(d.code[0].tok, Tok::kConstAdd);
  EXPECT_EQ(d.code[0].base, Tok::kConst);
  EXPECT_EQ(d.code[0].len, 2);
  // Second half keeps its own plain slot (branch targets may land there).
  EXPECT_EQ(d.code[1].tok, Tok::kAdd);
  EXPECT_EQ(d.code[1].len, 1);
  EXPECT_EQ(d.fused_slots, 1u);
}

TEST(FusionShape, CmpBranchFusesOnlyWhenBranchTestsCmpResult) {
  // Fusible: brif tests the compare's destination.
  {
    ProgramBuilder b("cmp_br");
    const Reg x = b.reg();
    const Reg y = b.reg();
    const Reg cond = b.reg();
    const ProgramBuilder::Label t = b.label();
    const ProgramBuilder::Label f = b.label();
    b.cmp_lt(cond, x, y);
    b.branch_if(cond, t, f);
    b.bind(t);
    b.bind(f);
    b.halt();
    const DecodedProgram d = predecode(b.build(), nullptr);
    EXPECT_EQ(d.code[0].tok, Tok::kCmpLtBranch);
    EXPECT_EQ(d.code[0].len, 2);
  }
  // Not fusible: brif tests an unrelated register.
  {
    ProgramBuilder b("cmp_br_other");
    const Reg x = b.reg();
    const Reg y = b.reg();
    const Reg cond = b.reg();
    const Reg other = b.reg();
    const ProgramBuilder::Label t = b.label();
    const ProgramBuilder::Label f = b.label();
    b.cmp_lt(cond, x, y);
    b.branch_if(other, t, f);
    b.bind(t);
    b.bind(f);
    b.halt();
    const DecodedProgram d = predecode(b.build(), nullptr);
    EXPECT_EQ(d.code[0].tok, Tok::kCmpLt);
    EXPECT_EQ(d.code[0].len, 1);
    EXPECT_EQ(d.fused_slots, 0u);
  }
}

TEST(FusionShape, ConstCmpDefersToCmpBranchFusion) {
  // const ; cmplt ; brif(cmp dest): the cmp should fuse with the branch,
  // leaving the const plain — not const+cmp with a lone branch.
  ProgramBuilder b("defer");
  const Reg x = b.reg();
  const Reg lim = b.reg();
  const Reg cond = b.reg();
  const ProgramBuilder::Label t = b.label();
  const ProgramBuilder::Label f = b.label();
  b.const_(lim, 10);
  b.cmp_lt(cond, x, lim);
  b.branch_if(cond, t, f);
  b.bind(t);
  b.bind(f);
  b.halt();
  const DecodedProgram d = predecode(b.build(), nullptr);
  EXPECT_EQ(d.code[0].tok, Tok::kConst);
  EXPECT_EQ(d.code[0].len, 1);
  EXPECT_EQ(d.code[1].tok, Tok::kCmpLtBranch);
  EXPECT_EQ(d.code[1].len, 2);
  EXPECT_EQ(d.fused_slots, 1u);
}

TEST(FusionShape, MovStoreGFusesAndFuseOffDisablesAll) {
  ProgramBuilder b("mov_storeg");
  const Reg a = b.reg();
  const Reg v = b.reg();
  const std::uint32_t g = b.global();
  b.mov(a, v);
  b.storeg(g, a);
  b.halt();
  const Program p = b.build();
  EXPECT_EQ(predecode(p, nullptr).code[0].tok, Tok::kMovStoreG);
  const DecodedProgram off = predecode(p, nullptr, {.fuse = false});
  EXPECT_EQ(off.code[0].tok, Tok::kMov);
  EXPECT_EQ(off.fused_slots, 0u);
  EXPECT_FALSE(off.fused);
}

TEST(FusionShape, DisassembleDecodedShowsSuperinstructions) {
  const Program p = fused_pair_loop();
  const std::string text = disassemble_decoded(p, predecode(p, nullptr));
  EXPECT_NE(text.find("[const+add]"), std::string::npos) << text;
}

// ------------------------------------------------------ pair counts --------

TEST(PairCounts, StraightLineCountsMatchExecution) {
  ProgramBuilder b("pairs");
  const Reg x = b.reg();
  const Reg one = b.reg();
  const Reg sum = b.reg();
  b.input(x, b.input_slot());
  b.const_(one, 1);
  b.add(sum, x, one);
  b.output(sum);
  b.halt();
  const Program p = b.build();

  OpPairCounts counts;
  ExecConfig cfg;
  cfg.inputs = {3};
  cfg.pair_counts = &counts;
  const ExecResult r = execute(p, cfg);
  EXPECT_EQ(r.outputs, (std::vector<Value>{4}));

  EXPECT_EQ(counts.at(Op::kInput, Op::kConst), 1u);
  EXPECT_EQ(counts.at(Op::kConst, Op::kAdd), 1u);
  EXPECT_EQ(counts.at(Op::kAdd, Op::kOutput), 1u);
  EXPECT_EQ(counts.at(Op::kOutput, Op::kHalt), 1u);
  EXPECT_EQ(counts.total(), 4u);

  const auto rows = counts.sorted();
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) EXPECT_EQ(row.count, 1u);

  // Profiling runs match the reference byte-for-byte too (it executes the
  // unfused stream, not a different machine).
  ExecConfig plain_cfg;
  plain_cfg.inputs = {3};
  expect_same(r, execute_reference(p, plain_cfg), "pair-profiled run");
}

TEST(PairCounts, LoopPairsScaleWithIterationsAndJumpsDontCount) {
  const Program p = fused_pair_loop();  // [const ; add ; jump] body
  OpPairCounts counts;
  ExecConfig cfg;
  cfg.max_steps = 31;  // const0 + 10 iterations x3
  cfg.pair_counts = &counts;
  execute(p, cfg);
  EXPECT_EQ(counts.at(Op::kConst, Op::kAdd), 10u);
  EXPECT_EQ(counts.at(Op::kAdd, Op::kJump), 10u);
  // The jump lands back at the loop head at a lower pc: not a fallthrough.
  EXPECT_EQ(counts.at(Op::kJump, Op::kConst), 0u);
  const std::string table = format_pair_counts(counts, 1);
  EXPECT_NE(table.find("const  -> add"), std::string::npos) << table;
  EXPECT_NE(table.find("fuses: const+add"), std::string::npos) << table;
  EXPECT_NE(table.find("more pair(s)"), std::string::npos) << table;
}

// -------------------------------------------------- predecode cache --------

TEST(PredecodeCache, HitsMissesAndContentKeying) {
  clear_predecode_cache();
  const Program p = fused_pair_loop();

  auto d1 = predecode_cached(p, nullptr);
  PredecodeCacheStats stats = predecode_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);

  // Same content — even via a distinct Program object — hits.
  const Program copy = p;
  auto d2 = predecode_cached(copy, nullptr);
  stats = predecode_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(d1.get(), d2.get());

  // nullptr fixes and an empty FixSet decode identically: same entry.
  const FixSet empty;
  predecode_cached(p, &empty);
  EXPECT_EQ(predecode_cache_stats().hits, 2u);

  // A fix that affects the stream is a different key.
  FixSet fixes;
  fixes.crash_guards.push_back({{}, {}, 0, CrashGuardFix::Action::kSkip, 0});
  predecode_cached(p, &fixes);
  stats = predecode_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);

  // Fusion on/off are distinct streams.
  predecode_cached(p, nullptr, {.fuse = false});
  stats = predecode_cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);

  clear_predecode_cache();
  stats = predecode_cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(PredecodeCache, CachedStreamCopiesFixesNoDangling) {
  clear_predecode_cache();
  const Program p = fused_pair_loop();
  ExecResult first;
  {
    // FixSet dies at scope end; the cached decoded stream must not care.
    FixSet fixes;
    fixes.crash_guards.push_back(
        {{}, {}, 1, CrashGuardFix::Action::kSubstitute, 9});
    ExecConfig cfg;
    cfg.fixes = &fixes;
    cfg.max_steps = 20;
    first = execute(p, cfg);
  }
  FixSet same;
  same.crash_guards.push_back(
      {{}, {}, 1, CrashGuardFix::Action::kSubstitute, 9});
  ExecConfig cfg;
  cfg.fixes = &same;
  cfg.max_steps = 20;
  expect_same(execute(p, cfg), first, "cached fix copy");
  EXPECT_GE(predecode_cache_stats().hits, 1u);
}

}  // namespace
}  // namespace softborg
