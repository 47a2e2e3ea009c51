// Differential suite for replay on the interpreter core: replay_trace (the
// decoded core's replay mode, on the fused and the unfused stream) must
// agree with the frozen original replayer (replay_trace_reference,
// replay_ref.cpp) on every trace the interpreter writes and on mutations of
// them — ok and outcome always, the decision stream (site, direction,
// thread) whenever the trace is accepted. Traces replay_refusal() refuses
// are refused by both engines, through that one check: the reference is
// never run on them, since it follows any claim however long.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "minivm/corpus.h"
#include "minivm/decode.h"
#include "minivm/interp.h"
#include "minivm/random_program.h"
#include "minivm/replay.h"
#include "replay_ref.h"

namespace softborg {
namespace {

struct Tally {
  std::size_t accepted = 0;  // both engines accept
  std::size_t rejected = 0;  // both engines reject
  std::size_t refused = 0;   // the shared check refuses

  Tally& operator+=(const Tally& o) {
    accepted += o.accepted;
    rejected += o.rejected;
    refused += o.refused;
    return *this;
  }
};

class ReplayDiff {
 public:
  explicit ReplayDiff(const Program& p)
      : p_(p), unfused_(predecode(p, nullptr, {.fuse = false})) {}

  void expect_agree(const Trace& t, const std::string& ctx) {
    const ReplayResult fused = replay_trace(p_, t);
    const ReplayResult plain = replay_trace(p_, unfused_, t);
    if (const char* why = replay_refusal(p_.num_threads(), t)) {
      EXPECT_FALSE(fused.ok) << ctx;
      EXPECT_FALSE(plain.ok) << ctx;
      EXPECT_EQ(plain.error, fused.error) << ctx;
      if (t.granularity != Granularity::kNone && !t.patched) {
        EXPECT_EQ(fused.error, why) << ctx;
      }
      tally.refused++;
      return;
    }
    const ReferenceReplayResult want = replay_trace_reference(p_, t);
    for (const ReplayResult* got : {&fused, &plain}) {
      const char* leg = got == &fused ? " [fused]" : " [unfused]";
      EXPECT_EQ(got->ok, want.ok)
          << ctx << leg << ": got '" << got->error << "', reference '"
          << want.error << "'";
      EXPECT_EQ(got->outcome, want.outcome) << ctx << leg;
      if (got->ok && want.ok) {
        EXPECT_EQ(got->decisions, want.decisions) << ctx << leg;
      }
    }
    (want.ok ? tally.accepted : tally.rejected)++;
  }

  // The trace itself, then each mutation of it.
  void expect_agree_mutated(const Trace& t, const std::string& ctx) {
    expect_agree(t, ctx);
    const std::size_t nbits = t.branch_bits.size();
    for (const std::size_t i : {std::size_t{0}, nbits / 2, nbits - 1}) {
      if (i >= nbits) continue;
      Trace m = t;
      m.branch_bits.set(i, !m.branch_bits[i]);
      expect_agree(m, ctx + " flip bit " + std::to_string(i));
    }
    if (nbits > 0) {
      for (const std::size_t drop : {std::size_t{0}, nbits - 1}) {
        Trace m = t;
        m.branch_bits.clear();
        for (std::size_t i = 0; i < nbits; ++i) {
          if (i != drop) m.branch_bits.push_back(t.branch_bits[i]);
        }
        expect_agree(m, ctx + " drop bit " + std::to_string(drop));
      }
    }
    for (const bool extra : {false, true}) {
      Trace m = t;
      m.branch_bits.push_back(extra);
      expect_agree(m, ctx + " extra bit");
    }
    for (std::size_t k = 0; k < t.schedule.size(); k += 1 + k / 2) {
      const std::string run = " run " + std::to_string(k);
      Trace m = t;
      m.schedule[k].thread = static_cast<std::uint8_t>(
          (m.schedule[k].thread + 1) % p_.num_threads());
      expect_agree(m, ctx + run + " re-threaded");
      for (const int delta : {-1, 1}) {
        if (t.schedule[k].steps == 0 && delta < 0) continue;
        m = t;
        m.schedule[k].steps += delta;
        expect_agree(m, ctx + run + " resized");  // refused: total != steps
        m.steps += delta;
        expect_agree(m, ctx + run + " resized with steps");
      }
    }
    if (t.crash.has_value()) {
      for (const int delta : {-1, 1}) {
        Trace m = t;
        m.crash->pc += delta;
        expect_agree(m, ctx + " crash pc");
      }
      for (const CrashKind kind :
           {CrashKind::kAssertFailure, CrashKind::kDivByZero,
            CrashKind::kExplicitAbort}) {
        if (kind == t.crash->kind) continue;
        Trace m = t;
        m.crash->kind = kind;
        expect_agree(m, ctx + " crash kind");
      }
    }
    for (const int delta : {-1, 1}) {
      if (t.steps == 0 && delta < 0) continue;
      Trace m = t;
      m.steps += delta;
      expect_agree(m, ctx + " steps " + std::to_string(delta));
    }
    for (const Outcome outcome : {Outcome::kOk, Outcome::kCrash,
                                  Outcome::kDeadlock, Outcome::kHang}) {
      if (outcome == t.outcome) continue;
      Trace m = t;
      m.outcome = outcome;
      expect_agree(m, ctx + " outcome");
    }
  }

  Tally tally;

 private:
  const Program& p_;
  const DecodedProgram unfused_;
};

// Runs, with fixes installed on every crash site, branch and lock, whose
// traces are patched when a fix intervened and natural otherwise.
FixSet fixes_everywhere(const Program& p) {
  FixSet fixes;
  for (std::uint32_t pc = 0; pc < p.code.size(); ++pc) {
    const Instr& ins = p.code[pc];
    if (ins.op == Op::kDiv || ins.op == Op::kMod || ins.op == Op::kAssert ||
        ins.op == Op::kAbort) {
      CrashGuardFix g;
      g.pc = pc;
      g.action = ins.op == Op::kDiv || ins.op == Op::kMod
                     ? CrashGuardFix::Action::kSubstitute
                     : CrashGuardFix::Action::kSkip;
      fixes.crash_guards.push_back(g);
    } else if (ins.op == Op::kBranchIf) {
      GuardPatch patch;
      patch.site = ins.site;
      patch.crash_direction = ins.site % 2 == 0;
      patch.when.push_back({0, 0, 31});
      fixes.guards.push_back(patch);
    }
  }
  LockAvoidanceFix lock_fix;
  for (std::uint16_t l = 0; l < p.num_locks; ++l) {
    lock_fix.cycle_locks.push_back(l);
  }
  if (!lock_fix.cycle_locks.empty()) fixes.lock_fixes.push_back(lock_fix);
  return fixes;
}

constexpr Granularity kReplayable[] = {Granularity::kTaintedBranches,
                                       Granularity::kAllBranches,
                                       Granularity::kFull};

// Runs `entry` over seeds, granularities, quanta, step limits, schedule
// plans, fault plans and fixes, and checks every trace and its mutations.
Tally sweep(const CorpusEntry& entry, std::uint64_t salt, int runs) {
  const Program& p = entry.program;
  ReplayDiff diff(p);
  const FixSet fixes = fixes_everywhere(p);
  Rng rng(salt * 0x9e37 + p.id.value);
  for (int r = 0; r < runs; ++r) {
    ExecConfig cfg;
    cfg.seed = rng();
    cfg.granularity = kReplayable[r % 3];
    cfg.quantum = 1 + static_cast<std::uint32_t>(rng.next_below(9));
    cfg.max_steps = r % 4 == 3 ? 1 + rng.next_below(400) : 20'000;
    for (const auto& domain : entry.domains) {
      cfg.inputs.push_back(rng.next_in(domain.lo, domain.hi));
    }
    SchedulePlan plan;
    for (int i = 0; i < 8; ++i) {
      plan.runs.push_back(
          {static_cast<std::uint8_t>(rng.next_below(p.num_threads())),
           static_cast<std::uint32_t>(1 + rng.next_below(7))});
    }
    if (r % 3 == 1) cfg.schedule_plan = &plan;
    FaultPlan faults;
    faults.forced[rng.next_below(4)] = -1;
    faults.forced[4 + rng.next_below(8)] = 0;
    if (r % 2 == 1) cfg.fault_plan = &faults;
    if (r % 5 == 4) cfg.fixes = &fixes;

    const Trace t = execute(p, cfg).trace;
    diff.expect_agree_mutated(t, p.name + " run " + std::to_string(r));
  }
  return diff.tally;
}

void expect_both_verdicts(const Tally& tally) {
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
  std::printf("accepted %zu, rejected %zu, refused %zu\n", tally.accepted,
              tally.rejected, tally.refused);
}

TEST(ReplayDiff, StandardCorpusMatchesTheReference) {
  Tally total;
  for (const CorpusEntry& entry : standard_corpus()) {
    total += sweep(entry, 1, 24);
  }
  expect_both_verdicts(total);
  EXPECT_GT(total.refused, 0u);  // the multi-threaded programs' mutations
}

TEST(ReplayDiff, ConcurrencyAndConfigProgramsMatchTheReference) {
  std::vector<CorpusEntry> programs;
  for (unsigned k = 10; k <= 14; ++k) programs.push_back(make_config_space(k));
  programs.push_back(make_retry_storm());
  programs.push_back(make_dining_philosophers());
  programs.push_back(make_race_counter(3));
  Tally total;
  for (const CorpusEntry& entry : programs) {
    total += sweep(entry, 2, 24);
  }
  expect_both_verdicts(total);
  EXPECT_GT(total.refused, 0u);
}

TEST(ReplayDiff, RandomProgramsMatchTheReference) {
  Tally total;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    total += sweep(make_random_program(seed), 3, 12);
  }
  expect_both_verdicts(total);
}

TEST(ReplayDiff, RefusedClaimsAreRefusedByBoth) {
  const CorpusEntry race = make_race_counter(3);
  ReplayDiff diff(race.program);
  ExecConfig cfg;
  const Trace t = execute(race.program, cfg).trace;
  ASSERT_GT(t.schedule.size(), 1u);

  Trace longer = t;  // schedule and steps agree, but past the cap
  longer.schedule.back().steps += static_cast<std::uint32_t>(kMaxReplaySteps);
  longer.steps += kMaxReplaySteps;
  diff.expect_agree(longer, "past the cap");
  Trace off = t;  // within the cap, but the schedule claims one step more
  off.schedule.front().steps++;
  diff.expect_agree(off, "schedule != steps");

  const CorpusEntry parser = make_media_parser();
  ReplayDiff single(parser.program);
  ExecConfig in;
  in.inputs = {13, 250};
  Trace claim = execute(parser.program, in).trace;
  claim.steps = kMaxReplaySteps + 1;
  single.expect_agree(claim, "single-threaded past the cap");
  claim.steps = kMaxReplaySteps;
  single.expect_agree(claim, "single-threaded at the cap");
  EXPECT_EQ(diff.tally.refused, 2u);
  EXPECT_EQ(single.tally.refused, 1u);
}

}  // namespace
}  // namespace softborg
