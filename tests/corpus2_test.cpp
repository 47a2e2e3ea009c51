// Tests for the extended corpus (dining philosophers, retry storm, skewed
// workload) and the hive's knowledge-maintenance features built on them:
// proof revocation on fix distribution and fix-effectiveness monitoring.
#include <gtest/gtest.h>

#include "hive/hive.h"
#include "minivm/corpus.h"
#include "minivm/interp.h"

namespace softborg {
namespace {

// ------------------------------------------------- dining philosophers -----

TEST(DiningPhilosophers, ValidatesForAllSizes) {
  for (unsigned n = 2; n <= 6; ++n) {
    const auto entry = make_dining_philosophers(n);
    std::string err;
    EXPECT_TRUE(entry.program.validate(&err)) << err;
    EXPECT_EQ(entry.program.num_threads(), n);
    EXPECT_EQ(entry.program.num_locks, n);
  }
}

TEST(DiningPhilosophers, DeadlocksUnderSomeSchedule) {
  const auto entry = make_dining_philosophers(3);
  int deadlocks = 0, oks = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    ExecConfig cfg;
    cfg.seed = seed;
    const auto outcome = execute(entry.program, cfg).trace.outcome;
    if (outcome == Outcome::kDeadlock) deadlocks++;
    if (outcome == Outcome::kOk) oks++;
  }
  EXPECT_GT(deadlocks, 0);
  EXPECT_GT(oks, 0);
}

TEST(DiningPhilosophers, CycleDiagnosisCoversAllForks) {
  const auto entry = make_dining_philosophers(3);
  LockOrderAnalyzer analyzer;
  int fed = 0;
  for (std::uint64_t seed = 1; seed <= 300 && fed < 5; ++seed) {
    ExecConfig cfg;
    cfg.seed = seed;
    const auto result = execute(entry.program, cfg);
    if (result.trace.outcome != Outcome::kDeadlock) continue;
    analyzer.add_trace(result.trace);
    fed++;
  }
  ASSERT_GT(fed, 0);
  const auto cycles = analyzer.cycles();
  ASSERT_FALSE(cycles.empty());
  // The full 3-cycle {0,1,2} must be among the diagnosed cycles.
  bool full_cycle = false;
  for (const auto& c : cycles) {
    if (c.size() == 3) full_cycle = true;
  }
  EXPECT_TRUE(full_cycle);
}

TEST(DiningPhilosophers, ImmunityFixEliminatesDeadlock) {
  const auto entry = make_dining_philosophers(3);
  FixSet fixes;
  fixes.lock_fixes.push_back({FixId(1), entry.program.id, {0, 1, 2}});
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    ExecConfig cfg;
    cfg.seed = seed;
    cfg.fixes = &fixes;
    const auto result = execute(entry.program, cfg);
    EXPECT_EQ(result.trace.outcome, Outcome::kOk) << "seed " << seed;
  }
}

TEST(DiningPhilosophers, EndToEndHiveFix) {
  std::vector<CorpusEntry> corpus;
  corpus.push_back(make_dining_philosophers(3));
  Hive hive(&corpus);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ExecConfig cfg;
    cfg.seed = seed;
    auto result = execute(corpus[0].program, cfg);
    result.trace.id = TraceId(seed);
    if (result.trace.outcome == Outcome::kDeadlock) hive.ingest(result.trace);
  }
  ASSERT_EQ(hive.bug_tracker().count(BugKind::kDeadlock), 1u);
  const auto fixes = hive.process();
  ASSERT_EQ(fixes.size(), 1u);
  const auto& fix = std::get<LockAvoidanceFix>(fixes[0].fix);
  EXPECT_EQ(fix.cycle_locks.size(), 3u);
  EXPECT_GE(fixes[0].score(), 0.9);
}

// ------------------------------------------------------- retry storm -------

TEST(RetryStorm, SucceedsOnHealthyEnvironment) {
  const auto entry = make_retry_storm();
  int oks = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    ExecConfig cfg;
    cfg.inputs = {1, 10};
    cfg.seed = seed;
    cfg.max_steps = 5'000;
    if (execute(entry.program, cfg).trace.outcome == Outcome::kOk) oks++;
  }
  EXPECT_GT(oks, 95);  // three consecutive failures are rare
}

TEST(RetryStorm, WedgesOnForcedFailuresInStrictMode) {
  const auto entry = make_retry_storm();
  FaultPlan faults;
  faults.forced[0] = -1;
  faults.forced[1] = -1;
  faults.forced[2] = -1;
  ExecConfig cfg;
  cfg.inputs = {1, 10};  // strict mode
  cfg.fault_plan = &faults;
  cfg.max_steps = 5'000;
  EXPECT_EQ(execute(entry.program, cfg).trace.outcome, Outcome::kHang);
}

TEST(RetryStorm, NonStrictModeRecovers) {
  const auto entry = make_retry_storm();
  FaultPlan faults;
  for (std::uint32_t i = 0; i < 5; ++i) faults.forced[i] = -1;
  ExecConfig cfg;
  cfg.inputs = {0, 10};  // strict off: retries until success
  cfg.fault_plan = &faults;
  cfg.max_steps = 5'000;
  EXPECT_EQ(execute(entry.program, cfg).trace.outcome, Outcome::kOk);
}

TEST(RetryStorm, HangBugLandsInHiveAsHangKind) {
  const auto entry = make_retry_storm();
  std::vector<CorpusEntry> corpus;
  corpus.push_back(make_retry_storm());
  Hive hive(&corpus);

  FaultPlan faults;
  faults.forced[0] = -1;
  faults.forced[1] = -1;
  faults.forced[2] = -1;
  ExecConfig cfg;
  cfg.inputs = {1, 10};
  cfg.fault_plan = &faults;
  cfg.max_steps = 5'000;
  auto result = execute(entry.program, cfg);
  ASSERT_EQ(result.trace.outcome, Outcome::kHang);
  result.trace.id = TraceId(1);
  hive.ingest(result.trace);
  EXPECT_EQ(hive.bug_tracker().count(BugKind::kHang), 1u);
  // Hangs are not auto-fixable.
  EXPECT_TRUE(hive.process().empty());
}

// --------------------------------------------------- skewed workload -------

TEST(SkewedWorkload, CostSkewIsReal) {
  const auto entry = make_skewed_workload(6, /*heavy_iterations=*/24);
  ExecConfig heavy_cfg, light_cfg;
  heavy_cfg.inputs = {1, 0, 0, 0, 0, 0};
  light_cfg.inputs = {0, 0, 0, 0, 0, 0};
  const auto heavy = execute(entry.program, heavy_cfg);
  const auto light = execute(entry.program, light_cfg);
  EXPECT_EQ(heavy.trace.outcome, Outcome::kOk);
  EXPECT_EQ(light.trace.outcome, Outcome::kOk);
  EXPECT_GT(heavy.trace.steps, 3 * light.trace.steps);
  // The loop is deterministic: both record exactly k bits.
  EXPECT_EQ(heavy.trace.branch_bits.size(), 6u);
  EXPECT_EQ(light.trace.branch_bits.size(), 6u);
}

// --------------------------------------- knowledge maintenance (hive) ------

TEST(HiveKnowledge, FixRevokesProofs) {
  std::vector<CorpusEntry> corpus;
  corpus.push_back(make_media_parser());
  Hive hive(&corpus);

  // A publishable proof first (always-terminates holds).
  const auto cert = hive.attempt_proof(corpus[0].program.id,
                                       Property::kAlwaysTerminates);
  ASSERT_TRUE(cert.publishable());
  EXPECT_EQ(hive.valid_proof_count(), 1u);

  // Now a crash arrives and a fix ships: the proof no longer describes the
  // deployed program.
  ExecConfig cfg;
  cfg.inputs = {13, 250};
  auto result = execute(corpus[0].program, cfg);
  result.trace.id = TraceId(1);
  hive.ingest(result.trace);
  ASSERT_FALSE(hive.process().empty());
  EXPECT_EQ(hive.valid_proof_count(), 0u);
  EXPECT_EQ(hive.stats().proofs_revoked, 1u);
  ASSERT_EQ(hive.published_proofs().size(), 1u);
  EXPECT_TRUE(hive.published_proofs()[0].revoked);
}

TEST(HiveKnowledge, RecurringFailuresReopenFixedBugs) {
  std::vector<CorpusEntry> corpus;
  corpus.push_back(make_media_parser());
  Hive hive(&corpus);

  ExecConfig cfg;
  cfg.inputs = {13, 250};
  auto first = execute(corpus[0].program, cfg);
  first.trace.id = TraceId(1);
  hive.ingest(first.trace);
  ASSERT_FALSE(hive.process().empty());
  ASSERT_TRUE(hive.bug_tracker().open_bugs().empty());

  // The same signature keeps arriving well past the propagation grace
  // window (fix not effective).
  for (std::uint64_t i = 2; i <= 4; ++i) {
    auto again = execute(corpus[0].program, cfg);
    again.trace.id = TraceId(i);
    again.trace.day = 10;  // far beyond fixed_day + grace
    hive.ingest(again.trace);
  }
  EXPECT_EQ(hive.stats().fix_recurrences, 3u);
  EXPECT_EQ(hive.stats().bugs_reopened, 1u);
  EXPECT_EQ(hive.bug_tracker().open_bugs().size(), 1u);
  // process() will now try again (idempotence reset on reopen).
  EXPECT_FALSE(hive.process().empty());
}

TEST(HiveKnowledge, PatchedTracesCountedAsTelemetry) {
  std::vector<CorpusEntry> corpus;
  corpus.push_back(make_media_parser());
  Hive hive(&corpus);
  Trace t;
  t.program = corpus[0].program.id;
  t.id = TraceId(1);
  t.patched = true;
  t.outcome = Outcome::kOk;
  hive.ingest(t);
  EXPECT_EQ(hive.stats().patched_traces_skipped, 1u);  // never tree-merged
}

}  // namespace
}  // namespace softborg
