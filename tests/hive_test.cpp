#include <gtest/gtest.h>

#include "common/state_wire.h"
#include "hive/bugs.h"
#include "hive/coop.h"
#include "hive/fixer.h"
#include "hive/guidance.h"
#include "hive/hive.h"
#include "hive/proof.h"
#include "minivm/builder.h"
#include "minivm/corpus.h"
#include "minivm/interp.h"
#include "minivm/replay.h"
#include "trace/codec.h"

namespace softborg {
namespace {

Trace failing_trace(const CorpusEntry& entry, std::vector<Value> inputs,
                    std::uint64_t seed = 1) {
  ExecConfig cfg;
  cfg.inputs = std::move(inputs);
  cfg.seed = seed;
  auto result = execute(entry.program, cfg);
  result.trace.id = TraceId(seed);
  return result.trace;
}

// ---------------------------------------------------------------- bugs -----

TEST(BugTracker, BucketsCrashesBySite) {
  const auto entry = make_media_parser();
  BugTracker tracker;
  const Bug* b1 = tracker.record(failing_trace(entry, {13, 250}, 1));
  const Bug* b2 = tracker.record(failing_trace(entry, {13, 201}, 2));
  ASSERT_NE(b1, nullptr);
  ASSERT_NE(b2, nullptr);
  EXPECT_EQ(b1->id, b2->id);  // same bucket
  EXPECT_EQ(b2->occurrences, 2u);
  EXPECT_EQ(tracker.all().size(), 1u);
}

TEST(BugTracker, DistinctCrashSitesAreDistinctBugs) {
  const auto parser = make_media_parser();
  const auto lookup = make_magic_lookup();
  BugTracker tracker;
  tracker.record(failing_trace(parser, {13, 250}));
  tracker.record(failing_trace(lookup, {4242}));
  EXPECT_EQ(tracker.all().size(), 2u);
}

TEST(BugTracker, OkTracesIgnored) {
  const auto entry = make_media_parser();
  BugTracker tracker;
  EXPECT_EQ(tracker.record(failing_trace(entry, {20, 10})), nullptr);
  EXPECT_TRUE(tracker.all().empty());
}

TEST(BugTracker, DeadlockSignatureFromLockSet) {
  const auto entry = make_bank_transfer();
  BugTracker tracker;
  int deadlocks = 0;
  for (std::uint64_t seed = 1; seed <= 60 && deadlocks < 2; ++seed) {
    Trace t = failing_trace(entry, {150}, seed);
    if (t.outcome != Outcome::kDeadlock) continue;
    deadlocks++;
    const Bug* bug = tracker.record(t);
    ASSERT_NE(bug, nullptr);
    EXPECT_EQ(bug->kind, BugKind::kDeadlock);
    EXPECT_EQ(bug->cycle_locks, (std::vector<std::uint16_t>{0, 1}));
  }
  ASSERT_GE(deadlocks, 2);
  EXPECT_EQ(tracker.all().size(), 1u);  // same cycle, same bug
}

TEST(BugTracker, MarkFixedRemovesFromOpen) {
  const auto entry = make_media_parser();
  BugTracker tracker;
  Bug* bug = tracker.record(failing_trace(entry, {13, 250}));
  EXPECT_EQ(tracker.open_bugs().size(), 1u);
  tracker.mark_fixed(bug->id, FixId(9));
  EXPECT_TRUE(tracker.open_bugs().empty());
  EXPECT_TRUE(tracker.find(bug->id)->fixed);
}

TEST(LockOrderAnalyzer, FindsAbBaCycle) {
  const auto entry = make_bank_transfer();
  LockOrderAnalyzer analyzer;
  int added = 0;
  for (std::uint64_t seed = 1; seed <= 100 && added < 3; ++seed) {
    const Trace t = failing_trace(entry, {150}, seed);
    if (t.outcome != Outcome::kDeadlock) continue;
    analyzer.add_trace(t);
    added++;
  }
  ASSERT_GT(added, 0);
  const auto cycles = analyzer.cycles();
  ASSERT_FALSE(cycles.empty());
  EXPECT_EQ(cycles[0], (std::vector<std::uint16_t>{0, 1}));
}

TEST(LockOrderAnalyzer, NoCycleFromConsistentOrder) {
  // Healthy full-granularity traces acquire A then B in both threads only
  // when amount <= 100: consistent order, no cycle.
  const auto entry = make_bank_transfer();
  LockOrderAnalyzer analyzer;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ExecConfig cfg;
    cfg.inputs = {50};
    cfg.seed = seed;
    cfg.granularity = Granularity::kFull;
    const auto result = execute(entry.program, cfg);
    ASSERT_EQ(result.trace.outcome, Outcome::kOk);
    analyzer.add_trace(result.trace);
  }
  EXPECT_GT(analyzer.num_edges(), 0u);
  EXPECT_TRUE(analyzer.cycles().empty());
}

// --------------------------------------------------------------- fixer -----

TEST(Fixer, InputHullRecoversCrashRegion) {
  // in0 == 13 && in1 >= 200.
  PathConstraint pc;
  pc.push_back({make_bin(BinOp::kEq, make_input(0), make_const(13)), true});
  pc.push_back({make_bin(BinOp::kLt, make_input(1), make_const(200)), false});
  const auto hull = input_hull(pc, {{0, 63}, {0, 255}}, {});
  ASSERT_EQ(hull.size(), 2u);
  EXPECT_EQ(hull[0].lo, 13);
  EXPECT_EQ(hull[0].hi, 13);
  EXPECT_EQ(hull[1].lo, 200);
  EXPECT_EQ(hull[1].hi, 255);
}

TEST(Fixer, InputHullOmitsUnconstrainedInputs) {
  PathConstraint pc;
  pc.push_back({make_bin(BinOp::kEq, make_input(0), make_const(5)), true});
  const auto hull = input_hull(pc, {{0, 10}, {0, 10}}, {});
  ASSERT_EQ(hull.size(), 1u);
  EXPECT_EQ(hull[0].input, 0);
}

TEST(Fixer, InfeasibleConstraintGivesEmptyHull) {
  PathConstraint pc;
  pc.push_back({make_bin(BinOp::kLt, make_input(0), make_const(0)), true});
  EXPECT_TRUE(input_hull(pc, {{0, 10}}, {}).empty());
}

TEST(Fixer, MediaParserGetsHighScoreGuardPatch) {
  const auto entry = make_media_parser();
  BugTracker tracker;
  Bug* bug = tracker.record(failing_trace(entry, {13, 250}));
  ASSERT_NE(bug, nullptr);

  FixSynthesizer fixer;
  const auto candidates = fixer.synthesize(*bug, entry);
  ASSERT_FALSE(candidates.empty());
  const auto& best = candidates.front();
  EXPECT_GE(best.score(), 0.95);
  EXPECT_GT(best.validation_runs, 50u);

  // The winning candidate must avert the crash when installed.
  FixSet fixes;
  std::visit(
      [&fixes](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, GuardPatch>) {
          fixes.guards.push_back(f);
        } else if constexpr (std::is_same_v<T, CrashGuardFix>) {
          fixes.crash_guards.push_back(f);
        } else {
          fixes.lock_fixes.push_back(f);
        }
      },
      best.fix);
  ExecConfig cfg;
  cfg.inputs = {13, 250};
  cfg.fixes = &fixes;
  EXPECT_EQ(execute(entry.program, cfg).trace.outcome, Outcome::kOk);
}

TEST(Fixer, DeadlockGetsLockAvoidanceFix) {
  const auto entry = make_bank_transfer();
  BugTracker tracker;
  Bug* bug = nullptr;
  for (std::uint64_t seed = 1; seed <= 100 && bug == nullptr; ++seed) {
    Trace t = failing_trace(entry, {150}, seed);
    if (t.outcome == Outcome::kDeadlock) bug = tracker.record(t);
  }
  ASSERT_NE(bug, nullptr);

  FixSynthesizer fixer;
  const auto candidates = fixer.synthesize(*bug, entry);
  ASSERT_FALSE(candidates.empty());
  const auto& best = candidates.front();
  ASSERT_TRUE(std::holds_alternative<LockAvoidanceFix>(best.fix));
  EXPECT_GE(best.averted_fraction, 0.95);
  EXPECT_GE(best.preserved_fraction, 0.95);
}

TEST(Fixer, FileCopierGetsCrashSiteGuard) {
  const auto entry = make_file_copier();
  BugTracker tracker;
  Bug* bug = nullptr;
  for (std::uint64_t seed = 1; seed <= 300 && bug == nullptr; ++seed) {
    Trace t = failing_trace(entry, {2, 8}, seed);
    if (t.outcome == Outcome::kCrash) bug = tracker.record(t);
  }
  ASSERT_NE(bug, nullptr);

  FixSynthesizer fixer;
  const auto candidates = fixer.synthesize(*bug, entry);
  ASSERT_FALSE(candidates.empty());
  // The crash depends on a syscall result, so the crash-site guard must be
  // the (high-scoring) winner.
  const auto& best = candidates.front();
  EXPECT_TRUE(std::holds_alternative<CrashGuardFix>(best.fix));
  EXPECT_GE(best.score(), 0.9);
}

// --------------------------------------------------------------- proof -----

void observe(ExecTree& tree, const CorpusEntry& entry,
             std::vector<Value> inputs, std::uint64_t seed = 1) {
  ExecConfig cfg;
  cfg.inputs = std::move(inputs);
  cfg.seed = seed;
  cfg.collect_branch_events = true;
  const auto live = execute(entry.program, cfg);
  std::vector<SymDecision> decisions;
  for (const auto& ev : live.branch_events) {
    if (ev.tainted) decisions.push_back({ev.site, ev.taken});
  }
  tree.add_path(decisions, live.trace.outcome, live.trace.crash);
}

TEST(Proof, ConfigSpaceProvenFromPartialObservations) {
  // Observe a handful of natural paths; symbolic gap closure completes the
  // tree and proves never-crashes.
  const auto entry = make_config_space(6);
  ExecTree tree(entry.program.id);
  for (Value mask = 0; mask < 5; ++mask) {
    std::vector<Value> inputs;
    for (int j = 0; j < 6; ++j) inputs.push_back((mask >> j) & 1);
    observe(tree, entry, inputs);
  }
  EXPECT_FALSE(tree.complete());

  ProofEngine engine;
  const auto cert = engine.attempt(entry, tree, Property::kNeverCrashes);
  EXPECT_TRUE(cert.complete);
  EXPECT_TRUE(cert.holds);
  EXPECT_TRUE(cert.publishable());
  EXPECT_EQ(cert.paths_total, 64u);
  EXPECT_EQ(cert.paths_from_executions, 5u);
  EXPECT_EQ(cert.paths_from_symbolic, 59u);

  std::string reason;
  EXPECT_TRUE(check_certificate(entry, cert, 1u << 20, &reason)) << reason;
}

TEST(Proof, MediaParserRefutedWithCounterexample) {
  const auto entry = make_media_parser();
  ExecTree tree(entry.program.id);
  observe(tree, entry, {20, 100});
  ProofEngine engine;
  const auto cert = engine.attempt(entry, tree, Property::kNeverCrashes);
  EXPECT_TRUE(cert.complete);   // the tree can still be completed...
  EXPECT_FALSE(cert.holds);     // ...but the property is refuted
  EXPECT_FALSE(cert.publishable());
}

TEST(Proof, WorkerPoolProvenSafeViaInfeasibleGapClosure) {
  // worker_pool's defensive abort is in-system infeasible: the proof
  // requires refuting that direction with the solver.
  const auto entry = make_worker_pool();
  ExecTree tree(entry.program.id);
  observe(tree, entry, {10});
  observe(tree, entry, {70});
  ProofEngine engine;
  const auto cert = engine.attempt(entry, tree, Property::kNeverCrashes);
  EXPECT_TRUE(cert.publishable());
  EXPECT_GE(cert.gaps_closed_infeasible, 1u);
  std::string reason;
  EXPECT_TRUE(check_certificate(entry, cert, 1u << 16, &reason)) << reason;
}

TEST(Proof, CheckerRejectsUnpublishable) {
  const auto entry = make_media_parser();
  ProofCertificate cert;
  std::string reason;
  EXPECT_FALSE(check_certificate(entry, cert, 1000, &reason));
  EXPECT_FALSE(reason.empty());
}

// Mutations of certificates the checker accepts. Each mutant must be
// refused with a reason.
ProofCertificate proven_worker_pool(const CorpusEntry& entry) {
  ExecTree tree(entry.program.id);
  observe(tree, entry, {10});
  observe(tree, entry, {70});
  ProofEngine engine;
  return engine.attempt(entry, tree, Property::kNeverCrashes);
}

TEST(Proof, CheckerRejectsAnotherProgramsCertificate) {
  const auto pool = make_worker_pool();
  ProofCertificate cert = proven_worker_pool(pool);
  std::string reason;
  ASSERT_TRUE(check_certificate(pool, cert, 1u << 16, &reason)) << reason;

  cert.program = make_media_parser().program.id;
  EXPECT_FALSE(check_certificate(pool, cert, 1u << 16, &reason));
  EXPECT_NE(reason.find("program"), std::string::npos) << reason;
}

TEST(Proof, CheckerRejectsADomainNarrowedAwayFromTheCrash) {
  // media_parser crashes for format 13 and size >= 200. Its complete but
  // refuted certificate, forged to claim the property over sizes 0..199
  // only, would pass every re-execution the checker makes there.
  const auto entry = make_media_parser();
  ExecTree tree(entry.program.id);
  observe(tree, entry, {20, 100});
  ProofEngine engine;
  ProofCertificate cert = engine.attempt(entry, tree, Property::kNeverCrashes);
  ASSERT_TRUE(cert.complete);
  ASSERT_FALSE(cert.holds);
  cert.holds = true;
  cert.counterexample.clear();
  ASSERT_EQ(cert.input_domain.size(), 2u);
  cert.input_domain[1].hi = 199;

  std::string reason;
  EXPECT_FALSE(check_certificate(entry, cert, 1u << 20, &reason));
  EXPECT_NE(reason.find("domain"), std::string::npos) << reason;
}

TEST(Proof, CheckerRejectsAnEmptyDomain) {
  const auto pool = make_worker_pool();
  ProofCertificate cert = proven_worker_pool(pool);
  cert.input_domain.clear();
  std::string reason;
  EXPECT_FALSE(check_certificate(pool, cert, 1u << 16, &reason));
  EXPECT_NE(reason.find("domain"), std::string::npos) << reason;
}

TEST(Proof, CheckerRejectsAnUndercountedCensusOrAFailedProperty) {
  const auto entry = make_config_space(6);
  ExecTree tree(entry.program.id);
  observe(tree, entry, {0, 0, 0, 0, 0, 0});
  ProofEngine engine;
  const ProofCertificate cert =
      engine.attempt(entry, tree, Property::kNeverCrashes);
  std::string reason;
  ASSERT_TRUE(check_certificate(entry, cert, 1u << 20, &reason)) << reason;

  ProofCertificate undercounted = cert;
  undercounted.paths_total = 63;
  EXPECT_FALSE(check_certificate(entry, undercounted, 1u << 20, &reason));
  EXPECT_NE(reason.find("distinct paths"), std::string::npos) << reason;

  ProofCertificate failed = cert;
  failed.holds = false;
  EXPECT_FALSE(check_certificate(entry, failed, 1u << 20, &reason));
  EXPECT_NE(reason.find("not publishable"), std::string::npos) << reason;
}

TEST(Proof, MagicLookupProofRequiresFindingTheNeedle) {
  // Proving never-crashes must FAIL (refuted): the needle is feasible.
  const auto entry = make_magic_lookup();
  ExecTree tree(entry.program.id);
  observe(tree, entry, {7});
  ProofEngine engine;
  const auto cert = engine.attempt(entry, tree, Property::kNeverCrashes);
  EXPECT_FALSE(cert.holds);
  // And the crash path entered the tree via symbolic closure.
  EXPECT_GT(tree.paths_with_outcome(Outcome::kCrash), 0u);
}

TEST(Proof, FrontierClipsAreRecordedAndProofStillLands) {
  // A tight frontier window under-enumerates the open directions each
  // round; the certificate must record that it worked from a clipped view
  // (the old hard-coded frontier(64) clipped silently) — and the proof must
  // still converge, since later rounds revisit the remainder.
  const auto entry = make_config_space(6);
  ExecTree tree(entry.program.id);
  observe(tree, entry, {0, 0, 0, 0, 0, 0});
  EXPECT_GT(tree.open_frontiers(), 2u);
  ProofBudget tight;
  tight.frontier_budget = 2;
  ProofEngine engine;
  const auto cert =
      engine.attempt(entry, tree, Property::kNeverCrashes, tight);
  EXPECT_TRUE(cert.publishable());
  EXPECT_GT(cert.frontier_clips, 0u);

  // An ample window (the default) never clips on this tree.
  ExecTree fresh(entry.program.id);
  observe(fresh, entry, {0, 0, 0, 0, 0, 0});
  ProofEngine engine2;
  const auto wide = engine2.attempt(entry, fresh, Property::kNeverCrashes);
  EXPECT_TRUE(wide.publishable());
  EXPECT_EQ(wide.frontier_clips, 0u);
}

// ------------------------------------------------------------ guidance -----

TEST(Guidance, FrontierDirectivesReachUnexploredPaths) {
  const auto entry = make_config_space(4);
  ExecTree tree(entry.program.id);
  observe(tree, entry, {0, 0, 0, 0});
  const std::size_t before = tree.num_paths();

  GuidancePlanner planner;
  const auto directives = planner.plan_frontier(entry, tree, 8);
  ASSERT_FALSE(directives.empty());
  for (const auto& d : directives) {
    ASSERT_TRUE(d.input_seed.has_value());
    observe(tree, entry, *d.input_seed);
  }
  EXPECT_GT(tree.num_paths(), before);
}

TEST(Guidance, FaultPlanDirectivesDriveSyscallPaths) {
  // file_copier's error path needs read() < 0: only guidance with fault
  // injection reaches it deterministically.
  const auto entry = make_file_copier();
  ExecTree tree(entry.program.id);
  observe(tree, entry, {10, 2}, 12345);

  GuidancePlanner planner;
  const auto directives = planner.plan_frontier(entry, tree, 8);
  bool fault_directive = false;
  for (const auto& d : directives) {
    if (d.faults.has_value()) fault_directive = true;
  }
  EXPECT_TRUE(fault_directive);
}

TEST(Guidance, FrontierBudgetConfigBoundsEnumeration) {
  // frontier_budget = 1 examines exactly one gap, so at most one directive
  // comes back; 0 keeps the historical 2x-directives default.
  const auto entry = make_config_space(4);
  ExecTree tree(entry.program.id);
  observe(tree, entry, {0, 0, 0, 0});
  GuidancePlannerConfig tight;
  tight.frontier_budget = 1;
  GuidancePlanner planner(tight);
  const auto directives = planner.plan_frontier(entry, tree, 8);
  EXPECT_EQ(directives.size(), 1u);
}

TEST(Guidance, SchedulePlansForMultithreadedPrograms) {
  const auto entry = make_bank_transfer();
  GuidancePlanner planner;
  Rng rng(7);
  const auto directives = planner.plan_schedules(entry, 6, rng);
  ASSERT_EQ(directives.size(), 6u);
  for (const auto& d : directives) {
    ASSERT_TRUE(d.schedule.has_value());
    EXPECT_FALSE(d.schedule->runs.empty());
  }
}

TEST(Guidance, ScheduleDirectivesFindDeadlocksFaster) {
  // Among 40 guided runs, staggered schedules should hit the deadlock at
  // least as often as 40 natural runs.
  const auto entry = make_bank_transfer();
  GuidancePlanner planner;
  Rng rng(11);
  const auto directives = planner.plan_schedules(entry, 40, rng);

  int natural = 0, guided = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ExecConfig cfg;
    cfg.inputs = {150};
    cfg.seed = seed;
    if (execute(entry.program, cfg).trace.outcome == Outcome::kDeadlock) {
      natural++;
    }
  }
  for (std::size_t i = 0; i < directives.size(); ++i) {
    ExecConfig cfg;
    cfg.inputs = {150};
    cfg.seed = 1000 + i;
    cfg.schedule_plan = &*directives[i].schedule;
    if (execute(entry.program, cfg).trace.outcome == Outcome::kDeadlock) {
      guided++;
    }
  }
  EXPECT_GE(guided, natural);
  EXPECT_GT(guided, 0);
}

// ---------------------------------------------------------------- coop -----

TEST(Coop, SingleWorkerCompletes) {
  const auto entry = make_config_space(8);
  CoopConfig cfg;
  cfg.num_workers = 1;
  const auto result = run_cooperative_exploration(entry, cfg);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.paths_explored, 256u);
}

TEST(Coop, MoreWorkersAreFaster) {
  const auto entry = make_config_space(9);
  CoopConfig one, eight;
  one.num_workers = 1;
  eight.num_workers = 8;
  const auto r1 = run_cooperative_exploration(entry, one);
  const auto r8 = run_cooperative_exploration(entry, eight);
  ASSERT_TRUE(r1.complete);
  ASSERT_TRUE(r8.complete);
  EXPECT_LT(r8.ticks * 3, r1.ticks);  // at least ~3x on 8 workers
}

TEST(Coop, AllStrategiesComplete) {
  const auto entry = make_file_copier();
  for (auto strategy : {PartitionStrategy::kStatic,
                        PartitionStrategy::kDynamic,
                        PartitionStrategy::kPortfolio}) {
    CoopConfig cfg;
    cfg.num_workers = 4;
    cfg.strategy = strategy;
    const auto result = run_cooperative_exploration(entry, cfg);
    EXPECT_TRUE(result.complete) << strategy_name(strategy);
    EXPECT_GT(result.paths_explored, 0u) << strategy_name(strategy);
  }
}

TEST(Coop, SurvivesChurnAndLoss) {
  const auto entry = make_config_space(8);
  CoopConfig cfg;
  cfg.num_workers = 6;
  cfg.strategy = PartitionStrategy::kDynamic;
  cfg.steps_per_tick = 20;  // slow workers: churn has time to strike
  cfg.churn_prob = 0.02;
  cfg.net.drop_prob = 0.05;
  const auto result = run_cooperative_exploration(entry, cfg);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.paths_explored, 256u);
  EXPECT_GT(result.worker_deaths, 0u);
}

TEST(Coop, DynamicBeatsStaticUnderChurn) {
  const auto entry = make_file_copier();  // heterogeneous path costs
  CoopConfig base;
  base.num_workers = 6;
  base.churn_prob = 0.004;
  base.net.drop_prob = 0.02;
  base.seed = 3;

  CoopConfig s = base, d = base;
  s.strategy = PartitionStrategy::kStatic;
  d.strategy = PartitionStrategy::kDynamic;
  const auto rs = run_cooperative_exploration(entry, s);
  const auto rd = run_cooperative_exploration(entry, d);
  ASSERT_TRUE(rs.complete);
  ASSERT_TRUE(rd.complete);
  EXPECT_LE(rd.ticks, rs.ticks);
}

TEST(Coop, DeterministicForSeed) {
  const auto entry = make_config_space(7);
  CoopConfig cfg;
  cfg.num_workers = 3;
  cfg.churn_prob = 0.01;
  cfg.net.drop_prob = 0.05;
  const auto a = run_cooperative_exploration(entry, cfg);
  const auto b = run_cooperative_exploration(entry, cfg);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.worker_deaths, b.worker_deaths);
}

// ----------------------------------------------------------------- hive ----

class HiveTest : public ::testing::Test {
 protected:
  HiveTest() : corpus_(standard_corpus()), hive_(&corpus_) {}

  const CorpusEntry& entry(const std::string& name) const {
    for (const auto& e : corpus_) {
      if (e.program.name == name) return e;
    }
    SB_CHECK(false);
    return corpus_[0];
  }

  std::vector<CorpusEntry> corpus_;
  Hive hive_;
};

TEST_F(HiveTest, IngestBuildsTree) {
  const auto& parser = entry("media_parser");
  for (std::uint64_t i = 1; i <= 20; ++i) {
    Trace t = failing_trace(parser, {static_cast<Value>(i % 64),
                                     static_cast<Value>(i * 12 % 256)},
                            i);
    hive_.ingest(t);
  }
  ExecTree* tree = hive_.tree(parser.program.id);
  ASSERT_NE(tree, nullptr);
  EXPECT_GT(tree->num_paths(), 1u);
  EXPECT_EQ(hive_.stats().traces_ingested, 20u);
}

TEST_F(HiveTest, WireRoundTripThroughIngestBytes) {
  const auto& parser = entry("media_parser");
  const Trace t = failing_trace(parser, {13, 250}, 5);
  hive_.ingest_bytes(encode_trace(t));
  EXPECT_EQ(hive_.stats().traces_ingested, 1u);
  EXPECT_EQ(hive_.bug_tracker().all().size(), 1u);
}

// Wires come from outside (pods, routers, socket frames), so replay refuses
// a claim no run of the interpreter makes instead of running it. Each claim
// is sized just past what replay accepts: a replay that ran it anyway would
// still return quickly, and merge it.
void expect_unreplayable(const std::vector<CorpusEntry>& corpus,
                         const Trace& t) {
  for (const bool batch : {false, true}) {
    Hive hive(&corpus);
    if (batch) {
      hive.ingest_batch({encode_trace(t)});
    } else {
      hive.ingest_bytes(encode_trace(t));
    }
    EXPECT_EQ(hive.stats().traces_ingested, 1u) << batch;
    EXPECT_EQ(hive.stats().replay_failures, 1u) << batch;
    EXPECT_EQ(hive.stats().paths_merged, 0u) << batch;
    // Bug tracking runs before replay: the sighting still counts.
    EXPECT_EQ(hive.bug_tracker().all().size(),
              t.outcome == Outcome::kOk ? 0u : 1u)
        << batch;
  }
}

TEST_F(HiveTest, WireClaimingStepsPastTheCapIsUnreplayable) {
  // The hang trace of a pod whose max_steps is twice the cap, on a program
  // that spins without reading anything.
  ProgramBuilder b("spin", 900);
  b.jump(b.here());
  std::vector<CorpusEntry> corpus = corpus_;
  corpus.emplace_back().program = b.build();
  ExecConfig cfg;
  cfg.max_steps = 2 * kMaxReplaySteps;
  Trace t = execute(corpus.back().program, cfg).trace;
  t.id = TraceId(1);
  ASSERT_EQ(t.outcome, Outcome::kHang);
  ASSERT_GT(t.steps, kMaxReplaySteps);
  expect_unreplayable(corpus, t);
}

TEST_F(HiveTest, WireWhoseScheduleDisagreesWithItsStepsIsUnreplayable) {
  // race_counter's thread 0 increments, then spins on a global only thread
  // 1 sets: a schedule of thread 0 alone runs it for as long as it claims,
  // with no bits to read. One step past the cap, against steps at the cap.
  Trace t;
  t.id = TraceId(1);
  t.program = entry("race_counter").program.id;
  t.schedule = {{0, static_cast<std::uint32_t>(kMaxReplaySteps + 1)}};
  t.steps = kMaxReplaySteps;
  expect_unreplayable(corpus_, t);
}

TEST_F(HiveTest, MalformedBytesCounted) {
  hive_.ingest_bytes({0xde, 0xad, 0xbe, 0xef});
  EXPECT_EQ(hive_.stats().decode_failures, 1u);
  EXPECT_EQ(hive_.stats().traces_ingested, 0u);
}

TEST_F(HiveTest, DuplicateTraceIdsDropped) {
  const auto& parser = entry("media_parser");
  const Trace t = failing_trace(parser, {20, 10}, 7);
  hive_.ingest(t);
  hive_.ingest(t);
  EXPECT_EQ(hive_.stats().traces_ingested, 1u);
  EXPECT_EQ(hive_.stats().duplicates_dropped, 1u);
}

// --- dedup window ---------------------------------------------------------

Trace on_day(Trace t, std::uint64_t id, std::uint64_t day) {
  t.id = TraceId(id);
  t.day = day;
  return t;
}

TEST_F(HiveTest, DuplicateOnItsOwnDayIsDropped) {
  const auto& parser = entry("media_parser");
  const Trace t = on_day(failing_trace(parser, {20, 10}, 7), 7, 30);
  hive_.ingest(t);
  hive_.ingest(on_day(failing_trace(parser, {21, 10}, 8), 8, 31));
  hive_.ingest(t);  // a network copy: same bytes, so the same day
  EXPECT_EQ(hive_.stats().traces_ingested, 2u);
  EXPECT_EQ(hive_.stats().duplicates_dropped, 1u);
  EXPECT_EQ(hive_.stats().stale_dropped, 0u);
  EXPECT_EQ(hive_.dedup_clock(), 31u);
  const std::vector<std::pair<std::uint64_t, std::size_t>> window = {{30, 1},
                                                                     {31, 1}};
  EXPECT_EQ(hive_.dedup_window(), window);
}

TEST_F(HiveTest, CopyOlderThanTheWindowIsStale) {
  const auto& parser = entry("media_parser");
  const Trace crash = on_day(failing_trace(parser, {13, 250}, 3), 3, 10);
  ASSERT_NE(crash.outcome, Outcome::kOk);
  hive_.ingest(crash);
  ASSERT_EQ(hive_.bug_tracker().all().size(), 1u);
  // Newest day d+14: day d is still in the window, so a copy is a duplicate.
  hive_.ingest(on_day(failing_trace(parser, {20, 10}, 4), 4, 24));
  hive_.ingest(crash);
  EXPECT_EQ(hive_.stats().duplicates_dropped, 1u);
  EXPECT_EQ(hive_.stats().stale_dropped, 0u);
  // Newest day d+15: day d's ids are gone, so the copy is refused as stale.
  hive_.ingest(on_day(failing_trace(parser, {21, 10}, 5), 5, 25));
  const HiveStats before = hive_.stats();
  const std::uint64_t occurrences = hive_.bug_tracker().all()[0].occurrences;
  hive_.ingest(crash);
  EXPECT_EQ(hive_.stats().stale_dropped, before.stale_dropped + 1);
  EXPECT_EQ(hive_.stats().duplicates_dropped, before.duplicates_dropped);
  EXPECT_EQ(hive_.stats().traces_ingested, before.traces_ingested);
  EXPECT_EQ(hive_.stats().paths_merged, before.paths_merged);
  EXPECT_EQ(hive_.bug_tracker().all().size(), 1u);
  EXPECT_EQ(hive_.bug_tracker().all()[0].occurrences, occurrences);
  // A never-seen trace of that day is refused the same way, bug and all.
  hive_.ingest(on_day(failing_trace(parser, {13, 251}, 6), 6, 10));
  EXPECT_EQ(hive_.stats().stale_dropped, before.stale_dropped + 2);
  EXPECT_EQ(hive_.bug_tracker().all()[0].occurrences, occurrences);
  EXPECT_EQ(hive_.dedup_clock(), 25u);
  EXPECT_EQ(hive_.dedup_window().front().first, 24u);
}

TEST_F(HiveTest, IdZeroBypassesTheWindow) {
  const auto& parser = entry("media_parser");
  hive_.ingest(on_day(failing_trace(parser, {20, 10}, 9), 9, 100));
  // Warm-start regression wires carry id 0 and day 0, replayed every day.
  const Trace regression = on_day(failing_trace(parser, {13, 250}, 3), 0, 0);
  hive_.ingest(regression);
  hive_.ingest(regression);
  EXPECT_EQ(hive_.stats().traces_ingested, 3u);
  EXPECT_EQ(hive_.stats().duplicates_dropped, 0u);
  EXPECT_EQ(hive_.stats().stale_dropped, 0u);
  EXPECT_EQ(hive_.dedup_clock(), 100u);
  const std::vector<std::pair<std::uint64_t, std::size_t>> window = {{100, 1}};
  EXPECT_EQ(hive_.dedup_window(), window);
}

TEST_F(HiveTest, WindowAndSnapshotDropDaysTheClockPassed) {
  // Days 1-3, then a jump to day 30: buckets 1-3 still hold their ids but
  // left the window, so neither the window nor a snapshot keeps them.
  const auto& parser = entry("media_parser");
  std::vector<Trace> traces;
  for (std::uint64_t day : {1, 2, 3, 30}) {
    traces.push_back(on_day(
        failing_trace(parser, {20, static_cast<Value>(day)}, day), day, day));
    hive_.ingest(traces.back());
  }
  const std::vector<std::pair<std::uint64_t, std::size_t>> window = {{30, 1}};
  EXPECT_EQ(hive_.dedup_window(), window);

  Bytes state;
  hive_.save_state(state);
  Hive restored(&corpus_);
  StateReader r(state);
  ASSERT_TRUE(restored.load_state(r));
  ASSERT_TRUE(r.done());
  EXPECT_EQ(restored.dedup_clock(), 30u);
  EXPECT_EQ(restored.dedup_window(), window);
  restored.ingest(traces[3]);  // still remembered
  restored.ingest(traces[1]);  // too old to tell from a copy
  EXPECT_EQ(restored.stats().duplicates_dropped, 1u);
  EXPECT_EQ(restored.stats().stale_dropped, 1u);
  EXPECT_EQ(restored.stats().traces_ingested, 4u);
}

TEST_F(HiveTest, CrashProducesApprovedFix) {
  const auto& parser = entry("media_parser");
  hive_.ingest(failing_trace(parser, {13, 250}, 3));
  const auto fixes = hive_.process();
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_GE(fixes[0].score(), 0.9);
  EXPECT_EQ(hive_.stats().fixes_approved, 1u);
  EXPECT_TRUE(hive_.bug_tracker().open_bugs().empty());
}

TEST_F(HiveTest, ProcessIsIdempotentPerBug) {
  const auto& parser = entry("media_parser");
  hive_.ingest(failing_trace(parser, {13, 250}, 3));
  EXPECT_EQ(hive_.process().size(), 1u);
  EXPECT_TRUE(hive_.process().empty());  // no new bugs, no new fixes
}

TEST_F(HiveTest, DeadlockProducesLockFix) {
  const auto& bank = entry("bank_transfer");
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Trace t = failing_trace(bank, {150}, seed);
    if (t.outcome == Outcome::kDeadlock) {
      hive_.ingest(t);
      break;
    }
  }
  const auto fixes = hive_.process();
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<LockAvoidanceFix>(fixes[0].fix));
}

TEST_F(HiveTest, ScheduleAssertGoesToRepairLab) {
  const auto& race = entry("race_counter");
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Trace t = failing_trace(race, {}, seed);
    if (t.outcome == Outcome::kCrash) {
      hive_.ingest(t);
      break;
    }
  }
  ASSERT_EQ(hive_.bug_tracker().count(BugKind::kScheduleAssert), 1u);
  const auto fixes = hive_.process();
  EXPECT_TRUE(fixes.empty());  // never auto-distributed
  EXPECT_EQ(hive_.repair_lab().size(), 1u);
}

TEST_F(HiveTest, ProofAfterIngestingExecutions) {
  const auto& config = entry("config_space_10");
  Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    std::vector<Value> inputs;
    for (int j = 0; j < 10; ++j) inputs.push_back(rng.next_bool() ? 1 : 0);
    ExecConfig cfg;
    cfg.inputs = inputs;
    auto result = execute(config.program, cfg);
    result.trace.id = TraceId(static_cast<std::uint64_t>(i) + 1);
    hive_.ingest(result.trace);
  }
  const auto cert =
      hive_.attempt_proof(config.program.id, Property::kNeverCrashes);
  EXPECT_TRUE(cert.publishable());
  EXPECT_EQ(cert.paths_total, 1024u);
  EXPECT_GT(cert.paths_from_executions, 0u);
  EXPECT_GT(cert.paths_from_symbolic, 0u);
  EXPECT_EQ(hive_.published_proofs().size(), 1u);
}

TEST_F(HiveTest, ReproofOfAnUnchangedProgramPublishesOnce) {
  // One trace down each of magic_lookup's two paths completes its tree from
  // natural executions alone, so every never-deadlocks attempt issues the
  // same certificate content.
  const auto& lookup = entry("magic_lookup");
  hive_.ingest(failing_trace(lookup, {7}, 1));
  hive_.ingest(failing_trace(lookup, {4242}, 2));
  ASSERT_TRUE(hive_.tree(lookup.program.id)->complete());

  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(hive_.attempt_proof(lookup.program.id,
                                    Property::kNeverDeadlocks)
                    .publishable());
  }
  EXPECT_EQ(hive_.proof_stats().publishable, 5u);
  ASSERT_EQ(hive_.published_proofs().size(), 1u);
  EXPECT_EQ(hive_.valid_proof_count(), 1u);

  // The crash fix changes the deployed program and revokes the proof; the
  // next re-proof publishes again, under the id its attempt drew.
  ASSERT_EQ(hive_.process().size(), 1u);
  EXPECT_EQ(hive_.valid_proof_count(), 0u);
  const ProofCertificate again =
      hive_.attempt_proof(lookup.program.id, Property::kNeverDeadlocks);
  EXPECT_EQ(again.id, ProofId(6));
  ASSERT_EQ(hive_.published_proofs().size(), 2u);
  EXPECT_TRUE(hive_.published_proofs()[0].revoked);
  EXPECT_FALSE(hive_.published_proofs()[1].revoked);
  EXPECT_EQ(hive_.published_proofs()[1].certificate, again);
  EXPECT_EQ(hive_.valid_proof_count(), 1u);

  // A tree that gap closure completed: the first attempt refutes
  // worker_pool's defensive abort with the solver and closes it in the
  // tree, so the re-proofs make no solver call and close no gap. The
  // attempts differ in telemetry, not in what they prove.
  const auto& pool = entry("worker_pool");
  hive_.ingest(failing_trace(pool, {10}, 3));
  hive_.ingest(failing_trace(pool, {70}, 4));
  const ProofCertificate first =
      hive_.attempt_proof(pool.program.id, Property::kNeverCrashes);
  ASSERT_TRUE(first.publishable());
  EXPECT_GE(first.gaps_closed_infeasible, 1u);
  for (int i = 0; i < 3; ++i) {
    const ProofCertificate re =
        hive_.attempt_proof(pool.program.id, Property::kNeverCrashes);
    ASSERT_TRUE(re.publishable());
    EXPECT_EQ(re.gaps_closed_infeasible, 0u);
  }
  std::size_t pool_certificates = 0;
  for (const auto& published : hive_.published_proofs()) {
    if (published.certificate.program == pool.program.id) pool_certificates++;
  }
  EXPECT_EQ(pool_certificates, 1u);
}

TEST_F(HiveTest, ProofCarriesTheDayItWasIssued) {
  // magic_lookup's two paths complete its tree; the traces arrive on days 3
  // and 7, so a proof after them is issued on day 7, and a snapshot keeps
  // both the certificate's day and the day the next proof is stamped with.
  const auto& lookup = entry("magic_lookup");
  hive_.ingest(on_day(failing_trace(lookup, {7}, 1), 1, 3));
  hive_.ingest(on_day(failing_trace(lookup, {4242}, 2), 2, 7));
  const ProofCertificate cert =
      hive_.attempt_proof(lookup.program.id, Property::kNeverDeadlocks);
  ASSERT_TRUE(cert.publishable());
  EXPECT_EQ(cert.day_issued, 7u);
  ASSERT_EQ(hive_.published_proofs().size(), 1u);
  EXPECT_EQ(hive_.published_proofs()[0].certificate.day_issued, 7u);

  Bytes state;
  hive_.save_state(state);
  Hive restored(&corpus_);
  StateReader r(state);
  ASSERT_TRUE(restored.load_state(r));
  ASSERT_EQ(restored.published_proofs().size(), 1u);
  EXPECT_EQ(restored.published_proofs()[0].certificate.day_issued, 7u);
  EXPECT_EQ(restored.attempt_proof(lookup.program.id, Property::kNeverCrashes)
                .day_issued,
            7u);
}

TEST_F(HiveTest, KAnonymityGateHoldsRarePaths) {
  HiveConfig cfg;
  cfg.k_anonymity = 3;
  Hive gated(&corpus_, cfg);
  const auto& parser = entry("media_parser");
  // One pod, one path: never released.
  Trace t = failing_trace(parser, {20, 10}, 1);
  t.pod = PodId(1);
  gated.ingest(t);
  EXPECT_EQ(gated.stats().gated_traces, 1u);
  ExecTree* tree = gated.tree(parser.program.id);
  EXPECT_TRUE(tree == nullptr || tree->num_paths() == 0u);

  // Two more pods with the same path: the bucket releases.
  for (std::uint64_t pod = 2; pod <= 3; ++pod) {
    Trace more = failing_trace(parser, {20, 10}, pod * 100);
    more.pod = PodId(pod);
    more.id = TraceId(pod * 1000);
    gated.ingest(more);
  }
  tree = gated.tree(parser.program.id);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->num_paths(), 1u);
}

}  // namespace
}  // namespace softborg
