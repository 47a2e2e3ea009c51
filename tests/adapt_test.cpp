// Adaptive control plane (hive/adapt.h): ledger estimation and persistence,
// the allocation rule's determinism and optimism, plan_schedules /
// plan_frontier determinism (the property the adaptive rebalancer leans
// on), coop outcome surfacing, ledger-seeded coop priors, and the adaptive
// kill-and-resume differential.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/softborg.h"
#include "hive/adapt.h"
#include "hive/report.h"

namespace softborg {
namespace {

namespace fs = std::filesystem;

ProgramId pid(std::uint64_t v) { return ProgramId{v}; }

// --- satellite: the 0-means-default frontier budget rule ---------------------

TEST(GuidanceConfig, FrontierBudgetDefaultResolvedInOnePlace) {
  GuidancePlannerConfig config;  // frontier_budget = 0
  EXPECT_EQ(config.effective_frontier_budget(5), 10u);
  EXPECT_EQ(config.effective_frontier_budget(0), 0u);
  config.frontier_budget = 7;
  EXPECT_EQ(config.effective_frontier_budget(5), 7u);
}

// --- YieldLedger -------------------------------------------------------------

TEST(YieldLedger, FirstObservationOnlyBaselines) {
  YieldLedger ledger;
  ledger.note_work(pid(1), 4);
  ledger.observe_program(pid(1), 10, 6, false);
  const auto* e = ledger.estimate(pid(1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->observations, 0u);  // first sighting anchors, never scores
  EXPECT_DOUBLE_EQ(e->ret, 0.0);
  EXPECT_DOUBLE_EQ(e->opportunity, 6.0);
}

TEST(YieldLedger, ReturnIsGainedPathsPerUnitOfWork) {
  AdaptConfig config;
  config.ewma_alpha = 1.0;  // estimate == latest observation
  YieldLedger ledger(config);
  ledger.observe_program(pid(1), 10, 5, false);  // baseline
  ledger.note_work(pid(1), 4);
  ledger.observe_program(pid(1), 18, 3, false);  // +8 paths for 4 units
  const auto* e = ledger.estimate(pid(1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->observations, 1u);
  EXPECT_DOUBLE_EQ(e->ret, 2.0);
  EXPECT_DOUBLE_EQ(e->opportunity, 3.0);
  // No work noted: the day's gain divides by the 1-unit floor.
  ledger.observe_program(pid(1), 21, 0, true);
  EXPECT_DOUBLE_EQ(ledger.estimate(pid(1))->ret, 3.0);
  EXPECT_TRUE(ledger.estimate(pid(1))->proven);
}

TEST(YieldLedger, PersistenceRoundTripsEveryField) {
  YieldLedger ledger;
  ledger.observe_program(pid(3), 5, 2, false);
  ledger.note_work(pid(3), 2);
  ledger.observe_program(pid(3), 9, 1, false);
  ledger.observe_program(pid(7), 100, 0, true);
  ledger.observe_equity(pid(3), YieldLedger::equity_key(4, true), 12.5, 3);
  IngestStats ing;
  ing.replay_cache_hits = 8;
  ing.replay_cache_misses = 2;
  ledger.observe_hive(ing);

  Bytes bytes;
  ledger.save_state(bytes);
  YieldLedger restored;
  StateReader r(bytes);
  ASSERT_TRUE(restored.load_state(r));
  ASSERT_TRUE(r.done());
  EXPECT_TRUE(restored.state_equals(ledger));
  // The restored ledger keeps estimating identically (the delta baselines
  // survived, so the next observe_hive sees a delta, not the cumulative).
  YieldLedger copy = ledger;
  ing.replay_cache_hits = 10;
  restored.observe_hive(ing);
  copy.observe_hive(ing);
  EXPECT_DOUBLE_EQ(restored.replay_recycle_rate(),
                   copy.replay_recycle_rate());

  // Truncated payloads are corruption, not a crash.
  Bytes truncated(bytes.begin(), bytes.begin() + bytes.size() / 2);
  YieldLedger victim;
  StateReader rt(truncated);
  EXPECT_FALSE(victim.load_state(rt) && rt.done());
}

TEST(YieldLedger, LoadRejectsUnsortedProgramKeys) {
  // Two entries with the same key: legal varints, illegal ledger.
  Bytes bytes;
  put_varint(bytes, 2);  // program count
  for (int i = 0; i < 2; ++i) {
    put_varint(bytes, 5);  // duplicate key
    put_f64(bytes, 1.0);
    put_f64(bytes, 0.0);
    put_f64(bytes, 2.0);
    put_varint(bytes, 1);
    put_bool(bytes, false);
    put_varint(bytes, 3);
    put_varint(bytes, 0);
    put_bool(bytes, true);
  }
  YieldLedger ledger;
  StateReader r(bytes);
  EXPECT_FALSE(ledger.load_state(r));
}

TEST(YieldLedger, MetricsDeltaFeedsRecycleRates) {
  AdaptConfig config;
  config.ewma_alpha = 1.0;
  YieldLedger ledger(config);
  obs::MetricsSnapshot delta;
  delta.counters = {{"hive.replay.cache_hits_total", 8},
                    {"hive.replay.cache_misses_total", 2}};
  ledger.ingest_metrics_delta(delta);
  EXPECT_DOUBLE_EQ(ledger.replay_recycle_rate(), 0.8);
  // An empty delta must not disturb the estimates (no divide-by-zero day).
  ledger.ingest_metrics_delta(obs::MetricsSnapshot{});
  EXPECT_DOUBLE_EQ(ledger.replay_recycle_rate(), 0.8);
}

// --- AdaptivePlanner ---------------------------------------------------------

TEST(AdaptivePlanner, AllocateIsExactAndDeterministic) {
  YieldLedger ledger;
  AdaptivePlanner planner;
  const std::vector<ProgramId> targets = {pid(1), pid(2), pid(3)};

  // Cold ledger: every target unknown, so the split degrades to uniform.
  const auto cold = planner.allocate(9, targets, ledger);
  EXPECT_EQ(cold, (std::vector<std::size_t>{3, 3, 3}));

  // Teach the ledger that program 2 pays and program 1 is saturated.
  ledger.observe_program(pid(1), 8, 0, true);
  ledger.observe_program(pid(2), 0, 50, false);
  ledger.note_work(pid(2), 1);
  ledger.observe_program(pid(2), 20, 40, false);
  const auto warm = planner.allocate(10, targets, ledger);
  EXPECT_EQ(warm[0], 0u);  // saturated: proven and nothing left to open
  EXPECT_GT(warm[1], warm[2]);
  EXPECT_EQ(warm[0] + warm[1] + warm[2], 10u);
  EXPECT_EQ(planner.allocate(10, targets, ledger), warm);  // pure function
}

TEST(AdaptivePlanner, OptimismFundsTheUnexplored) {
  AdaptConfig config;
  config.ewma_alpha = 1.0;
  YieldLedger ledger(config);
  AdaptivePlanner planner(config);
  // Program 1: observed repeatedly, tiny return. Program 2: never seen.
  ledger.observe_program(pid(1), 0, 10, false);
  for (int day = 1; day <= 8; ++day) {
    ledger.note_work(pid(1), 10);
    ledger.observe_program(pid(1), static_cast<std::size_t>(day), 10, false);
  }
  EXPECT_GT(planner.score(ledger, pid(2)), planner.score(ledger, pid(1)));
  const auto order = planner.rank({pid(1), pid(2)}, ledger);
  EXPECT_EQ(order[0], 1u);
}

// --- satellite: planner determinism ------------------------------------------

std::vector<Bytes> encoded_plan(const std::vector<GuidanceDirective>& plan) {
  std::vector<Bytes> out;
  out.reserve(plan.size());
  for (const auto& d : plan) out.push_back(encode_guidance(d));
  return out;
}

TEST(GuidancePlanner, PlanSchedulesIsDeterministic) {
  const auto entry = make_bank_transfer();
  GuidancePlanner planner;
  Rng rng_a(42), rng_b(42);
  const auto a = encoded_plan(planner.plan_schedules(entry, 6, rng_a));
  const auto b = encoded_plan(planner.plan_schedules(entry, 6, rng_b));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical directives for identical (entry, n, rng)
  // A different seed must actually steer the plans (the rng is load-bearing).
  Rng rng_c(43);
  EXPECT_NE(a, encoded_plan(planner.plan_schedules(entry, 6, rng_c)));
}

TEST(GuidancePlanner, PlanFrontierIsDeterministicAcrossPlanners) {
  const auto entry = make_config_space(4);
  ExecTree tree(entry.program.id);
  ExecConfig cfg;
  cfg.inputs = {0, 0, 0, 0};
  cfg.collect_branch_events = true;
  const auto live = execute(entry.program, cfg);
  std::vector<SymDecision> ds;
  for (const auto& ev : live.branch_events) {
    if (ev.tainted) ds.push_back({ev.site, ev.taken});
  }
  tree.add_path(ds, Outcome::kOk);

  GuidancePlanner a, b;
  const auto pa = encoded_plan(a.plan_frontier(entry, tree, 4));
  const auto pb = encoded_plan(b.plan_frontier(entry, tree, 4));
  ASSERT_FALSE(pa.empty());
  EXPECT_EQ(pa, pb);
}

// --- coop integration --------------------------------------------------------

TEST(CoopAdapt, LedgerSeedsPortfolioAndGetsCostsBack) {
  const auto entry = make_skewed_workload(5);
  CoopConfig config;
  config.strategy = PartitionStrategy::kPortfolio;
  config.num_workers = 4;
  config.seed = 9;

  YieldLedger ledger;
  config.yield = &ledger;
  const CoopResult first = run_cooperative_exploration(entry, config);
  EXPECT_TRUE(first.complete);
  EXPECT_EQ(first.strategy, PartitionStrategy::kPortfolio);
  // The run wrote observed per-subtree costs back: both top-level equities
  // of the skewed workload are now known.
  int known = 0;
  for (const bool taken : {false, true}) {
    const auto* eq =
        ledger.equity(entry.program.id, YieldLedger::equity_key(0, taken));
    if (eq != nullptr && eq->units > 0) known++;
  }
  EXPECT_GT(known, 0);

  // Determinism: two runs from byte-identical ledgers agree exactly.
  Bytes state;
  ledger.save_state(state);
  YieldLedger la, lb;
  StateReader ra(state), rb(state);
  ASSERT_TRUE(la.load_state(ra));
  ASSERT_TRUE(lb.load_state(rb));
  CoopConfig ca = config, cb = config;
  ca.yield = &la;
  cb.yield = &lb;
  const CoopResult a = run_cooperative_exploration(entry, ca);
  const CoopResult b = run_cooperative_exploration(entry, cb);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.useful_steps, b.useful_steps);
  EXPECT_EQ(a.wasted_steps, b.wasted_steps);
  EXPECT_EQ(a.idle_ticks, b.idle_ticks);
  EXPECT_TRUE(la.state_equals(lb));
}

// --- satellite: coop outcomes surfaced ---------------------------------------

TEST(CoopAdapt, OutcomesSurfaceInDayMetricsAndReport) {
  WorldConfig config;
  config.pods_per_program = 2;
  config.days = 2;
  config.mean_runs_per_day = 1.0;
  config.coop_programs_per_day = 1;
  config.coop.num_workers = 2;
  config.seed = 5;
  std::vector<CorpusEntry> corpus;
  corpus.push_back(make_config_space(3));
  World world(std::move(corpus), config);
  world.run();

  std::uint64_t runs = 0, by_strategy = 0;
  for (const auto& d : world.history()) {
    runs += d.coop_runs;
    for (const auto n : d.coop_runs_by_strategy) by_strategy += n;
  }
  EXPECT_EQ(runs, 2u);  // one run per day
  EXPECT_EQ(by_strategy, runs);

  const auto& stats =
      world.hive().coop_stats()[static_cast<std::size_t>(config.coop.strategy)];
  EXPECT_EQ(stats.runs, 2u);
  EXPECT_GT(stats.useful_steps, 0u);

  const std::string report = hive_status_report(world.hive());
  EXPECT_NE(report.find("coop[dynamic]"), std::string::npos) << report;
  EXPECT_NE(report.find("idle ticks"), std::string::npos) << report;
}

TEST(CoopAdapt, ReportSaysSoWhenNoCoopRan) {
  std::vector<CorpusEntry> corpus;
  corpus.push_back(make_config_space(3));
  Hive hive(&corpus);
  const std::string report = hive_status_report(hive);
  EXPECT_NE(report.find("coop: no cooperative runs"), std::string::npos);
}

// --- adaptive world ----------------------------------------------------------

class AdaptWorldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("sb_adapt_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::vector<CorpusEntry> small_corpus() {
    std::vector<CorpusEntry> corpus;
    corpus.push_back(make_config_space(3));
    corpus.push_back(make_skewed_workload(4));
    return corpus;
  }

  static WorldConfig adaptive_config() {
    WorldConfig config;
    config.pods_per_program = 4;
    config.days = 6;
    config.mean_runs_per_day = 2.0;
    config.guidance_per_program_per_day = 2;
    config.proof_programs_per_day = 1;
    config.coop_programs_per_day = 1;
    config.coop.num_workers = 2;
    config.adapt.static_plan = false;
    config.seed = 31;
    return config;
  }

  std::string dir_;
};

TEST_F(AdaptWorldTest, LedgerLearnsFromTheRun) {
  World world(small_corpus(), adaptive_config());
  world.run();
  for (const auto& entry : world.corpus()) {
    const auto* e = world.yield_ledger().estimate(entry.program.id);
    ASSERT_NE(e, nullptr) << entry.program.name;
    EXPECT_GT(e->observations, 0u) << entry.program.name;
  }
  std::uint64_t coop_runs = 0;
  for (const auto& d : world.history()) coop_runs += d.coop_runs;
  EXPECT_GT(coop_runs, 0u);
}

TEST_F(AdaptWorldTest, AdaptiveKillAndResumeIsBitIdentical) {
  const WorldConfig config = adaptive_config();

  World cold(small_corpus(), config);
  for (std::uint64_t d = 0; d < config.days; ++d) cold.step_day();

  {
    World doomed(small_corpus(), config);
    for (int d = 0; d < 3; ++d) doomed.step_day();
    std::string err;
    ASSERT_TRUE(doomed.save_snapshot(dir_, &err)) << err;
  }

  World resumed(small_corpus(), config);
  std::string err;
  ASSERT_TRUE(resumed.resume_from_snapshot(dir_, &err)) << err;
  EXPECT_EQ(resumed.day(), 3u);
  while (resumed.day() < config.days) resumed.step_day();

  ASSERT_EQ(cold.history().size(), resumed.history().size());
  for (std::size_t i = 0; i < cold.history().size(); ++i) {
    EXPECT_EQ(cold.history()[i], resumed.history()[i]) << "day index " << i;
  }
  // The learned allocation itself survived the kill — byte for byte. (Only
  // the planning state: the advisory replay-recycle EWMA legitimately
  // differs, because the replay cache is ephemeral and a resumed hive
  // re-replays cold. Nothing the planner reads can diverge.)
  EXPECT_TRUE(
      cold.yield_ledger().planning_state_equals(resumed.yield_ledger()));
  EXPECT_EQ(cold.hive().coop_stats(), resumed.hive().coop_stats());
}

TEST_F(AdaptWorldTest, StaticPlanStillFingerprintsAdaptKnobs) {
  // Flipping static_plan changes behavior, so a snapshot from one mode must
  // refuse to resume into the other.
  WorldConfig config = adaptive_config();
  World saver(small_corpus(), config);
  saver.step_day();
  ASSERT_TRUE(saver.save_snapshot(dir_));

  WorldConfig other = config;
  other.adapt.static_plan = true;
  World victim(small_corpus(), other);
  std::string err;
  EXPECT_FALSE(victim.resume_from_snapshot(dir_, &err));
  EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
}

}  // namespace
}  // namespace softborg
