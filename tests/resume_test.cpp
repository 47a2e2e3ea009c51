// Kill-and-resume differential (ISSUE 7 headline): a cold N-day run and a
// run snapshotted at day k, torn down, and resumed into a fresh World must
// be indistinguishable — byte-identical trees, identical day metrics and
// stats, identical proof certificates. Plus: version/config-skew refusal,
// partial-write fallback to cold start, and the warm-start head start.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/softborg.h"
#include "store/store.h"

namespace softborg {
namespace {

namespace fs = std::filesystem;

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("sb_resume_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

WorldConfig resume_config() {
  WorldConfig config;
  config.pods_per_program = 15;
  config.days = 6;
  config.mean_runs_per_day = 5.0;
  config.seed = 21;
  config.guidance_per_program_per_day = 2;
  config.proof_programs_per_day = 2;
  config.canary_fraction = 0.5;  // exercise pending-rollout persistence
  config.net.drop_prob = 0.03;
  return config;
}

// Full-state equivalence between two worlds, checked at every layer the
// snapshot covers.
void expect_worlds_equal(const World& a, const World& b) {
  EXPECT_EQ(a.day(), b.day());
  ASSERT_EQ(a.history().size(), b.history().size());
  for (std::size_t i = 0; i < a.history().size(); ++i) {
    EXPECT_EQ(a.history()[i], b.history()[i]) << "day index " << i;
  }
  EXPECT_EQ(a.hive().stats(), b.hive().stats());
  EXPECT_EQ(a.hive().proof_stats(), b.hive().proof_stats());
  EXPECT_EQ(a.hive().bug_tracker(), b.hive().bug_tracker());
  EXPECT_EQ(a.net_stats(), b.net_stats());
  EXPECT_EQ(a.pending_rollouts(), b.pending_rollouts());
  ASSERT_EQ(a.hive().published_proofs().size(),
            b.hive().published_proofs().size());
  for (std::size_t i = 0; i < a.hive().published_proofs().size(); ++i) {
    const auto& pa = a.hive().published_proofs()[i];
    const auto& pb = b.hive().published_proofs()[i];
    EXPECT_EQ(pa.revoked, pb.revoked);
    EXPECT_EQ(pa.certificate.id, pb.certificate.id);
    EXPECT_EQ(pa.certificate.program, pb.certificate.program);
    EXPECT_EQ(pa.certificate.complete, pb.certificate.complete);
    EXPECT_EQ(pa.certificate.holds, pb.certificate.holds);
    EXPECT_EQ(pa.certificate.paths_total, pb.certificate.paths_total);
    EXPECT_EQ(pa.certificate.solver_calls, pb.certificate.solver_calls);
  }
  for (const auto& entry : a.corpus()) {
    const ExecTree* ta = a.hive().tree(entry.program.id);
    const ExecTree* tb = b.hive().tree(entry.program.id);
    ASSERT_EQ(ta == nullptr, tb == nullptr) << entry.program.id.value;
    if (ta != nullptr) {
      EXPECT_TRUE(*ta == *tb) << "tree " << entry.program.id.value;
    }
  }
}

// The core differential, parameterized on the interruption day.
void run_kill_and_resume(const std::string& dir, std::uint64_t kill_day) {
  const WorldConfig config = resume_config();

  // Cold reference: N uninterrupted days.
  World cold(standard_corpus(), config);
  for (std::uint64_t d = 0; d < config.days; ++d) cold.step_day();

  // Interrupted run: step to kill_day, snapshot, and drop the World (the
  // simulated kill — nothing of the process state survives but the store).
  {
    World doomed(standard_corpus(), config);
    for (std::uint64_t d = 0; d < kill_day; ++d) doomed.step_day();
    std::string err;
    ASSERT_TRUE(doomed.save_snapshot(dir, &err)) << err;
  }

  // Resume into a fresh World and finish the horizon.
  World resumed(standard_corpus(), config);
  std::string err;
  ASSERT_TRUE(resumed.resume_from_snapshot(dir, &err)) << err;
  EXPECT_EQ(resumed.day(), kill_day);
  while (resumed.day() < config.days) resumed.step_day();

  expect_worlds_equal(cold, resumed);
}

TEST_F(ResumeTest, KillAfterFirstDay) { run_kill_and_resume(dir_, 1); }
TEST_F(ResumeTest, KillMidRun) { run_kill_and_resume(dir_, 3); }
TEST_F(ResumeTest, KillOnLastDay) {
  run_kill_and_resume(dir_, resume_config().days);
}

// Forty days: long enough for the dedup window to recycle its buckets
// (DESIGN.md, "Dedup window"), with network copies for it to catch.
WorldConfig window_config() {
  WorldConfig config;
  config.pods_per_program = 4;
  config.days = 40;
  config.mean_runs_per_day = 3.0;
  config.seed = 23;
  config.net.drop_prob = 0.02;
  config.net.dup_prob = 0.05;
  return config;
}

TEST_F(ResumeTest, SnapshotHoldsOnlyTheDedupWindow) {
  World world(standard_corpus(), window_config());
  for (std::uint64_t d = 0; d < 40; ++d) world.step_day();
  ASSERT_GT(world.hive().stats().duplicates_dropped, 0u);
  ASSERT_TRUE(world.save_snapshot(dir_));

  World resumed(standard_corpus(), window_config());
  std::string err;
  ASSERT_TRUE(resumed.resume_from_snapshot(dir_, &err)) << err;
  const Hive& hive = resumed.hive();
  EXPECT_EQ(hive.dedup_clock(), 40u);
  const auto window = hive.dedup_window();
  EXPECT_EQ(window, world.hive().dedup_window());
  // At most 15 days of ids: the clock's day and the 14 before it. Every id
  // since day 1 would be all 40 days' worth.
  ASSERT_FALSE(window.empty());
  EXPECT_LE(window.size(), Hive::kDedupWindowDays + 1);
  EXPECT_GE(window.front().first, 40 - Hive::kDedupWindowDays);
  std::uint64_t held = 0;
  for (const auto& [day, ids] : window) held += ids;
  EXPECT_LT(held, hive.stats().traces_ingested / 2);
}

TEST_F(ResumeTest, KillMidWindowResumesIdentically) {
  // Snapshot on day 20, when the window holds days 6..20 and has already
  // recycled five buckets; the resumed run recycles the rest.
  const WorldConfig config = window_config();
  World cold(standard_corpus(), config);
  for (std::uint64_t d = 0; d < config.days; ++d) cold.step_day();
  {
    World doomed(standard_corpus(), config);
    for (std::uint64_t d = 0; d < 20; ++d) doomed.step_day();
    ASSERT_EQ(doomed.hive().dedup_window().front().first,
              20 - Hive::kDedupWindowDays);
    ASSERT_TRUE(doomed.save_snapshot(dir_));
  }
  World resumed(standard_corpus(), config);
  std::string err;
  ASSERT_TRUE(resumed.resume_from_snapshot(dir_, &err)) << err;
  while (resumed.day() < config.days) resumed.step_day();
  expect_worlds_equal(cold, resumed);
  EXPECT_GT(cold.hive().stats().duplicates_dropped, 0u);
  EXPECT_EQ(cold.hive().dedup_clock(), resumed.hive().dedup_clock());
  EXPECT_EQ(cold.hive().dedup_window(), resumed.hive().dedup_window());
}

TEST_F(ResumeTest, OlderHiveLayoutColdStarts) {
  World saver(standard_corpus(), resume_config());
  saver.step_day();
  ASSERT_TRUE(saver.save_snapshot(dir_));
  const auto good = store::read_snapshot(dir_);
  ASSERT_TRUE(good.has_value());

  // Older binaries wrote the hive part without the leading layout tag (and
  // with every trace id ever seen): it must be refused, not misread.
  std::vector<store::Part> parts;
  for (const auto& [name, payload] : good->parts) {
    Bytes p = payload;
    if (name == "hive") {
      std::size_t tag_len = 0;
      while (p[tag_len] & 0x80) tag_len++;
      p.erase(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(tag_len + 1));
    }
    parts.push_back({name, std::move(p)});
  }
  fs::remove_all(dir_);
  ASSERT_TRUE(store::write_snapshot(dir_, good->seq, parts));
  World victim(standard_corpus(), resume_config());
  std::string err;
  EXPECT_FALSE(victim.resume_from_snapshot(dir_, &err));
  EXPECT_EQ(err, "hive part malformed");
}

TEST_F(ResumeTest, PreviousHiveLayoutTagColdStarts) {
  World saver(standard_corpus(), resume_config());
  saver.step_day();
  ASSERT_TRUE(saver.save_snapshot(dir_));
  const auto good = store::read_snapshot(dir_);
  ASSERT_TRUE(good.has_value());

  // Layout 3 had no fan_out_batches in the ingest stats. A hive part under
  // that tag must be refused, not misread.
  std::vector<store::Part> parts;
  for (const auto& [name, payload] : good->parts) {
    Bytes p = payload;
    if (name == "hive") {
      StateReader r(p);
      ASSERT_EQ(r.u64(), 0x48495645'00000004ULL);
      Bytes old_tag;
      put_varint(old_tag, 0x48495645'00000003ULL);
      ASSERT_EQ(old_tag.size(), r.pos());
      std::copy(old_tag.begin(), old_tag.end(), p.begin());
    }
    parts.push_back({name, std::move(p)});
  }
  fs::remove_all(dir_);
  ASSERT_TRUE(store::write_snapshot(dir_, good->seq, parts));
  World victim(standard_corpus(), resume_config());
  std::string err;
  EXPECT_FALSE(victim.resume_from_snapshot(dir_, &err));
  EXPECT_EQ(err, "hive part malformed");
}

TEST_F(ResumeTest, PeriodicSnapshotsResumeFromNewest) {
  WorldConfig config = resume_config();
  config.snapshot_dir = dir_;
  config.snapshot_every_n_days = 2;

  World cold(standard_corpus(), config);
  for (std::uint64_t d = 0; d < 5; ++d) cold.step_day();
  // Days 2 and 4 snapshotted; prune keeps both generations.
  const auto snap = store::read_snapshot(dir_);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->seq, 4u);

  World resumed(standard_corpus(), config);
  ASSERT_TRUE(resumed.resume_from_snapshot(dir_));
  EXPECT_EQ(resumed.day(), 4u);
  resumed.step_day();
  ASSERT_EQ(resumed.history().size(), 5u);
  EXPECT_EQ(resumed.history().back(), cold.history().back());
}

TEST_F(ResumeTest, ConfigSkewRefused) {
  World saver(standard_corpus(), resume_config());
  saver.step_day();
  ASSERT_TRUE(saver.save_snapshot(dir_));

  // Each behavioral knob changed alone: the fingerprint must differ. The
  // proof and guidance budgets steer what the hive explores and publishes,
  // so a resume under a changed budget would silently diverge.
  const std::vector<std::pair<std::string, void (*)(WorldConfig&)>> skews = {
      {"seed", [](WorldConfig& c) { c.seed = 99; }},
      {"proof max_gap_closures",
       [](WorldConfig& c) { c.hive.proof_budget.max_gap_closures++; }},
      {"proof max_symbolic_paths",
       [](WorldConfig& c) { c.hive.proof_budget.max_symbolic_paths++; }},
      {"proof solver.max_nodes",
       [](WorldConfig& c) { c.hive.proof_budget.solver.max_nodes++; }},
      {"proof frontier_budget",
       [](WorldConfig& c) { c.hive.proof_budget.frontier_budget++; }},
      {"guidance solver.max_nodes",
       [](WorldConfig& c) { c.hive.guidance.solver.max_nodes++; }},
      {"guidance max_paths_per_frontier",
       [](WorldConfig& c) { c.hive.guidance.max_paths_per_frontier++; }},
      {"guidance frontier_budget",
       [](WorldConfig& c) { c.hive.guidance.frontier_budget++; }},
      // Cooperative exploration builds its SimNet from coop.net.
      {"coop.net drop_prob", [](WorldConfig& c) { c.coop.net.drop_prob = 0.3; }},
      {"coop.net dup_prob", [](WorldConfig& c) { c.coop.net.dup_prob = 0.1; }},
      {"coop.net min_latency_ticks",
       [](WorldConfig& c) { c.coop.net.min_latency_ticks = 2; }},
      {"coop.net max_latency_ticks",
       [](WorldConfig& c) { c.coop.net.max_latency_ticks = 9; }},
      {"coop.net seed", [](WorldConfig& c) { c.coop.net.seed = 7; }},
  };
  std::string err;
  for (const auto& [knob, skew] : skews) {
    WorldConfig other = resume_config();
    skew(other);
    World victim(standard_corpus(), other);
    err.clear();
    EXPECT_FALSE(victim.resume_from_snapshot(dir_, &err)) << knob;
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << knob << ": " << err;
  }

  // Exempt fields: a resume under any of them changed alone is legitimate.
  const std::vector<std::pair<std::string, void (*)(WorldConfig&)>> exempt = {
      {"days", [](WorldConfig& c) { c.days = 40; }},
      {"snapshot_every_n_days",
       [](WorldConfig& c) { c.snapshot_every_n_days = 3; }},
      {"record_metrics", [](WorldConfig& c) { c.record_metrics = true; }},
      {"hive.ingest_threads", [](WorldConfig& c) { c.hive.ingest_threads = 4; }},
      {"hive.replay_cache_capacity",
       [](WorldConfig& c) { c.hive.replay_cache_capacity = 1 << 10; }},
  };
  for (const auto& [knob, change] : exempt) {
    WorldConfig other = resume_config();
    change(other);
    World resumer(standard_corpus(), other);
    err.clear();
    EXPECT_TRUE(resumer.resume_from_snapshot(dir_, &err)) << knob << ": " << err;
  }
}

TEST_F(ResumeTest, CorpusSkewRefused) {
  World saver(standard_corpus(), resume_config());
  saver.step_day();
  ASSERT_TRUE(saver.save_snapshot(dir_));

  std::vector<CorpusEntry> smaller = {standard_corpus().front()};
  WorldConfig config = resume_config();
  World victim(std::move(smaller), config);
  EXPECT_FALSE(victim.resume_from_snapshot(dir_));
}

TEST_F(ResumeTest, PartialWriteFallsBackToCleanColdStart) {
  World saver(standard_corpus(), resume_config());
  saver.step_day();
  saver.step_day();
  ASSERT_TRUE(saver.save_snapshot(dir_));

  // Tear the snapshot: truncate the hive part to half its size. The loader
  // must reject (checksum), and a World that failed to resume must be
  // discardable for a cold start that behaves exactly like day zero.
  std::string hive_part;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.is_directory()) hive_part = e.path().string() + "/hive";
  }
  ASSERT_FALSE(hive_part.empty());
  fs::resize_file(hive_part, fs::file_size(hive_part) / 2);

  World victim(standard_corpus(), resume_config());
  EXPECT_FALSE(victim.resume_from_snapshot(dir_));

  // Cold start after the failed resume: fresh World, identical to a never-
  // resumed one.
  World fresh(standard_corpus(), resume_config());
  World reference(standard_corpus(), resume_config());
  fresh.step_day();
  reference.step_day();
  EXPECT_EQ(fresh.history().back(), reference.history().back());
}

TEST_F(ResumeTest, WarmStartReplaysRegressionsOnDayOne) {
  // A first fleet accumulates bugs, persists; a second, fresh fleet warm-
  // starts from the stored regression set and rediscovers the first fleet's
  // bugs on day one — before its own users ever hit the crash regions.
  WorldConfig config = resume_config();
  config.days = 6;
  World first(standard_corpus(), config);
  for (std::uint64_t d = 0; d < config.days; ++d) first.step_day();
  const std::size_t bugs_found = first.history().back().bugs_found_total;
  ASSERT_GT(bugs_found, 0u);
  ASSERT_TRUE(first.save_snapshot(dir_));

  std::string err;
  const auto regressions = load_regression_inputs(dir_, &err);
  ASSERT_GT(regressions.size(), 0u) << err;

  WorldConfig warm = resume_config();
  warm.seed = 77;  // a different fleet entirely
  warm.warm_start_regressions = regressions;
  World second(standard_corpus(), warm);
  second.step_day();
  EXPECT_GE(second.history().back().bugs_found_total, bugs_found);

  // And the control without warm start knows strictly less on day one.
  WorldConfig cold = resume_config();
  cold.seed = 77;
  World control(standard_corpus(), cold);
  control.step_day();
  EXPECT_GE(second.history().back().bugs_found_total,
            control.history().back().bugs_found_total);
}

TEST_F(ResumeTest, LoadRegressionInputsOnEmptyDirIsEmpty) {
  std::string err;
  EXPECT_TRUE(load_regression_inputs(dir_, &err).empty());
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace softborg
