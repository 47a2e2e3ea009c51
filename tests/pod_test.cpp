#include <gtest/gtest.h>

#include <set>

#include "hive/hive.h"
#include "minivm/corpus.h"
#include "minivm/decode.h"
#include "pod/pod.h"
#include "pod/protocol.h"

namespace softborg {
namespace {

// -------------------------------------------------------------- protocol ---

TEST(Protocol, GuardPatchRoundTrip) {
  GuardPatch p;
  p.id = FixId(7);
  p.program = ProgramId(1);
  p.site = 3;
  p.crash_direction = false;
  p.when = {{0, 13, 13}, {1, 200, 255}};
  auto back = decode_guard_patch(encode_guard_patch(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, p);
}

TEST(Protocol, CrashGuardRoundTrip) {
  CrashGuardFix f;
  f.id = FixId(9);
  f.program = ProgramId(3);
  f.pc = 14;
  f.action = CrashGuardFix::Action::kSubstitute;
  f.fallback = -1;
  auto back = decode_crash_guard(encode_crash_guard(f));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
}

TEST(Protocol, LockFixRoundTrip) {
  LockAvoidanceFix f;
  f.id = FixId(2);
  f.program = ProgramId(2);
  f.cycle_locks = {0, 1, 5};
  auto back = decode_lock_fix(encode_lock_fix(f));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
}

TEST(Protocol, GuidanceRoundTripAllFields) {
  GuidanceDirective g;
  g.program = ProgramId(3);
  g.input_seed = std::vector<Value>{10, -5, 4242};
  SchedulePlan plan;
  plan.runs = {{0, 5}, {1, 7}};
  g.schedule = plan;
  FaultPlan faults;
  faults.forced[0] = 0;
  faults.forced[3] = -1;
  g.faults = faults;
  auto back = decode_guidance(encode_guidance(g));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, g);
}

TEST(Protocol, GuidanceRoundTripEmpty) {
  GuidanceDirective g;
  g.program = ProgramId(1);
  auto back = decode_guidance(encode_guidance(g));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, g);
}

TEST(Protocol, DecodersRejectTruncation) {
  GuardPatch p;
  p.when = {{0, 1, 2}};
  Bytes wire = encode_guard_patch(p);
  wire.pop_back();
  EXPECT_FALSE(decode_guard_patch(wire).has_value());

  Bytes garbage = {0xff, 0xff, 0xff};
  EXPECT_FALSE(decode_crash_guard(garbage).has_value());
  EXPECT_FALSE(decode_lock_fix(garbage).has_value());
  EXPECT_FALSE(decode_guidance(garbage).has_value());
}

TEST(Protocol, DecodersRejectTrailingGarbage) {
  LockAvoidanceFix f;
  f.cycle_locks = {1};
  Bytes wire = encode_lock_fix(f);
  wire.push_back(0);
  EXPECT_FALSE(decode_lock_fix(wire).has_value());
}

// ------------------------------------------------------------------ pod ----

Pod make_pod(const CorpusEntry& entry, std::uint64_t seed = 1,
             PodConfig config = {}) {
  return Pod(PodId(42), entry, UserProfile{}, config, seed);
}

TEST(Pod, RunProducesTraceWithIdentity) {
  const auto entry = make_media_parser();
  Pod pod = make_pod(entry);
  const auto run = pod.run_once(/*day=*/3);
  EXPECT_EQ(run.trace.pod.value, 42u);
  EXPECT_EQ(run.trace.program, entry.program.id);
  EXPECT_EQ(run.trace.day, 3u);
  EXPECT_NE(run.trace.id.value, 0u);
}

TEST(Pod, TraceIdsAreUnique) {
  const auto entry = make_media_parser();
  Pod pod = make_pod(entry);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 50; ++i) ids.insert(pod.run_once(1).trace.id.value);
  EXPECT_EQ(ids.size(), 50u);
}

TEST(Pod, TraceIdsDoNotReadThePodBack) {
  // With pod identity scrubbed (E8's scrub-ids rung), the id must not carry
  // it either, as (pod << 24) | seq would: id >> 24 reads the pod back.
  const auto entry = make_media_parser();
  PodConfig config;
  config.anonymize = AnonymizeConfig{};
  for (std::uint64_t p = 1; p <= 64; ++p) {
    Pod pod(PodId(p), entry, UserProfile{}, config, 100 + p);
    for (int i = 0; i < 4; ++i) {
      const PodRun run = pod.run_once(1);
      EXPECT_EQ(run.trace.pod.value, 0u);
      EXPECT_NE(run.trace.id.value, 0u);
      EXPECT_NE(run.trace.id.value >> 24, p) << "pod " << p << " run " << i;
    }
  }
}

TEST(Pod, TraceIdsDoNotAliasPastTwoToThe24Runs) {
  const std::vector<CorpusEntry> corpus = {make_media_parser()};
  Pod pod(PodId(1), corpus[0], UserProfile{}, PodConfig{}, 5);
  Hive hive(&corpus);
  const PodRun first = pod.run_once(1);
  hive.ingest(first.trace);
  // Move the saved sequence counter (the state's last varint: 2 after one
  // run) to 2^24, the run count where a 24-bit sequence field overflows.
  Bytes state;
  pod.save_state(state);
  ASSERT_EQ(state.back(), 2u);
  state.pop_back();
  put_varint(state, std::uint64_t{1} << 24);
  StateReader r(state);
  ASSERT_TRUE(pod.load_state(r));
  ASSERT_TRUE(r.done());
  // Run 2^24 + 1 must not repeat run 1's id, as a 24-bit sequence field
  // under the pod bits would (and the hive would drop it as a duplicate).
  std::set<std::uint64_t> ids = {first.trace.id.value};
  for (int i = 0; i < 2; ++i) {
    const PodRun run = pod.run_once(2);
    EXPECT_TRUE(ids.insert(run.trace.id.value).second) << "run " << i;
    hive.ingest(run.trace);
  }
  EXPECT_EQ(hive.stats().traces_ingested, 3u);
  EXPECT_EQ(hive.stats().duplicates_dropped, 0u);
}

TEST(Pod, InputsRespectUserPreferences) {
  const auto entry = make_media_parser();
  UserProfile profile;
  profile.input_prefs = {{13, 13}, {200, 255}};  // exactly the crash region
  Pod pod(PodId(1), entry, profile, {}, 99);
  int crashes = 0;
  for (int i = 0; i < 20; ++i) {
    if (pod.run_once(1).trace.outcome == Outcome::kCrash) crashes++;
  }
  EXPECT_EQ(crashes, 20);  // every run draws from the crash region
}

TEST(Pod, InstallIsIdempotentByFixId) {
  const auto entry = make_media_parser();
  Pod pod = make_pod(entry);
  GuardPatch patch;
  patch.id = FixId(5);
  patch.program = entry.program.id;
  EXPECT_TRUE(pod.install(patch));
  EXPECT_FALSE(pod.install(patch));
  EXPECT_EQ(pod.fixes().guards.size(), 1u);
}

TEST(Pod, InstallRejectsWrongProgram) {
  const auto entry = make_media_parser();
  Pod pod = make_pod(entry);
  GuardPatch patch;
  patch.id = FixId(5);
  patch.program = ProgramId(999);
  EXPECT_FALSE(pod.install(patch));
}

TEST(Pod, InstalledGuardAvertsCrashes) {
  const auto entry = make_media_parser();
  UserProfile profile;
  profile.input_prefs = {{13, 13}, {200, 255}};
  Pod pod(PodId(1), entry, profile, {}, 99);

  GuardPatch patch;
  patch.id = FixId(1);
  patch.program = entry.program.id;
  patch.site = 3;
  patch.crash_direction = false;
  patch.when = {{0, 13, 13}, {1, 200, 255}};
  ASSERT_TRUE(pod.install(patch));

  for (int i = 0; i < 20; ++i) {
    const auto run = pod.run_once(1);
    EXPECT_EQ(run.trace.outcome, Outcome::kOk);
    EXPECT_TRUE(run.trace.patched);
    EXPECT_TRUE(run.fix_intervened);
  }
  EXPECT_EQ(pod.stats().fix_interventions, 20u);
}

TEST(Pod, GuidanceConsumedOncePerRun) {
  const auto entry = make_magic_lookup();
  Pod pod = make_pod(entry);
  GuidanceDirective d;
  d.program = entry.program.id;
  d.input_seed = std::vector<Value>{4242};
  pod.push_guidance(d);
  EXPECT_EQ(pod.pending_guidance(), 1u);

  const auto guided = pod.run_once(1);
  EXPECT_TRUE(guided.trace.guided);
  EXPECT_EQ(guided.trace.outcome, Outcome::kCrash);
  EXPECT_EQ(pod.pending_guidance(), 0u);

  const auto natural = pod.run_once(1);
  EXPECT_FALSE(natural.trace.guided);
}

TEST(Pod, GuidanceRejectedForWrongProgram) {
  const auto entry = make_magic_lookup();
  Pod pod = make_pod(entry);
  GuidanceDirective d;
  d.program = ProgramId(12345);
  pod.push_guidance(d);
  EXPECT_EQ(pod.pending_guidance(), 0u);
}

TEST(Pod, NonCompliantUserDropsGuidance) {
  const auto entry = make_magic_lookup();
  UserProfile profile;
  profile.guidance_compliance = 0.0;
  Pod pod(PodId(1), entry, profile, {}, 7);
  GuidanceDirective d;
  d.program = entry.program.id;
  pod.push_guidance(d);
  EXPECT_EQ(pod.pending_guidance(), 0u);
}

TEST(Pod, SamplingModeProducesSiteObservations) {
  const auto entry = make_media_parser();
  PodConfig config;
  config.sampling_rate = 2;
  Pod pod = make_pod(entry, 5, config);
  bool any_observation = false;
  for (int i = 0; i < 20; ++i) {
    const auto run = pod.run_once(1);
    ASSERT_TRUE(run.sampled.has_value());
    if (!run.sampled->observations.empty()) any_observation = true;
  }
  EXPECT_TRUE(any_observation);
}

TEST(Pod, DrawsForDayVariesAroundRate) {
  const auto entry = make_media_parser();
  UserProfile profile;
  profile.executions_per_day = 5.0;
  Pod pod(PodId(1), entry, profile, {}, 11);
  std::uint64_t total = 0;
  for (int day = 0; day < 200; ++day) total += pod.draws_for_day();
  EXPECT_GT(total, 700u);   // ~5/day with jitter
  EXPECT_LT(total, 1300u);
}

TEST(Pod, StatsAccumulate) {
  const auto entry = make_media_parser();
  Pod pod = make_pod(entry);
  for (int i = 0; i < 10; ++i) pod.run_once(1);
  EXPECT_EQ(pod.stats().runs, 10u);
}

// ------------------------------------------------ held decoded stream -----

// predecode_cached() calls so far: each is one hit or one miss.
std::uint64_t decode_lookups() {
  const PredecodeCacheStats s = predecode_cache_stats();
  return s.hits + s.misses;
}

// The media parser's crash region and the guard patch that averts it.
GuardPatch media_parser_patch(const CorpusEntry& entry) {
  GuardPatch patch;
  patch.id = FixId(1);
  patch.program = entry.program.id;
  patch.site = 3;
  patch.crash_direction = false;
  patch.when = {{0, 13, 13}, {1, 200, 255}};
  return patch;
}

// Runs `pod` once on `inputs` (through a guidance directive) and expects
// the run to equal a direct execute() with the pod's installed FixSet. The
// media parser is single-threaded with no syscalls, so the run's seed does
// not matter.
void expect_run_matches_execute(Pod& pod, const CorpusEntry& entry,
                                std::vector<Value> inputs) {
  GuidanceDirective d;
  d.program = entry.program.id;
  d.input_seed = inputs;
  pod.push_guidance(d);
  const PodRun run = pod.run_once(1);

  ExecConfig cfg;
  cfg.inputs = std::move(inputs);
  cfg.fixes = &pod.fixes();
  const ExecResult want = execute(entry.program, cfg);
  EXPECT_EQ(run.trace.outcome, want.trace.outcome);
  EXPECT_EQ(run.trace.crash, want.trace.crash);
  EXPECT_EQ(run.trace.branch_bits, want.trace.branch_bits);
  EXPECT_EQ(run.trace.steps, want.trace.steps);
  EXPECT_EQ(run.trace.patched, want.trace.patched);
  EXPECT_EQ(run.fix_intervened, want.fix_intervened);
}

TEST(Pod, RunsLookUpTheDecodedStreamOnce) {
  const auto entry = make_media_parser();
  Pod pod = make_pod(entry);
  const std::uint64_t before = decode_lookups();
  for (int i = 0; i < 1000; ++i) pod.run_once(1);
  EXPECT_EQ(decode_lookups() - before, 1u);
  EXPECT_EQ(pod.stats().runs, 1000u);
}

TEST(Pod, InstallFetchesTheStreamOnceMore) {
  const auto entry = make_media_parser();
  Pod pod = make_pod(entry);
  for (int i = 0; i < 10; ++i) pod.run_once(1);

  std::uint64_t before = decode_lookups();
  ASSERT_TRUE(pod.install(media_parser_patch(entry)));
  for (int i = 0; i < 10; ++i) pod.run_once(1);
  EXPECT_EQ(decode_lookups() - before, 1u);

  // A rejected duplicate leaves the fix set, and so the held stream, alone.
  before = decode_lookups();
  EXPECT_FALSE(pod.install(media_parser_patch(entry)));
  pod.run_once(1);
  EXPECT_EQ(decode_lookups() - before, 0u);

  // The held stream carries the new fix: the run in the crash region is
  // steered exactly as execute() with the pod's FixSet steers it.
  expect_run_matches_execute(pod, entry, {13, 222});
  expect_run_matches_execute(pod, entry, {5, 9});
}

TEST(Pod, LoadStateWithOtherFixesFetchesTheStreamAgain) {
  const auto entry = make_media_parser();
  Pod fixed = make_pod(entry);
  ASSERT_TRUE(fixed.install(media_parser_patch(entry)));
  Bytes state;
  fixed.save_state(state);

  Pod pod = make_pod(entry);
  pod.run_once(1);  // holds the bare stream
  const std::uint64_t before = decode_lookups();
  StateReader r(state);
  ASSERT_TRUE(pod.load_state(r));
  ASSERT_EQ(pod.fixes().guards.size(), 1u);
  for (int i = 0; i < 10; ++i) pod.run_once(1);
  EXPECT_EQ(decode_lookups() - before, 1u);
  // The stream fetched again carries the loaded fix.
  expect_run_matches_execute(pod, entry, {13, 222});
}

}  // namespace
}  // namespace softborg
