// Durable corpus store (src/store) and the component state codecs it
// carries (ISSUE 7): container round trips, crash-safety commit points,
// strict validation (every corruption degrades to a clean load failure,
// never a crash or a partial load), version-skew refusal, and exact
// serialization of the accumulated hive state — including the SolverCache's
// probe-layout-exact table dump.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/fsio.h"
#include "common/state_wire.h"
#include "core/softborg.h"
#include "obs/registry.h"
#include "privacy/anonymize.h"
#include "store/store.h"
#include "sym/solver_cache.h"
#include "trace/sampling.h"

namespace softborg {
namespace {

namespace fs = std::filesystem;

// A unique scratch directory per test, removed on teardown.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("sb_store_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

Bytes bytes_of(const char* s) {
  return Bytes(reinterpret_cast<const std::uint8_t*>(s),
               reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s));
}

// --- fsio -------------------------------------------------------------------

TEST_F(StoreTest, AtomicWriteRoundTrip) {
  fs::create_directories(dir_);
  const std::string path = dir_ + "/file";
  const Bytes data = bytes_of("hello, durable world");
  ASSERT_TRUE(atomic_write_file(path, data.data(), data.size()));
  Bytes back;
  ASSERT_TRUE(read_file(path, back));
  EXPECT_EQ(back, data);

  // Overwrite is atomic too: the new contents fully replace the old.
  const Bytes data2 = bytes_of("v2");
  ASSERT_TRUE(atomic_write_file(path, data2.data(), data2.size()));
  ASSERT_TRUE(read_file(path, back));
  EXPECT_EQ(back, data2);
}

TEST_F(StoreTest, ReadFileMissingAndOversized) {
  fs::create_directories(dir_);
  Bytes out;
  EXPECT_FALSE(read_file(dir_ + "/nope", out));
  const std::string path = dir_ + "/big";
  const Bytes data = bytes_of("0123456789");
  ASSERT_TRUE(atomic_write_file(path, data.data(), data.size()));
  EXPECT_FALSE(read_file(path, out, 5));  // over max_size
  EXPECT_TRUE(read_file(path, out, 10));
}

TEST_F(StoreTest, AtomicWriteFailureKeepsOldFile) {
  fs::create_directories(dir_);
  const std::string path = dir_ + "/file";
  const Bytes data = bytes_of("original");
  ASSERT_TRUE(atomic_write_file(path, data.data(), data.size()));
  // Writing into a missing directory fails without touching the original.
  std::string err;
  EXPECT_FALSE(
      atomic_write_file(dir_ + "/no/such/dir/file", data.data(), data.size(),
                        &err));
  EXPECT_FALSE(err.empty());
  Bytes back;
  ASSERT_TRUE(read_file(path, back));
  EXPECT_EQ(back, data);
}

// --- snapshot container -----------------------------------------------------

std::vector<store::Part> sample_parts() {
  std::vector<store::Part> parts;
  parts.push_back({"alpha", bytes_of("payload-a")});
  parts.push_back({"beta", {}});  // empty payloads are legal
  Bytes big;
  for (int i = 0; i < 10'000; ++i) big.push_back(std::uint8_t(i * 31));
  parts.push_back({"gamma", std::move(big)});
  return parts;
}

TEST_F(StoreTest, ContainerRoundTrip) {
  const auto parts = sample_parts();
  std::string err;
  ASSERT_TRUE(store::write_snapshot(dir_, 7, parts, &err)) << err;
  const auto snap = store::read_snapshot(dir_, &err);
  ASSERT_TRUE(snap.has_value()) << err;
  EXPECT_EQ(snap->seq, 7u);
  ASSERT_EQ(snap->parts.size(), parts.size());
  for (const auto& p : parts) {
    ASSERT_TRUE(snap->parts.count(p.name)) << p.name;
    EXPECT_EQ(snap->parts.at(p.name), p.payload) << p.name;
  }
}

TEST_F(StoreTest, ReadEmptyOrMissingDirectory) {
  std::string err;
  EXPECT_FALSE(store::read_snapshot(dir_, &err).has_value());
  fs::create_directories(dir_);
  EXPECT_FALSE(store::read_snapshot(dir_, &err).has_value());
}

std::uint64_t validation_rejects() {
  return obs::MetricsRegistry::global()
      .counter("store.validation_rejects_total")
      .value();
}

TEST_F(StoreTest, FirstStartIsNotARejectedSnapshot) {
  // No CURRENT is the normal first start: nothing to load, nothing rejected.
  const std::uint64_t before = validation_rejects();
  std::string err;
  EXPECT_FALSE(store::read_snapshot(dir_, &err).has_value());
  fs::create_directories(dir_);
  EXPECT_FALSE(store::read_snapshot(dir_, &err).has_value());
  EXPECT_NE(err.find("no snapshot"), std::string::npos) << err;
  EXPECT_EQ(validation_rejects(), before);

  // A CURRENT that names no generation is still a rejected snapshot.
  const Bytes garbage = bytes_of("not-a-generation\n");
  ASSERT_TRUE(
      atomic_write_file(dir_ + "/CURRENT", garbage.data(), garbage.size()));
  EXPECT_FALSE(store::read_snapshot(dir_, &err).has_value());
  EXPECT_EQ(err, "CURRENT is malformed");
  EXPECT_EQ(validation_rejects(), before + 1);
}

TEST_F(StoreTest, NewerGenerationWinsAndOldOnesArePruned) {
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    std::vector<store::Part> parts;
    Bytes payload;
    put_varint(payload, seq);
    parts.push_back({"state", std::move(payload)});
    ASSERT_TRUE(store::write_snapshot(dir_, seq, parts, nullptr));
  }
  const auto snap = store::read_snapshot(dir_);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->seq, 5u);
  // Prune keeps the newest two generations only.
  std::size_t gen_dirs = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.is_directory()) gen_dirs++;
  }
  EXPECT_EQ(gen_dirs, 2u);
}

TEST_F(StoreTest, MissingPartFileRejects) {
  ASSERT_TRUE(store::write_snapshot(dir_, 1, sample_parts(), nullptr));
  fs::remove(dir_ + "/gen-1/alpha");
  std::string err;
  EXPECT_FALSE(store::read_snapshot(dir_, &err).has_value());
  EXPECT_FALSE(err.empty());
}

TEST_F(StoreTest, StrayFileInGenerationIsIgnored) {
  ASSERT_TRUE(store::write_snapshot(dir_, 1, sample_parts(), nullptr));
  const Bytes junk = bytes_of("not a part");
  ASSERT_TRUE(
      atomic_write_file(dir_ + "/gen-1/stray", junk.data(), junk.size()));
  EXPECT_TRUE(store::read_snapshot(dir_).has_value());
}

TEST_F(StoreTest, FutureFormatVersionRefused) {
  ASSERT_TRUE(store::write_snapshot(dir_, 3, sample_parts(), nullptr));
  // Hand-craft a well-formed manifest that declares format version
  // kFormatVersion + 1 (empty part list, correct self-checksum): the reader
  // must refuse on version skew, not on framing.
  Bytes m = bytes_of("SBMF");
  put_varint(m, store::kFormatVersion + 1);
  put_varint(m, 3);  // seq
  put_varint(m, 0);  // entries
  const std::uint64_t sum = fnv1a64(m.data(), m.size());
  for (int i = 0; i < 8; ++i) m.push_back(std::uint8_t(sum >> (8 * i)));
  ASSERT_TRUE(atomic_write_file(dir_ + "/gen-3/MANIFEST", m.data(), m.size()));
  std::string err;
  EXPECT_FALSE(store::read_snapshot(dir_, &err).has_value());
  EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST_F(StoreTest, DanglingCurrentRejects) {
  ASSERT_TRUE(store::write_snapshot(dir_, 1, sample_parts(), nullptr));
  const Bytes current = bytes_of("gen-99\n");
  ASSERT_TRUE(
      atomic_write_file(dir_ + "/CURRENT", current.data(), current.size()));
  EXPECT_FALSE(store::read_snapshot(dir_).has_value());
}

// Container-level fuzz: flip single bits and truncate every file of a valid
// snapshot. Every mutation must either be caught (nullopt) or — impossible
// for a checksum-guarded single-bit flip, but allowed by the contract —
// yield the original data. Never a crash, never different data.
TEST_F(StoreTest, BitFlipAndTruncationFuzz) {
  const auto parts = sample_parts();
  ASSERT_TRUE(store::write_snapshot(dir_, 2, parts, nullptr));
  const auto good = store::read_snapshot(dir_);
  ASSERT_TRUE(good.has_value());

  std::vector<std::string> files = {dir_ + "/CURRENT"};
  for (const auto& e : fs::directory_iterator(dir_ + "/gen-2")) {
    files.push_back(e.path().string());
  }
  ASSERT_EQ(files.size(), parts.size() + 2);  // CURRENT + parts + MANIFEST

  for (const std::string& path : files) {
    Bytes original;
    ASSERT_TRUE(read_file(path, original));
    // Single-bit flips at a byte stride (every byte for small files).
    const std::size_t stride = std::max<std::size_t>(original.size() / 64, 1);
    for (std::size_t pos = 0; pos < original.size(); pos += stride) {
      Bytes mutated = original;
      mutated[pos] ^= 0x10;
      ASSERT_TRUE(atomic_write_file(path, mutated.data(), mutated.size()));
      const auto snap = store::read_snapshot(dir_);
      if (snap.has_value()) {
        EXPECT_EQ(snap->parts, good->parts) << path << " @" << pos;
      }
    }
    // Truncations.
    for (std::size_t len : {std::size_t(0), original.size() / 2,
                            original.size() - 1}) {
      if (len >= original.size()) continue;
      Bytes mutated(original.begin(),
                    original.begin() + static_cast<std::ptrdiff_t>(len));
      ASSERT_TRUE(atomic_write_file(path, mutated.data(), mutated.size()));
      const auto snap = store::read_snapshot(dir_);
      if (snap.has_value()) {
        EXPECT_EQ(snap->parts, good->parts) << path << " truncated@" << len;
      }
    }
    ASSERT_TRUE(atomic_write_file(path, original.data(), original.size()));
  }
  EXPECT_TRUE(store::read_snapshot(dir_).has_value());
}

// A crash before the manifest leaves the previous generation untouched and
// loadable; the half-written generation is invisible to readers.
TEST_F(StoreTest, TornGenerationFallsBackToPrevious) {
  std::vector<store::Part> v1;
  v1.push_back({"state", bytes_of("one")});
  ASSERT_TRUE(store::write_snapshot(dir_, 1, v1, nullptr));

  // Simulate a crash between part writes and the manifest: a gen-2 dir with
  // parts but no MANIFEST.
  fs::create_directories(dir_ + "/gen-2");
  const Bytes part = bytes_of("torn");
  ASSERT_TRUE(
      atomic_write_file(dir_ + "/gen-2/state", part.data(), part.size()));

  const auto snap = store::read_snapshot(dir_);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->seq, 1u);
  EXPECT_EQ(snap->parts.at("state"), bytes_of("one"));

  // And the next successful save cleans the orphan up.
  std::vector<store::Part> v3;
  v3.push_back({"state", bytes_of("three")});
  ASSERT_TRUE(store::write_snapshot(dir_, 3, v3, nullptr));
  EXPECT_EQ(store::read_snapshot(dir_)->seq, 3u);
}

// --- component codecs -------------------------------------------------------

TEST(StateCodec, SiteStatsRoundTrip) {
  SiteStats stats;
  SampledTrace t;
  t.program = ProgramId(1);
  t.outcome = Outcome::kCrash;
  t.observations = {{3, true}, {9, false}, {3, false}};
  stats.add(t);
  t.outcome = Outcome::kOk;
  t.observations = {{3, true}, {11, true}};
  stats.add(t);

  Bytes wire;
  stats.save_state(wire);
  SiteStats back;
  StateReader r(wire);
  ASSERT_TRUE(back.load_state(r));
  ASSERT_TRUE(r.done());
  EXPECT_EQ(back, stats);
}

TEST(StateCodec, KAnonymityGateRoundTrip) {
  KAnonymityGate gate(3);
  auto trace_from = [](std::uint64_t pod, bool path_b) {
    Trace t;
    t.program = ProgramId(1);
    t.pod = PodId(pod);
    for (int i = 0; i < 16; ++i) t.branch_bits.push_back(path_b);
    return t;
  };
  EXPECT_TRUE(gate.add(trace_from(1, false)).empty());
  EXPECT_TRUE(gate.add(trace_from(2, false)).empty());
  EXPECT_TRUE(gate.add(trace_from(1, true)).empty());
  ASSERT_EQ(gate.buffered(), 3u);

  Bytes wire;
  gate.save_state(wire);
  KAnonymityGate back(3);
  {
    StateReader r(wire);
    ASSERT_TRUE(back.load_state(r));
    ASSERT_TRUE(r.done());
  }
  EXPECT_EQ(back.buffered(), gate.buffered());
  EXPECT_EQ(back.released_paths(), gate.released_paths());
  // The restored gate releases exactly when the original would.
  EXPECT_EQ(back.add(trace_from(3, false)).size(),
            gate.add(trace_from(3, false)).size());

  // A gate built with a different k refuses the snapshot.
  KAnonymityGate wrong_k(2);
  StateReader r(wire);
  EXPECT_FALSE(wrong_k.load_state(r));
}

Literal lt_lit(std::uint32_t slot, Value bound) {
  return {make_bin(BinOp::kLt, make_input(slot), make_const(bound)), true};
}

SolverCache exercised_cache() {
  SolverCache cache;
  for (Value bound = 1; bound <= 40; ++bound) {
    cache.solve({lt_lit(0, bound)}, {{0, 20}});
    cache.solve({lt_lit(static_cast<std::uint32_t>(bound % 3), bound),
                 lt_lit(0, bound + 1)},
                {{0, 9}, {0, 9}, {0, 9}});
  }
  return cache;
}

// Satellite 3: the SolverCache round-trips its generation structure and
// counters exactly — slot-for-slot, including stats and the resets counter.
TEST(StateCodec, SolverCacheRoundTripIsExact) {
  const SolverCache cache = exercised_cache();
  Bytes wire;
  cache.save_state(wire);

  SolverCache back;
  StateReader r(wire);
  ASSERT_TRUE(back.load_state(r));
  ASSERT_TRUE(r.done());
  ASSERT_TRUE(back.state_equals(cache));

  // Behavioral equivalence: a query that hits the original hits the copy
  // with identical stats movement.
  SolverCache a = exercised_cache(), b;
  Bytes wire2;
  a.save_state(wire2);
  StateReader r2(wire2);
  ASSERT_TRUE(b.load_state(r2));
  CacheLookup la = CacheLookup::kMiss, lb = CacheLookup::kMiss;
  const auto ra = a.solve({lt_lit(0, 5)}, {{0, 20}}, {}, {}, &la);
  const auto rb = b.solve({lt_lit(0, 5)}, {{0, 20}}, {}, {}, &lb);
  EXPECT_EQ(la, lb);
  EXPECT_EQ(ra.status, rb.status);
  EXPECT_EQ(ra.model, rb.model);
  EXPECT_TRUE(a.state_equals(b));
}

TEST(StateCodec, SolverCacheGenerationResetSurvives) {
  // Force at least one generational reset, then round-trip: the resets
  // counter and the post-reset table must restore exactly.
  SolverCacheConfig config;
  config.max_entries = 8;
  SolverCache cache(config);
  for (Value bound = 1; bound <= 30; ++bound) {
    cache.solve({lt_lit(0, bound)}, {{0, 100}});
  }
  ASSERT_GT(cache.stats().resets, 0u);

  Bytes wire;
  cache.save_state(wire);
  SolverCache back(config);
  StateReader r(wire);
  ASSERT_TRUE(back.load_state(r));
  ASSERT_TRUE(r.done());
  EXPECT_TRUE(back.state_equals(cache));
  EXPECT_EQ(back.stats().resets, cache.stats().resets);
}

TEST(StateCodec, SolverCacheRejectsConfigMismatch) {
  const SolverCache cache = exercised_cache();
  Bytes wire;
  cache.save_state(wire);
  SolverCacheConfig other;
  other.max_entries = 16;
  SolverCache back(other);
  StateReader r(wire);
  EXPECT_FALSE(back.load_state(r));
}

// Payload-level fuzz for the hardened component decoders (satellite 2):
// every single-byte mutation of a valid SolverCache payload must either be
// rejected or decode to *some* valid cache — never crash, never UB.
TEST(StateCodec, SolverCachePayloadFuzz) {
  const SolverCache cache = exercised_cache();
  Bytes wire;
  cache.save_state(wire);
  const std::size_t stride = std::max<std::size_t>(wire.size() / 512, 1);
  for (std::size_t pos = 0; pos < wire.size(); pos += stride) {
    for (std::uint8_t delta : {0x01, 0x80, 0xff}) {
      Bytes mutated = wire;
      mutated[pos] ^= delta;
      SolverCache victim;
      StateReader r(mutated);
      (void)victim.load_state(r);  // must not crash; result is don't-care
    }
    // Truncation at this position.
    Bytes cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(pos));
    SolverCache victim;
    StateReader r(cut);
    EXPECT_FALSE(victim.load_state(r) && r.done());
  }
}

// --- whole-world parts through the container -------------------------------

WorldConfig fuzz_world_config() {
  WorldConfig config;
  config.pods_per_program = 10;
  config.days = 4;
  config.seed = 11;
  config.guidance_per_program_per_day = 2;
  config.proof_programs_per_day = 1;
  config.net.drop_prob = 0.05;
  return config;
}

// Mutate each part of a real World snapshot (re-written through the
// container so checksums stay valid) and resume: the loader must reject or
// succeed cleanly, never crash. This drives every component load_state
// (pods, net, hive ledgers, trees, solver cache) with hostile bytes.
TEST_F(StoreTest, WorldSnapshotPayloadFuzz) {
  World world(standard_corpus(), fuzz_world_config());
  for (int i = 0; i < 3; ++i) world.step_day();
  std::string err;
  ASSERT_TRUE(world.save_snapshot(dir_, &err)) << err;
  const auto good = store::read_snapshot(dir_, &err);
  ASSERT_TRUE(good.has_value()) << err;

  const std::string fuzz_dir = dir_ + "_mutated";
  std::uint64_t rejected = 0;
  std::uint64_t meta_accepted = 0;
  for (const auto& [name, payload] : good->parts) {
    const std::size_t stride = std::max<std::size_t>(payload.size() / 48, 1);
    for (std::size_t pos = 0; pos < payload.size(); pos += stride) {
      std::vector<store::Part> parts;
      for (const auto& [n, p] : good->parts) parts.push_back({n, p});
      for (auto& part : parts) {
        if (part.name == name) part.payload[pos] ^= 0x08;
      }
      fs::remove_all(fuzz_dir);
      ASSERT_TRUE(store::write_snapshot(fuzz_dir, good->seq, parts, nullptr));
      World victim(standard_corpus(), fuzz_world_config());
      // The hard guarantee is "reject or load a valid state, never crash":
      // flips landing in free-value fields (stats counters, rng words,
      // metric samples) decode to a different but well-formed state and are
      // legitimately accepted; flips violating any structural invariant
      // must be caught.
      if (victim.resume_from_snapshot(fuzz_dir)) {
        if (name == "meta") meta_accepted++;
      } else {
        rejected++;
      }
    }
  }
  fs::remove_all(fuzz_dir);
  // Validation must actually fire across the corpus of mutations...
  EXPECT_GT(rejected, 50u);
  // ...and the meta part (fingerprint + day, both cross-checked) must
  // reject every flip.
  EXPECT_EQ(meta_accepted, 0u);
}

}  // namespace
}  // namespace softborg
