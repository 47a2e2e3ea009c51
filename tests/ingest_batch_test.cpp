// Differential tests for the batched, parallel ingestion pipeline: for any
// trace workload (mixed programs, shuffled order, duplicates, junk bytes,
// the k-anonymity gate), ingest_batch must produce byte-identical encoded
// trees and equal HiveStats compared to N serial ingest_bytes calls, and
// byte-identical counter snapshots, regardless of thread count.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "hive/hive.h"
#include "minivm/corpus.h"
#include "minivm/interp.h"
#include "obs/registry.h"
#include "trace/codec.h"
#include "tree/tree_codec.h"

namespace softborg {
namespace {

// Executes random corpus programs on random in-domain inputs and returns the
// encoded by-products, ids 1..n (unique, so dedup does not interfere).
std::vector<Bytes> make_workload(const std::vector<CorpusEntry>& corpus,
                                 std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> wires;
  wires.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const CorpusEntry& entry = corpus[rng.next_below(corpus.size())];
    ExecConfig cfg;
    for (const auto& d : entry.domains) {
      cfg.inputs.push_back(rng.next_in(d.lo, d.hi));
    }
    cfg.seed = seed * 1'000'000 + i;
    auto result = execute(entry.program, cfg);
    result.trace.id = TraceId(i + 1);
    result.trace.day = i % 7;
    wires.push_back(encode_trace(result.trace));
  }
  return wires;
}

void expect_identical(Hive& serial, Hive& batched,
                      const std::vector<CorpusEntry>& corpus) {
  EXPECT_TRUE(serial.stats() == batched.stats());
  for (const auto& entry : corpus) {
    ExecTree* a = serial.tree(entry.program.id);
    ExecTree* b = batched.tree(entry.program.id);
    ASSERT_EQ(a == nullptr, b == nullptr) << entry.program.name;
    if (a != nullptr) {
      EXPECT_EQ(a->encode(), b->encode()) << entry.program.name;
    }
  }
}

TEST(IngestBatch, MatchesSerialIngestionOnFourThreads) {
  const auto corpus = standard_corpus();
  auto wires = make_workload(corpus, 400, 3);
  wires.push_back(wires[10]);          // network duplicate
  wires.push_back({0xde, 0xad});       // junk bytes
  Rng rng(99);
  std::shuffle(wires.begin(), wires.end(), rng);

  HiveConfig parallel_cfg;
  parallel_cfg.ingest_threads = 4;
  Hive serial(&corpus);
  Hive batched(&corpus, parallel_cfg);
  for (const auto& w : wires) serial.ingest_bytes(w);
  batched.ingest_batch(wires);

  EXPECT_GT(batched.stats().traces_ingested, 0u);
  EXPECT_EQ(batched.stats().duplicates_dropped, 1u);
  EXPECT_EQ(batched.stats().decode_failures, 1u);
  expect_identical(serial, batched, corpus);
}

TEST(IngestBatch, InlineBatchMatchesSerialToo) {
  const auto corpus = standard_corpus();
  const auto wires = make_workload(corpus, 200, 7);
  Hive serial(&corpus);
  Hive batched(&corpus);  // ingest_threads = 0: inline staged pipeline
  for (const auto& w : wires) serial.ingest_bytes(w);
  batched.ingest_batch(wires);
  expect_identical(serial, batched, corpus);
}

TEST(IngestBatch, SplitBatchesEqualOneBatch) {
  const auto corpus = standard_corpus();
  const auto wires = make_workload(corpus, 300, 11);
  HiveConfig cfg;
  cfg.ingest_threads = 2;
  Hive whole(&corpus, cfg);
  Hive split(&corpus, cfg);
  whole.ingest_batch(wires);
  const std::size_t half = wires.size() / 2;
  split.ingest_batch({wires.begin(), wires.begin() + half});
  split.ingest_batch({wires.begin() + half, wires.end()});
  expect_identical(whole, split, corpus);
  EXPECT_EQ(whole.ingest_stats().batches, 1u);
  EXPECT_EQ(split.ingest_stats().batches, 2u);
}

TEST(IngestBatch, MatchesSerialUnderKAnonymityGate) {
  const auto corpus = standard_corpus();
  const auto wires = make_workload(corpus, 250, 13);
  HiveConfig gated_cfg;
  gated_cfg.k_anonymity = 2;
  HiveConfig batched_cfg = gated_cfg;
  batched_cfg.ingest_threads = 4;
  Hive serial(&corpus, gated_cfg);
  Hive batched(&corpus, batched_cfg);
  for (const auto& w : wires) serial.ingest_bytes(w);
  batched.ingest_batch(wires);
  expect_identical(serial, batched, corpus);
}

TEST(IngestBatch, ReplayCacheSkipsInterpreterForIdenticalStreams) {
  const std::vector<CorpusEntry> corpus = {make_media_parser()};
  ExecConfig cfg;
  cfg.inputs = {20, 100};
  const auto live = execute(corpus[0].program, cfg);
  std::vector<Bytes> wires;
  for (std::uint64_t i = 1; i <= 64; ++i) {
    Trace t = live.trace;
    t.id = TraceId(i);  // distinct ids: dedup passes, content identical
    wires.push_back(encode_trace(t));
  }
  Hive hive(&corpus);  // inline: cache counters are exact
  hive.ingest_batch(wires);
  EXPECT_EQ(hive.stats().traces_ingested, 64u);
  EXPECT_EQ(hive.ingest_stats().replay_cache_misses, 1u);
  EXPECT_EQ(hive.ingest_stats().replay_cache_hits, 63u);
  EXPECT_DOUBLE_EQ(hive.ingest_stats().cache_hit_rate(), 63.0 / 64.0);
  ExecTree* tree = hive.tree(corpus[0].program.id);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->num_paths(), 1u);
  EXPECT_EQ(tree->total_executions(), 64u);
}

TEST(IngestBatch, CachedReplayEqualsFreshReplay) {
  // A hive whose every replay is fresh (capacity forces eviction) must agree
  // with one that serves hits — guards against stale/corrupt cache entries.
  const auto corpus = standard_corpus();
  const auto wires = make_workload(corpus, 200, 17);
  HiveConfig no_cache_cfg;
  no_cache_cfg.replay_cache_capacity = 1;  // evicts on every insert
  Hive cached(&corpus);
  Hive uncached(&corpus, no_cache_cfg);
  cached.ingest_batch(wires);
  cached.ingest_batch(wires);  // all duplicates; exercises hit paths
  uncached.ingest_batch(wires);
  uncached.ingest_batch(wires);
  expect_identical(cached, uncached, corpus);
}

TEST(IngestBatch, CounterSnapshotsByteIdenticalAcrossIngestThreads) {
  // The observability bar: the registry's counter surface — every
  // count-type metric the codec, interpreter and hive record while a hive
  // ingests — renders byte-identically for any ingest_threads. Timing
  // histograms and gauges are outside this surface (counters_text renders
  // counters alone).
  const auto corpus = standard_corpus();
  auto wires = make_workload(corpus, 256, 13);
  wires.push_back(wires[5]);        // duplicate
  wires.push_back({0xde, 0xad});    // junk bytes
  const std::size_t half = wires.size() / 2;
  std::vector<std::string> counter_texts;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    HiveConfig cfg;
    cfg.ingest_threads = threads;
    obs::MetricsRegistry::global().rebaseline();
    Hive hive(&corpus, cfg);
    hive.ingest_batch({wires.begin(), wires.begin() + half});
    hive.ingest_batch({wires.begin() + half, wires.end()});
    counter_texts.push_back(
        obs::MetricsRegistry::global().delta_snapshot().counters_text());
  }
  ASSERT_EQ(counter_texts.size(), 3u);
  EXPECT_NE(counter_texts[0].find("hive.traces_ingested_total"),
            std::string::npos);
  EXPECT_NE(counter_texts[0].find("hive.duplicates_dropped_total"),
            std::string::npos);
  EXPECT_EQ(counter_texts[0], counter_texts[1]);
  EXPECT_EQ(counter_texts[0], counter_texts[2]);
}

// Forty days of traffic, one batch per day: each day's fresh traces plus
// network copies of fresh traces 0 to 20 days old, shuffled in. Copies up
// to kDedupWindowDays old are duplicates; from 16 days on they are stale
// whatever the order within the day (the clock is at least the day before).
struct WindowedDays {
  std::vector<std::vector<Bytes>> batches;
  std::uint64_t in_window_copies = 0;  // age <= kDedupWindowDays
  std::uint64_t stale_copies = 0;      // age > kDedupWindowDays + 1
  std::uint64_t copies = 0;
};

WindowedDays make_windowed_days(const std::vector<CorpusEntry>& corpus) {
  Rng rng(41);
  WindowedDays out;
  std::vector<std::vector<Bytes>> fresh;  // by day - 1
  std::uint64_t next_id = 1;
  for (std::uint64_t day = 1; day <= 40; ++day) {
    fresh.emplace_back();
    for (int i = 0; i < 25; ++i) {
      const CorpusEntry& entry = corpus[rng.next_below(corpus.size())];
      ExecConfig cfg;
      for (const auto& d : entry.domains) {
        cfg.inputs.push_back(rng.next_in(d.lo, d.hi));
      }
      cfg.seed = next_id;
      auto result = execute(entry.program, cfg);
      result.trace.id = TraceId(next_id++);
      result.trace.day = day;
      fresh.back().push_back(encode_trace(result.trace));
    }
    std::vector<Bytes> batch = fresh.back();
    for (int i = 0; i < 6; ++i) {
      const std::uint64_t age = rng.next_below(21);
      if (age >= day) continue;
      const std::vector<Bytes>& from = fresh[day - 1 - age];
      batch.push_back(from[rng.next_below(from.size())]);
      out.copies++;
      if (age <= Hive::kDedupWindowDays) out.in_window_copies++;
      if (age > Hive::kDedupWindowDays + 1) out.stale_copies++;
    }
    std::shuffle(batch.begin(), batch.end(), rng);
    out.batches.push_back(std::move(batch));
  }
  return out;
}

TEST(IngestBatch, DedupWindowMatchesSerialAcrossFortyDays) {
  const auto corpus = standard_corpus();
  const WindowedDays days = make_windowed_days(corpus);
  ASSERT_GT(days.in_window_copies, 0u);
  ASSERT_GT(days.stale_copies, 0u);

  Hive serial(&corpus);
  for (const auto& batch : days.batches) {
    for (const auto& w : batch) serial.ingest_bytes(w);
  }
  const HiveStats& s = serial.stats();
  EXPECT_EQ(s.duplicates_dropped + s.stale_dropped, days.copies);
  EXPECT_GE(s.duplicates_dropped, days.in_window_copies);
  EXPECT_GE(s.stale_dropped, days.stale_copies);
  EXPECT_EQ(serial.dedup_clock(), 40u);
  EXPECT_EQ(serial.dedup_window().size(), Hive::kDedupWindowDays + 1);
  EXPECT_EQ(serial.dedup_window().front().first, 40 - Hive::kDedupWindowDays);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    HiveConfig cfg;
    cfg.ingest_threads = threads;
    Hive batched(&corpus, cfg);
    for (const auto& batch : days.batches) batched.ingest_batch(batch);
    expect_identical(serial, batched, corpus);
    EXPECT_EQ(batched.dedup_window(), serial.dedup_window());
  }
}

TEST(IngestBatch, EmptyBatchIsANoOp) {
  const auto corpus = standard_corpus();
  HiveConfig cfg;
  cfg.ingest_threads = 4;
  Hive hive(&corpus, cfg);
  hive.ingest_batch({});
  EXPECT_EQ(hive.stats().traces_ingested, 0u);
  EXPECT_EQ(hive.ingest_stats().batches, 1u);
  EXPECT_EQ(hive.ingest_stats().batch_traces, 0u);
}

TEST(IngestBatch, ReplaySignatureSeparatesContentFromMetadata) {
  const auto entry = make_media_parser();
  ExecConfig cfg;
  cfg.inputs = {13, 250};
  const auto live = execute(entry.program, cfg);
  Trace a = live.trace;
  Trace b = live.trace;
  b.id = TraceId(777);  // metadata only: same replay
  b.pod = PodId(42);
  b.day = 5;
  const std::uint64_t seed = 0x1234;
  EXPECT_EQ(replay_signature(a, seed), replay_signature(b, seed));

  Trace c = live.trace;
  c.branch_bits.push_back(true);  // replay-relevant content changed
  EXPECT_NE(replay_signature(a, seed), replay_signature(c, seed));
  EXPECT_NE(replay_signature(a, seed), replay_signature(a, seed + 1));
}

}  // namespace
}  // namespace softborg
