#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/bitvec.h"
#include "common/flat_hash.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/varint.h"

namespace softborg {
namespace {

// ---------------------------------------------------------------- Rng ------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) same++;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextInSingletonRange) {
  Rng r(3);
  EXPECT_EQ(r.next_in(42, 42), 42);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, SplitIsIndependentAndDeterministic) {
  Rng a(99), b(99);
  Rng ca = a.split(1), cb = b.split(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ca(), cb());
  Rng c1 = a.split(2), c2 = a.split(2);
  // Different parent state => different children.
  EXPECT_NE(c1(), c2());
}

TEST(Rng, ApproximatelyUniformMean) {
  Rng r(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

// -------------------------------------------------------------- BitVec -----

TEST(BitVec, PushAndIndex) {
  BitVec v;
  v.push_back(true);
  v.push_back(false);
  v.push_back(true);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_TRUE(v[0]);
  EXPECT_FALSE(v[1]);
  EXPECT_TRUE(v[2]);
}

TEST(BitVec, CrossesWordBoundary) {
  BitVec v;
  for (int i = 0; i < 130; ++i) v.push_back(i % 3 == 0);
  ASSERT_EQ(v.size(), 130u);
  for (int i = 0; i < 130; ++i) EXPECT_EQ(v[i], i % 3 == 0) << i;
}

TEST(BitVec, SetOverwrites) {
  BitVec v(10);
  v.set(7, true);
  EXPECT_TRUE(v[7]);
  v.set(7, false);
  EXPECT_FALSE(v[7]);
}

TEST(BitVec, PopcountMatchesManualCount) {
  BitVec v;
  int expect = 0;
  Rng r(1);
  for (int i = 0; i < 500; ++i) {
    const bool bit = r.next_bool();
    v.push_back(bit);
    expect += bit;
  }
  EXPECT_EQ(v.popcount(), static_cast<std::size_t>(expect));
}

TEST(BitVec, CommonPrefixBasic) {
  BitVec a, b;
  for (bool bit : {true, true, false, true}) a.push_back(bit);
  for (bool bit : {true, true, true, true}) b.push_back(bit);
  EXPECT_EQ(a.common_prefix(b), 2u);
  EXPECT_EQ(b.common_prefix(a), 2u);
}

TEST(BitVec, CommonPrefixIdentical) {
  BitVec a;
  for (int i = 0; i < 100; ++i) a.push_back(i % 2 == 0);
  BitVec b = a;
  EXPECT_EQ(a.common_prefix(b), 100u);
}

TEST(BitVec, CommonPrefixAcrossWords) {
  BitVec a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(true);
    b.push_back(i != 150);
  }
  EXPECT_EQ(a.common_prefix(b), 150u);
}

TEST(BitVec, CommonPrefixEmpty) {
  BitVec a, b;
  a.push_back(true);
  EXPECT_EQ(a.common_prefix(b), 0u);
}

TEST(BitVec, HashDiffersOnSingleBitFlip) {
  BitVec a;
  for (int i = 0; i < 64; ++i) a.push_back(false);
  BitVec b = a;
  b.set(63, true);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(BitVec, HashDependsOnLength) {
  BitVec a, b;
  a.push_back(false);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(BitVec, FromWordsRoundTrip) {
  BitVec a;
  Rng r(2);
  for (int i = 0; i < 77; ++i) a.push_back(r.next_bool());
  BitVec b = BitVec::from_words(a.words(), a.size());
  EXPECT_EQ(a, b);
}

TEST(BitVec, ToStringRendersBits) {
  BitVec v;
  v.push_back(true);
  v.push_back(false);
  v.push_back(true);
  EXPECT_EQ(v.to_string(), "101");
}

// -------------------------------------------------------------- varint -----

TEST(Varint, RoundTripSmall) {
  Bytes b;
  put_varint(b, 0);
  put_varint(b, 1);
  put_varint(b, 127);
  put_varint(b, 128);
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(b, pos), 0u);
  EXPECT_EQ(get_varint(b, pos), 1u);
  EXPECT_EQ(get_varint(b, pos), 127u);
  EXPECT_EQ(get_varint(b, pos), 128u);
  EXPECT_EQ(pos, b.size());
}

TEST(Varint, RoundTripLarge) {
  Bytes b;
  const std::uint64_t big = 0xffffffffffffffffULL;
  put_varint(b, big);
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(b, pos), big);
}

TEST(Varint, RoundTripSweep) {
  for (std::uint64_t base : {1ULL, 7ULL, 300ULL, 1ULL << 20, 1ULL << 42}) {
    for (std::uint64_t delta = 0; delta < 3; ++delta) {
      Bytes b;
      put_varint(b, base + delta);
      std::size_t pos = 0;
      EXPECT_EQ(get_varint(b, pos), base + delta);
    }
  }
}

TEST(Varint, TruncatedInputReturnsNullopt) {
  Bytes b;
  put_varint(b, 1ULL << 40);
  b.pop_back();
  std::size_t pos = 0;
  EXPECT_FALSE(get_varint(b, pos).has_value());
}

TEST(Varint, SignedRoundTrip) {
  for (std::int64_t v : {0L, -1L, 1L, -1000000L, 1000000L, INT64_MIN,
                         INT64_MAX}) {
    Bytes b;
    put_varint_signed(b, v);
    std::size_t pos = 0;
    auto got = get_varint_signed(b, pos);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  }
}

TEST(Varint, EmptyInputReturnsNullopt) {
  Bytes b;
  std::size_t pos = 0;
  EXPECT_FALSE(get_varint(b, pos).has_value());
}

// ------------------------------------------------------------- metrics -----

TEST(StatAccumulator, MeanAndVariance) {
  StatAccumulator s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(StatAccumulator, EmptyIsZero) {
  StatAccumulator s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StatAccumulator, MergeMatchesSequential) {
  StatAccumulator all, a, b;
  Rng r(4);
  for (int i = 0; i < 100; ++i) {
    const double x = r.next_double() * 10;
    all.add(x);
    (i < 50 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Histogram, PercentilesAreMonotone) {
  Histogram h;
  Rng r(6);
  for (int i = 0; i < 10000; ++i) h.add(r.next_double() * 1000);
  EXPECT_LE(h.percentile(50), h.percentile(90));
  EXPECT_LE(h.percentile(90), h.percentile(99));
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.add(42.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  a.add(1);
  b.add(100);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
}

TEST(Histogram, PercentileInterpolatesWithinBucket) {
  // Three samples land in the same log2 bucket [8,16). The p50 target is
  // 1.5 of 3 samples, so linear interpolation reads the bucket's midpoint
  // instead of snapping to an edge.
  Histogram h;
  h.add(10.0);
  h.add(12.0);
  h.add(14.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 12.0);
  // The tail quantile interpolates past the samples but clamps to the
  // largest value actually seen — never past it to the bucket edge.
  EXPECT_DOUBLE_EQ(h.percentile(100), 14.0);
  EXPECT_LE(h.percentile(99), 14.0);
  // The head quantile stays at or above the bucket's lower edge.
  EXPECT_GE(h.percentile(1), 8.0);
}

TEST(Histogram, SumTracksAdds) {
  Histogram h;
  h.add(1.5);
  h.add(2.5);
  EXPECT_DOUBLE_EQ(h.sum(), 4.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

// Edge cases the exporters hit in practice: histograms that are empty (a
// span site never fired), hold one sample (fired once), or land every
// sample in one log2 bucket (a very steady stage).
TEST(Histogram, EmptyPercentilesAreZeroAtEveryQuantile) {
  Histogram h;
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 0.0) << p;
  }
  EXPECT_DOUBLE_EQ(h.max_seen(), 0.0);
}

TEST(Histogram, SingleSampleQuantilesClampToIt) {
  for (const double v : {0.0, 0.5, 1.0, 14.0, 1024.0, 1e12}) {
    Histogram h;
    h.add(v);
    // The top quantile is exactly the sample; every other one interpolates
    // within the sample's power-of-two bucket but may never pass the one
    // value actually seen (or leave the bucket downward past zero).
    EXPECT_DOUBLE_EQ(h.percentile(100), v) << v;
    double prev = 0.0;
    for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
      const double q = h.percentile(p);
      EXPECT_LE(q, v) << "v=" << v << " p=" << p;
      EXPECT_GE(q, 0.0) << "v=" << v << " p=" << p;
      EXPECT_GE(q, prev) << "v=" << v << " p=" << p;  // monotone in p
      prev = q;
    }
  }
  // Negative inputs clamp to the zero bucket.
  Histogram h;
  h.add(-5.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, SingleBucketManySamplesStaysInsideBucketBounds) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.add(8.0 + (i % 8));  // all in [8,16)
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_GE(h.percentile(p), 8.0) << p;
    EXPECT_LE(h.percentile(p), h.max_seen()) << p;
  }
  EXPECT_DOUBLE_EQ(h.percentile(100), 15.0);
  // Monotone across the single bucket too.
  EXPECT_LE(h.percentile(10), h.percentile(90));
}

// Property: merging histograms is equivalent to adding every sample to one
// histogram — same counts, same buckets, same sum, same percentiles. This
// is what lets per-shard histograms aggregate without bias.
TEST(Histogram, MergeEquivalenceProperty) {
  Rng r(99);
  Histogram merged_target;
  Histogram parts[4];
  for (int i = 0; i < 4000; ++i) {
    const double v = r.next_double() * 5000.0;
    merged_target.add(v);
    parts[i % 4].add(v);
  }
  Histogram merged;
  for (const Histogram& p : parts) merged.merge(p);
  EXPECT_EQ(merged.count(), merged_target.count());
  // Sums accumulate in different orders; allow float reassociation slack.
  EXPECT_NEAR(merged.sum(), merged_target.sum(), 1e-6 * merged_target.sum());
  EXPECT_DOUBLE_EQ(merged.max_seen(), merged_target.max_seen());
  EXPECT_EQ(merged.bucket_counts(), merged_target.bucket_counts());
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(merged.percentile(p), merged_target.percentile(p)) << p;
  }
}

// ---------------------------------------------------------- ThreadPool -----

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, DrainsOnDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&count] { count++; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, SingleThreadOrdering) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(ThreadPool, ManySmallTasksStress) {
  ThreadPool pool(8);
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::future<void>> futs;
  futs.reserve(5000);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    futs.push_back(pool.submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 5000ULL * 4999 / 2);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto boom =
      pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(boom.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

// --------------------------------------------------------- parallel_for ----

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(&pool, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NullPoolRunsInline) {
  std::vector<int> hits(100, 0);
  parallel_for(nullptr, hits.size(), [&](std::size_t i) { hits[i]++; });
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 100);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(&pool, 200,
                            [&](std::size_t i) {
                              ran++;
                              if (i == 199) throw std::runtime_error("x");
                            }),
               std::runtime_error);
  // Every other chunk still completed before the rethrow (no dangling
  // captures; only the throwing chunk stops early, and 199 is its last
  // index anyway).
  EXPECT_EQ(ran.load(), 200);
}

// ----------------------------------------------------------- FlatU64Set ---

TEST(FlatU64Set, InsertReportsNovelty) {
  FlatU64Set set;
  EXPECT_TRUE(set.insert(7));
  EXPECT_FALSE(set.insert(7));
  EXPECT_TRUE(set.contains(7));
  EXPECT_FALSE(set.contains(8));
  EXPECT_EQ(set.size(), 1u);
}

TEST(FlatU64Set, ZeroIsAnOrdinaryKey) {
  // 0 marks empty slots internally; the API must still treat it as a value.
  FlatU64Set set;
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 1u);
}

TEST(FlatU64Set, GrowsAndKeepsEverything) {
  FlatU64Set set;
  Rng r(17);
  std::set<std::uint64_t> model;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = r.next_below(4000);  // force duplicates
    EXPECT_EQ(set.insert(v), model.insert(v).second) << "i " << i;
  }
  EXPECT_EQ(set.size(), model.size());
  for (auto v : model) EXPECT_TRUE(set.contains(v));
}

TEST(FlatU64Set, ReserveDoesNotDisturbContents) {
  FlatU64Set set;
  for (std::uint64_t v = 1; v <= 100; ++v) set.insert(v);
  set.reserve(10000);
  EXPECT_EQ(set.size(), 100u);
  for (std::uint64_t v = 1; v <= 100; ++v) EXPECT_TRUE(set.contains(v));
}

TEST(FlatU64Set, ClearForgetsEveryKeyAndKeepsCapacity) {
  FlatU64Set set;
  set.insert(0);
  for (std::uint64_t v = 1; v <= 3000; ++v) set.insert(v * 0x9e3779b97f4a7c15ULL);
  const std::size_t capacity = set.capacity();
  ASSERT_GE(capacity, 6000u);
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.capacity(), capacity);
  EXPECT_FALSE(set.contains(0));
  for (std::uint64_t v = 1; v <= 3000; ++v) {
    EXPECT_FALSE(set.contains(v * 0x9e3779b97f4a7c15ULL)) << "v " << v;
  }
  // Refilled to the same size, the table reuses its slots: no growth.
  for (std::uint64_t v = 1; v <= 3000; ++v) EXPECT_TRUE(set.insert(v + 7));
  EXPECT_TRUE(set.insert(0));
  EXPECT_EQ(set.size(), 3001u);
  EXPECT_EQ(set.capacity(), capacity);
}

TEST(FlatU64PtrMap, InsertKeepsFirstMapping) {
  int a = 1, b = 2;
  FlatU64PtrMap<int> map;
  EXPECT_EQ(map.find(5), nullptr);
  map.insert(5, &a);
  map.insert(5, &b);  // emplace semantics: the first mapping wins
  EXPECT_EQ(map.find(5), &a);
  EXPECT_EQ(map.find(6), nullptr);
}

TEST(FlatU64PtrMap, ManyKeysSurviveGrowth) {
  std::vector<int> values(2000);
  FlatU64PtrMap<int> map;
  for (std::size_t i = 0; i < values.size(); ++i) {
    map.insert(i * 0x9e3779b9ULL + 1, &values[i]);
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(map.find(i * 0x9e3779b9ULL + 1), &values[i]) << "i " << i;
  }
}

}  // namespace
}  // namespace softborg
