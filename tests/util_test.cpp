#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "src/util/flat_hash_set.h"
#include "src/util/latency_histogram.h"
#include "src/util/lru_map.h"
#include "src/util/rng.h"
#include "src/util/score_cache.h"
#include "src/util/status.h"
#include "src/util/string_util.h"

namespace neo::util {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All values hit.
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, ForkIndependentOfParentDraws) {
  Rng a(9);
  Rng fork1 = a.Fork(5);
  a.Next();
  a.Next();
  Rng b(9);
  Rng fork2 = b.Fork(5);
  EXPECT_EQ(fork1.Next(), fork2.Next());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(4);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWeightedRespectsWeights) {
  Rng rng(5);
  std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.SampleWeighted(w), 1u);
}

TEST(ZipfTest, SkewZeroIsUniformish) {
  Rng rng(6);
  Zipf z(10, 0.0, 0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) counts[z.Sample(rng)]++;
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(ZipfTest, HighSkewConcentrates) {
  Rng rng(7);
  Zipf z(100, 1.5, 0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) counts[z.Sample(rng)]++;
  // Rank 0 should dominate rank 50 heavily.
  EXPECT_GT(counts[0], counts[50] * 20);
}

TEST(ZipfTest, ShuffledPermutationStillCoversDomain) {
  Rng rng(8);
  Zipf z(16, 1.0, 77);
  std::set<size_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(z.Sample(rng));
  EXPECT_GT(seen.size(), 12u);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(s.ToString().find("bad"), std::string::npos);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ContainsAndLower) {
  EXPECT_TRUE(Contains("hello world", "lo w"));
  EXPECT_FALSE(Contains("hello", "z"));
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
}

TEST(FlatHashSet64Test, InsertContainsAndDuplicates) {
  FlatHashSet64 s;
  EXPECT_FALSE(s.Contains(42));
  EXPECT_TRUE(s.Insert(42));
  EXPECT_FALSE(s.Insert(42));
  EXPECT_TRUE(s.Contains(42));
  EXPECT_EQ(s.size(), 1u);
  // Key 0 is valid despite doubling as the empty-slot sentinel.
  EXPECT_FALSE(s.Contains(0));
  EXPECT_TRUE(s.Insert(0));
  EXPECT_FALSE(s.Insert(0));
  EXPECT_TRUE(s.Contains(0));
  EXPECT_EQ(s.size(), 2u);
}

TEST(FlatHashSet64Test, GrowthPreservesMembershipAndClearKeepsCapacity) {
  FlatHashSet64 s;
  Rng rng(5);
  std::set<uint64_t> ref;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = rng.Next();
    EXPECT_EQ(s.Insert(k), ref.insert(k).second) << "key " << k;
  }
  EXPECT_EQ(s.size(), ref.size());
  for (uint64_t k : ref) EXPECT_TRUE(s.Contains(k));
  // Linear probing must also report absence correctly.
  for (int i = 0; i < 1000; ++i) {
    const uint64_t k = rng.Next();
    EXPECT_EQ(s.Contains(k), ref.count(k) != 0);
  }
  const size_t cap = s.Capacity();
  s.Clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.Capacity(), cap);  // Clear never frees the slot array.
  for (uint64_t k : ref) EXPECT_FALSE(s.Contains(k));
  EXPECT_TRUE(s.Insert(123));
  EXPECT_EQ(s.size(), 1u);
}

TEST(HashTest, MixAndCombineStable) {
  EXPECT_EQ(Mix64(123), Mix64(123));
  EXPECT_NE(Mix64(123), Mix64(124));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(LruMapTest, FindMissesOnEmptyAndAfterClear) {
  LruMap<uint64_t, float> m;
  m.Clear(4);
  EXPECT_EQ(m.Find(1), nullptr);
  EXPECT_FALSE(m.Insert(1, 1.5f));
  ASSERT_NE(m.Find(1), nullptr);
  m.Clear(4);
  EXPECT_EQ(m.Find(1), nullptr);
  EXPECT_EQ(m.size(), 0u);
}

TEST(LruMapTest, EvictsLeastRecentlyUsedPastCap) {
  LruMap<int, int> m;
  m.Clear(3);
  EXPECT_FALSE(m.Insert(1, 10));
  EXPECT_FALSE(m.Insert(2, 20));
  EXPECT_FALSE(m.Insert(3, 30));
  EXPECT_TRUE(m.Insert(4, 40));  // Evicts 1 (least recently used).
  EXPECT_EQ(m.Find(1), nullptr);
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.Find(2), nullptr);
  EXPECT_EQ(*m.Find(2), 20);
}

TEST(LruMapTest, FindTouchesRecency) {
  LruMap<int, int> m;
  m.Clear(2);
  m.Insert(1, 10);
  m.Insert(2, 20);
  ASSERT_NE(m.Find(1), nullptr);  // 1 becomes most recent; 2 is now LRU.
  EXPECT_TRUE(m.Insert(3, 30));   // Evicts 2, not 1.
  EXPECT_NE(m.Find(1), nullptr);
  EXPECT_EQ(m.Find(2), nullptr);
  EXPECT_NE(m.Find(3), nullptr);
}

TEST(LruMapTest, InsertOverwritesExistingKeyWithoutEviction) {
  LruMap<int, int> m;
  m.Clear(2);
  m.Insert(1, 10);
  m.Insert(2, 20);
  EXPECT_FALSE(m.Insert(1, 11));  // Overwrite: no eviction, touches 1.
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(*m.Find(1), 11);
  EXPECT_TRUE(m.Insert(3, 30));  // 2 is LRU now (1 was touched by overwrite).
  EXPECT_EQ(m.Find(2), nullptr);
  EXPECT_NE(m.Find(1), nullptr);
}

TEST(LruMapTest, CapZeroIsUnbounded) {
  LruMap<int, int> m;
  m.Clear(0);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(m.Insert(i, i));
  EXPECT_EQ(m.size(), 1000u);
  for (int i = 0; i < 1000; ++i) ASSERT_NE(m.Find(i), nullptr);
}

TEST(LruMapTest, ValuePointersStableAcrossFindsAndInserts) {
  // The activation cache holds Find() pointers across further Finds and
  // non-evicting Inserts within one batch; they must stay valid.
  LruMap<int, std::vector<float>> m;
  m.Clear(0);
  m.Insert(1, {1.0f, 2.0f});
  const std::vector<float>* p = m.Find(1);
  ASSERT_NE(p, nullptr);
  const float* data = p->data();
  for (int i = 2; i < 200; ++i) m.Insert(i, {static_cast<float>(i)});
  for (int i = 2; i < 200; ++i) ASSERT_NE(m.Find(i), nullptr);
  EXPECT_EQ(m.Find(1)->data(), data);
  EXPECT_FLOAT_EQ((*m.Find(1))[1], 2.0f);
}

TEST(LruMapTest, MoveTransfersEntries) {
  LruMap<int, int> a;
  a.Clear(8);
  a.Insert(1, 10);
  LruMap<int, int> b = std::move(a);
  ASSERT_NE(b.Find(1), nullptr);
  EXPECT_EQ(*b.Find(1), 10);
  EXPECT_EQ(b.capacity(), 8u);
}

TEST(LatencyHistogramTest, ExactAggregatesAndBoundedPercentiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0.0);

  std::vector<double> samples;
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) samples.push_back(rng.NextUniform(0.01, 250.0));
  double sum = 0.0, mn = samples[0], mx = samples[0];
  for (double s : samples) {
    h.Record(s);
    sum += s;
    mn = std::min(mn, s);
    mx = std::max(mx, s);
  }
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.min(), mn);
  EXPECT_DOUBLE_EQ(h.max(), mx);
  EXPECT_DOUBLE_EQ(h.mean(), sum / static_cast<double>(samples.size()));
  // p100 clamps to the exact observed max; p0 reports the min's bucket.
  EXPECT_DOUBLE_EQ(h.Percentile(100), mx);
  constexpr double kBucketWidth = 1.0746;  // 10^(1/32), ~7.46%.
  EXPECT_GE(h.Percentile(0), mn);
  EXPECT_LE(h.Percentile(0), mn * kBucketWidth);

  // Quantiles are within one bucket width of the true sample quantile, on
  // the upper side (bucket upper edge).
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {50.0, 95.0, 99.0}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    const double truth = sorted[rank - 1];
    const double est = h.Percentile(p);
    EXPECT_GE(est, truth) << "p" << p;
    EXPECT_LE(est, truth * kBucketWidth) << "p" << p;
  }
}

TEST(LatencyHistogramTest, PercentilesAreMonotoneAndClamped) {
  LatencyHistogram h;
  for (double v : {0.5, 1.0, 2.0, 4.0, 8.0}) h.Record(v);
  double prev = h.Percentile(0);
  for (double p = 5; p <= 100; p += 5) {
    const double cur = h.Percentile(p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_LE(h.Percentile(100), h.max());
  EXPECT_GE(h.Percentile(0), h.min());
}

TEST(LatencyHistogramTest, UnderflowOverflowAndNaNAreCaptured) {
  LatencyHistogram h;
  h.Record(1e-9);  // Below kMinTracked -> underflow bucket.
  h.Record(1e9);   // Above the decade range -> overflow bucket.
  EXPECT_EQ(h.count(), 2u);
  // The overflow-bucket quantile clamps to the exact max.
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1e9);
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_EQ(LatencyHistogram::BucketIndex(std::nan("")), 0);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1e9),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(LatencyHistogramTest, MergeEqualsCombinedRecording) {
  // The per-thread-then-Merge aggregation contract: a merged histogram is
  // indistinguishable from one fed the concatenated samples.
  LatencyHistogram a, b, combined;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.NextUniform(0.002, 5000.0);
    ((i % 2 == 0) ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  // Sums accumulate in different orders (per-thread then merged), so compare
  // to rounding, not bitwise.
  EXPECT_NEAR(a.sum(), combined.sum(), 1e-9 * combined.sum());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  for (double p = 0; p <= 100; p += 2.5) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), combined.Percentile(p)) << "p" << p;
  }
}

TEST(ScoreCacheTest, ExactCountersAndOverwriteNeitherDuplicatesNorEvicts) {
  ScoreCache cache(/*cap=*/1024, /*stripes=*/4);
  EXPECT_EQ(cache.num_stripes(), 4);
  EXPECT_EQ(cache.capacity(), 1024u);
  float out = 0.0f;
  EXPECT_FALSE(cache.Get(7, &out));
  EXPECT_FALSE(cache.Insert(7, 42.0f));
  EXPECT_TRUE(cache.Get(7, &out));
  EXPECT_EQ(out, 42.0f);
  // Overwrite touches, not duplicates.
  EXPECT_FALSE(cache.Insert(7, 43.0f));
  EXPECT_TRUE(cache.Get(7, &out));
  EXPECT_EQ(out, 43.0f);
  const CacheStats s = cache.TotalStats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(ScoreCacheTest, StripesRoundUpToPowerOfTwoAndCapRoundsDownToSets) {
  ScoreCache cache(/*cap=*/1024, /*stripes=*/5);
  EXPECT_EQ(cache.num_stripes(), 8);
  // 100 entries fit 8 sets of 8 ways; the cap stays an upper bound.
  EXPECT_EQ(ScoreCache(/*cap=*/100, 1).capacity(), 64u);
  // Never more stripes than sets, and never fewer than one.
  EXPECT_EQ(ScoreCache(/*cap=*/16, /*stripes=*/16).num_stripes(), 2);
  EXPECT_EQ(ScoreCache(/*cap=*/64, /*stripes=*/0).num_stripes(), 1);
  EXPECT_EQ(ScoreCache(/*cap=*/64, /*stripes=*/-3).num_stripes(), 1);
}

TEST(ScoreCacheTest, OneSetEvictsLeastRecentlyUsedAndGetRefreshes) {
  // cap < 8: one set of `cap` ways, an exact LRU.
  ScoreCache cache(/*cap=*/3, /*stripes=*/4);
  EXPECT_EQ(cache.capacity(), 3u);
  EXPECT_EQ(cache.num_stripes(), 1);
  float out = 0.0f;
  EXPECT_FALSE(cache.Insert(1, 1.0f));
  EXPECT_FALSE(cache.Insert(2, 2.0f));
  EXPECT_FALSE(cache.Insert(3, 3.0f));
  EXPECT_TRUE(cache.Get(1, &out));      // 1 becomes most recent; 2 is LRU.
  EXPECT_TRUE(cache.Insert(4, 4.0f));   // Evicts 2.
  EXPECT_FALSE(cache.Get(2, &out));
  EXPECT_TRUE(cache.Get(3, &out));  // Order now (oldest first): 1, 4, 3.
  EXPECT_TRUE(cache.Insert(2, 2.0f));   // Evicts 1.
  EXPECT_FALSE(cache.Get(1, &out));
  EXPECT_TRUE(cache.Get(4, &out));
  EXPECT_EQ(out, 4.0f);
  const CacheStats s = cache.TotalStats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.entries, 3u);
}

TEST(ScoreCacheTest, KeysSharingASetNeverAliasAndKeyZeroIsStored) {
  // One 8-way set: every key shares it.
  ScoreCache cache(/*cap=*/8, /*stripes=*/1);
  ASSERT_EQ(cache.capacity(), 8u);
  float out = -1.0f;
  EXPECT_FALSE(cache.Get(0, &out));
  for (uint64_t k = 0; k < 8; ++k) {
    EXPECT_FALSE(cache.Insert(k, static_cast<float>(k) + 0.5f));
  }
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(cache.Get(k, &out)) << k;
    EXPECT_EQ(out, static_cast<float>(k) + 0.5f) << k;
  }
  // A key that differs from a resident key only in high bits is a miss.
  EXPECT_FALSE(cache.Get(uint64_t{1} << 63, &out));
  EXPECT_FALSE(cache.Get((uint64_t{1} << 40) | 3, &out));
  EXPECT_EQ(cache.TotalStats().entries, 8u);
}

TEST(ScoreCacheTest, HitReturnsScoreAndMissLeavesOutUntouched) {
  ScoreCache cache(/*cap=*/64, /*stripes=*/2);
  cache.Insert(9, 1.25f);
  float out = 0.0f;
  ASSERT_TRUE(cache.Get(9, &out));
  EXPECT_EQ(out, 1.25f);
  float sentinel = -1.0f;
  EXPECT_FALSE(cache.Get(10, &sentinel));
  EXPECT_EQ(sentinel, -1.0f);
}

TEST(ScoreCacheTest, ConcurrentMixedUseNeverMisplacesScoresAndKeepsCountsExact) {
  constexpr size_t kCap = 256;
  ScoreCache cache(kCap, /*stripes=*/8);
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::atomic<int> wrong_scores{0};
  std::atomic<uint64_t> gets{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOps; ++i) {
        const uint64_t key = rng.Next() % 1024;
        gets.fetch_add(1, std::memory_order_relaxed);
        float score = 0.0f;
        if (cache.Get(key, &score)) {
          // Every score derives from its key; a score stored under another
          // key would surface here (and a race as a tsan report in the
          // sanitizer arm).
          if (score != static_cast<float>(key) + 0.5f) wrong_scores.fetch_add(1);
        } else {
          cache.Insert(key, static_cast<float>(key) + 0.5f);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong_scores.load(), 0);
  const CacheStats s = cache.TotalStats();
  EXPECT_EQ(s.hits + s.misses, gets.load());
  EXPECT_LE(s.entries, kCap);
  EXPECT_GT(s.evictions, 0u);
}

}  // namespace
}  // namespace neo::util
