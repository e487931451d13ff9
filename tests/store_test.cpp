// Experience-store tests: constant-insensitive type hashing, the on-disk WAL
// and snapshot primitives, plan codec round trips, the per-type mode state
// machine (drift demotion, probes, re-promotion, stability, frozen), and the
// crash-safety contract — WAL/snapshot restart round trips, replay of WAL
// frames the store does not apply, the snapshot version check, a kill-point
// sweep over every frame boundary and mid-record offset of two scripts,
// bit-flip corruption detection, injected I/O faults, and crash-budget
// truncation through util::FaultInjector. The faults CI arm runs this file
// under NEO_FAULT_* injection, so the recovery paths are exercised both ways.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/datagen/imdb_gen.h"
#include "src/query/builder.h"
#include "src/store/experience_store.h"
#include "src/store/plan_codec.h"
#include "src/store/store_file.h"
#include "src/util/fault_injector.h"

namespace neo::store {
namespace {

using plan::JoinOp;
using plan::MakeJoin;
using plan::MakeScan;
using plan::PartialPlan;
using plan::ScanOp;
using query::PredOp;
using query::Query;
using query::QueryBuilder;

// ---- helpers ---------------------------------------------------------------

/// Unique scratch directory, removed (with its known store files) on exit.
class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/neo_store_test_XXXXXX";
    const char* p = ::mkdtemp(buf);
    EXPECT_NE(p, nullptr);
    path_ = p != nullptr ? p : "/tmp";
  }
  ~TempDir() {
    for (const char* f : {"/wal.log", "/snapshot.bin", "/snapshot.bin.tmp"}) {
      ::unlink((path_ + f).c_str());
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void WriteRawFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

bool ViewsEqual(const TypeView& a, const TypeView& b) {
  return a.type_hash == b.type_hash && a.mode == b.mode &&
         a.exploit_from_drift == b.exploit_from_drift &&
         a.serves == b.serves && a.search_serves == b.search_serves &&
         a.exploit_run_len == b.exploit_run_len && a.ewma == b.ewma &&
         a.baseline_mean == b.baseline_mean &&
         a.baseline_n == b.baseline_n && a.stable_run == b.stable_run &&
         a.healthy_run == b.healthy_run &&
         a.exploit_bad_run == b.exploit_bad_run &&
         a.demotions == b.demotions && a.has_best == b.has_best &&
         a.best_latency_ms == b.best_latency_ms &&
         a.best_plan_hash == b.best_plan_hash;
}

void ExpectViewsEqual(const std::vector<TypeView>& a,
                      const std::vector<TypeView>& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(ViewsEqual(a[i], b[i]))
        << context << ": type " << i << " diverged (hash " << a[i].type_hash
        << ", serves " << a[i].serves << " vs " << b[i].serves << ", ewma "
        << a[i].ewma << " vs " << b[i].ewma << ")";
  }
}

class StoreFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::GenOptions opt;
    opt.scale = 0.04;
    ds_ = new datagen::Dataset(datagen::GenerateImdb(opt));
  }
  static void TearDownTestSuite() { delete ds_; }

  /// One relation + one integer predicate: the parameterized-query template.
  /// All years share one type (the constants differ, the structure does not).
  static Query SingleRel(int id, int64_t year) {
    QueryBuilder b(ds_->schema, *ds_->db, "sr");
    b.Rel("title").Pred("title", "production_year", PredOp::kGe, year);
    Query q = b.Build();
    q.id = id;
    return q;
  }

  static Query ThreeWay(int id, const std::string& needle) {
    QueryBuilder b(ds_->schema, *ds_->db, "tw");
    b.JoinFk("movie_keyword", "title")
        .JoinFk("movie_keyword", "keyword")
        .PredStr("keyword", "keyword", PredOp::kContains, needle);
    Query q = b.Build();
    q.id = id;
    return q;
  }

  /// The (only) complete plan shape for a single-relation query.
  static PartialPlan OneScanPlan(const Query& q) {
    PartialPlan p;
    p.query = &q;
    p.roots = {MakeScan(ScanOp::kTable, q.relations[0], 1ULL << 0)};
    return p;
  }

  /// A complete 3-relation plan: ((r0 merge r1) hash r2).
  static PartialPlan ThreeWayPlan(const Query& q) {
    PartialPlan p;
    p.query = &q;
    auto s0 = MakeScan(ScanOp::kTable, q.relations[0], 1ULL << 0);
    auto s1 = MakeScan(ScanOp::kIndex, q.relations[1], 1ULL << 1);
    auto s2 = MakeScan(ScanOp::kTable, q.relations[2], 1ULL << 2);
    p.roots = {MakeJoin(JoinOp::kHash, MakeJoin(JoinOp::kMerge, s0, s1), s2)};
    return p;
  }

  static datagen::Dataset* ds_;
};

datagen::Dataset* StoreFixture::ds_ = nullptr;

// ---- Query type hashing ----------------------------------------------------

TEST_F(StoreFixture, TypeHashIgnoresLiteralsButFingerprintDoesNot) {
  const Query a = SingleRel(1, 1990);
  const Query b = SingleRel(2, 2005);
  EXPECT_NE(a.type_hash, 0u);
  EXPECT_EQ(a.type_hash, b.type_hash);     // Same template.
  EXPECT_NE(a.fingerprint, b.fingerprint);  // Different constants.
  EXPECT_NE(a.type_hash, a.fingerprint);

  const Query s1 = ThreeWay(3, "love");
  const Query s2 = ThreeWay(4, "war");
  EXPECT_EQ(s1.type_hash, s2.type_hash);   // String literal dropped too.
  EXPECT_NE(s1.fingerprint, s2.fingerprint);
}

TEST_F(StoreFixture, TypeHashSeparatesStructure) {
  const Query base = SingleRel(1, 1990);
  // Different operator on the same column.
  QueryBuilder b1(ds_->schema, *ds_->db, "sr");
  b1.Rel("title").Pred("title", "production_year", PredOp::kLe, 1990);
  EXPECT_NE(b1.Build().type_hash, base.type_hash);
  // Extra predicate.
  QueryBuilder b2(ds_->schema, *ds_->db, "sr");
  b2.Rel("title")
      .Pred("title", "production_year", PredOp::kGe, 1990)
      .Pred("title", "production_year", PredOp::kLe, 2000);
  EXPECT_NE(b2.Build().type_hash, base.type_hash);
  // Different relation/join structure.
  EXPECT_NE(ThreeWay(2, "love").type_hash, base.type_hash);
}

// ---- store_file: byte codecs, WAL, atomic publish --------------------------

TEST(StoreFileTest, ByteWriterReaderRoundTrip) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU32(0xdeadbeefu);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI32(-42);
  w.PutF64(3.14159);
  w.PutString("neo");
  ByteReader r(w.bytes().data(), w.size());
  EXPECT_EQ(r.GetU8(), 7u);
  EXPECT_EQ(r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetI32(), -42);
  EXPECT_EQ(r.GetF64(), 3.14159);
  EXPECT_EQ(r.GetString(), "neo");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  r.GetU64();  // Past the end: latches, returns zero.
  EXPECT_FALSE(r.ok());
}

TEST(StoreFileTest, WalAppendReadRoundTrip) {
  TempDir tmp;
  const std::string path = tmp.path() + "/wal.log";
  WalWriter w;
  ASSERT_TRUE(w.Open(path, 0).ok());
  const std::vector<std::vector<uint8_t>> payloads = {
      {1, 2, 3}, {}, {9, 8, 7, 6, 5}};
  for (size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(w.AppendRecord(static_cast<uint32_t>(i + 1), i + 10,
                               payloads[i].data(), payloads[i].size())
                    .ok());
  }
  ASSERT_TRUE(w.Sync().ok());
  w.Close();

  WalReadResult res;
  ASSERT_TRUE(ReadWal(path, &res).ok());
  ASSERT_EQ(res.records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(res.records[i].type, i + 1);
    EXPECT_EQ(res.records[i].lsn, i + 10);
    EXPECT_EQ(res.records[i].payload, payloads[i]);
  }
  EXPECT_FALSE(res.corruption);
  EXPECT_EQ(res.torn_bytes, 0u);
  std::vector<uint8_t> raw;
  ASSERT_TRUE(ReadFileBytes(path, &raw).ok());
  EXPECT_EQ(res.valid_bytes, raw.size());
}

TEST(StoreFileTest, WalTornTailIsDroppedSilently) {
  TempDir tmp;
  const std::string path = tmp.path() + "/wal.log";
  WalWriter w;
  ASSERT_TRUE(w.Open(path, 0).ok());
  const uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(w.AppendRecord(1, static_cast<uint64_t>(i + 1), payload, 8).ok());
  }
  ASSERT_TRUE(w.Sync().ok());
  w.Close();
  std::vector<uint8_t> raw;
  ASSERT_TRUE(ReadFileBytes(path, &raw).ok());
  WriteRawFile(path, std::vector<uint8_t>(raw.begin(), raw.end() - 5));

  WalReadResult res;
  EXPECT_TRUE(ReadWal(path, &res).ok());  // Torn tail: kOk, not corruption.
  EXPECT_EQ(res.records.size(), 2u);
  EXPECT_FALSE(res.corruption);
  EXPECT_GT(res.torn_bytes, 0u);
  EXPECT_EQ(res.valid_bytes + res.torn_bytes, raw.size() - 5);
}

TEST(StoreFileTest, WalBitFlipInCompleteFrameIsCorruption) {
  TempDir tmp;
  const std::string path = tmp.path() + "/wal.log";
  WalWriter w;
  ASSERT_TRUE(w.Open(path, 0).ok());
  const uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(w.AppendRecord(1, static_cast<uint64_t>(i + 1), payload, 8).ok());
  }
  ASSERT_TRUE(w.Sync().ok());
  w.Close();
  std::vector<uint8_t> raw;
  ASSERT_TRUE(ReadFileBytes(path, &raw).ok());
  const uint64_t frame = 4 + 4 + 8 + 8 + 8;  // len + type + lsn + payload + sum
  raw[8 + frame + 20] ^= 0x40;               // Inside frame 2's payload.
  WriteRawFile(path, raw);

  WalReadResult res;
  const util::Status s = ReadWal(path, &res);
  EXPECT_EQ(s.code(), util::Status::Code::kDataLoss);
  EXPECT_TRUE(res.corruption);
  EXPECT_EQ(res.records.size(), 1u);  // Valid prefix still usable.
  EXPECT_EQ(res.valid_bytes, 8 + frame);
}

TEST(StoreFileTest, AtomicWriteFilePublishesWholeOrNothing) {
  TempDir tmp;
  const std::string path = tmp.path() + "/snapshot.bin";
  const std::string v1 = "first version";
  const std::string v2 = "second version, longer";
  ASSERT_TRUE(AtomicWriteFile(path, v1.data(), v1.size(), nullptr, 1).ok());
  ASSERT_TRUE(AtomicWriteFile(path, v2.data(), v2.size(), nullptr, 1).ok());
  std::vector<uint8_t> got;
  ASSERT_TRUE(ReadFileBytes(path, &got).ok());
  EXPECT_EQ(std::string(got.begin(), got.end()), v2);

  // An injected EIO must leave the previous file intact and no tmp behind.
  util::FaultInjectorConfig fcfg;
  fcfg.enabled = true;
  fcfg.io_failure_p = 1.0;
  util::FaultInjector injector(fcfg);
  const std::string v3 = "never lands";
  EXPECT_FALSE(
      AtomicWriteFile(path, v3.data(), v3.size(), &injector, 1).ok());
  ASSERT_TRUE(ReadFileBytes(path, &got).ok());
  EXPECT_EQ(std::string(got.begin(), got.end()), v2);
  struct stat st;
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0);
}

// ---- Plan codec ------------------------------------------------------------

TEST_F(StoreFixture, PlanCodecRoundTripsCompleteAndPartialPlans) {
  const Query q = ThreeWay(1, "love");
  const PartialPlan complete = ThreeWayPlan(q);
  ASSERT_TRUE(complete.IsComplete());
  ByteWriter w;
  EncodePlan(complete, &w);
  ByteReader r(w.bytes().data(), w.size());
  PartialPlan decoded;
  ASSERT_TRUE(DecodePlan(&r, q, &decoded).ok());
  EXPECT_TRUE(decoded.IsComplete());
  EXPECT_EQ(decoded.Hash(), complete.Hash());
  EXPECT_EQ(decoded.query, &q);
  EXPECT_EQ(decoded.ToString(ds_->schema), complete.ToString(ds_->schema));

  // A multi-root partial forest round-trips too.
  PartialPlan partial;
  partial.query = &q;
  partial.roots = {MakeScan(ScanOp::kTable, q.relations[0], 1ULL << 0),
                   MakeScan(ScanOp::kIndex, q.relations[1], 1ULL << 1)};
  ByteWriter w2;
  EncodePlan(partial, &w2);
  ByteReader r2(w2.bytes().data(), w2.size());
  PartialPlan decoded2;
  ASSERT_TRUE(DecodePlan(&r2, q, &decoded2).ok());
  EXPECT_FALSE(decoded2.IsComplete());
  EXPECT_EQ(decoded2.Hash(), partial.Hash());
}

TEST_F(StoreFixture, PlanCodecRejectsGarbageWithoutCrashing) {
  const Query q = ThreeWay(1, "love");
  // Arbitrary bytes.
  const std::vector<uint8_t> junk = {0xff, 0xfe, 0x13, 0x37, 0x00, 0x42};
  ByteReader r(junk.data(), junk.size());
  PartialPlan out;
  EXPECT_EQ(DecodePlan(&r, q, &out).code(), util::Status::Code::kDataLoss);

  // A valid encoding truncated mid-stream.
  ByteWriter w;
  EncodePlan(ThreeWayPlan(q), &w);
  ByteReader r2(w.bytes().data(), w.size() / 2);
  PartialPlan out2;
  EXPECT_EQ(DecodePlan(&r2, q, &out2).code(), util::Status::Code::kDataLoss);

  // A valid encoding decoded against the wrong query (its tables are not in
  // the query's relation set) must be rejected, not trusted.
  const Query other = SingleRel(2, 1990);
  ByteReader r3(w.bytes().data(), w.size());
  PartialPlan out3;
  EXPECT_EQ(DecodePlan(&r3, other, &out3).code(),
            util::Status::Code::kDataLoss);
}

// ---- Mode state machine (in-memory store) ----------------------------------

TEST_F(StoreFixture, FirstImprovingServeCapturesBestPlan) {
  ExperienceStore store(StoreOptions{});
  ASSERT_TRUE(store.Open().ok());
  const Query q = SingleRel(1, 1990);
  const PartialPlan plan = OneScanPlan(q);

  EXPECT_FALSE(store.Decide(q).type_known);
  store.RecordServe(q, plan, 10.0, /*from_search=*/true);
  TypeView v;
  ASSERT_TRUE(store.ViewOf(q.type_hash, &v));
  EXPECT_TRUE(v.has_best);
  EXPECT_EQ(v.best_latency_ms, 10.0);
  EXPECT_EQ(v.best_plan_hash, plan.Hash());
  EXPECT_EQ(v.mode, TypeMode::kLearn);
  // A slower serve does not displace the best; a faster one does.
  store.RecordServe(q, plan, 20.0, /*from_search=*/true);
  ASSERT_TRUE(store.ViewOf(q.type_hash, &v));
  EXPECT_EQ(v.best_latency_ms, 10.0);
  store.RecordServe(q, plan, 5.0, /*from_search=*/true);
  ASSERT_TRUE(store.ViewOf(q.type_hash, &v));
  EXPECT_EQ(v.best_latency_ms, 5.0);
  EXPECT_EQ(store.stats().best_updates, 2u);
  // Learn mode: Decide still sends the query to search.
  const Decision d = store.Decide(q);
  EXPECT_TRUE(d.type_known);
  EXPECT_FALSE(d.use_pinned);
}

TEST_F(StoreFixture, DriftDemotionPinsRegressingType) {
  ExperienceStore store(StoreOptions{});
  ASSERT_TRUE(store.Open().ok());
  const Query q = SingleRel(1, 1990);
  const PartialPlan plan = OneScanPlan(q);

  // Baseline window (8) of healthy 10ms serves; first one captures the best.
  for (int i = 0; i < 8; ++i) store.RecordServe(q, plan, 10.0, true);
  TypeView v;
  ASSERT_TRUE(store.ViewOf(q.type_hash, &v));
  EXPECT_EQ(v.mode, TypeMode::kLearn);
  EXPECT_EQ(v.baseline_mean, 10.0);

  // One regressed serve pushes the EWMA past demote_factor x baseline
  // (0.25*100 + 0.75*10 = 32.5 > 25): the type pins to its best plan.
  store.RecordServe(q, plan, 100.0, true);
  ASSERT_TRUE(store.ViewOf(q.type_hash, &v));
  EXPECT_EQ(v.mode, TypeMode::kExploit);
  EXPECT_TRUE(v.exploit_from_drift);
  EXPECT_EQ(v.demotions, 1u);
  EXPECT_EQ(store.stats().drift_demotions, 1u);
  EXPECT_EQ(store.stats().mode_transitions, 1u);

  const Decision d = store.Decide(q);
  EXPECT_TRUE(d.use_pinned);
  EXPECT_EQ(d.mode, TypeMode::kExploit);
  EXPECT_EQ(d.pinned.Hash(), plan.Hash());
  EXPECT_EQ(d.pinned_latency_ms, 10.0);
  EXPECT_EQ(d.pinned.query, &q);
}

TEST_F(StoreFixture, HealthyProbesRepromoteDriftDemotedType) {
  ExperienceStore store(StoreOptions{});
  ASSERT_TRUE(store.Open().ok());
  const Query q = SingleRel(1, 1990);
  const PartialPlan plan = OneScanPlan(q);
  for (int i = 0; i < 8; ++i) store.RecordServe(q, plan, 10.0, true);
  store.RecordServe(q, plan, 100.0, true);  // Demote.
  TypeView v;
  ASSERT_TRUE(store.ViewOf(q.type_hash, &v));
  ASSERT_EQ(v.mode, TypeMode::kExploit);

  // Pinned serves at healthy latency. Every probe_interval-th (4th) exploit
  // serve is a probe; Decide must announce the schedule ahead of time, and
  // healthy_probes (3) healthy probes re-promote — at the 12th serve.
  int serves = 0;
  while (true) {
    ASSERT_TRUE(store.ViewOf(q.type_hash, &v));
    if (v.mode != TypeMode::kExploit) break;
    const Decision d = store.Decide(q);
    EXPECT_EQ(d.is_probe, (v.exploit_run_len + 1) % 4 == 0);
    store.RecordServe(q, plan, 10.0, /*from_search=*/false);
    ASSERT_LT(++serves, 64) << "never re-promoted";
  }
  EXPECT_EQ(serves, 12);
  EXPECT_EQ(v.mode, TypeMode::kLearn);
  EXPECT_EQ(store.stats().probe_serves, 3u);
  EXPECT_EQ(store.stats().repromotions, 1u);
  EXPECT_FALSE(store.Decide(q).use_pinned);  // Searching again.
}

TEST_F(StoreFixture, ExploitEscapeWhenPinnedPlanItselfRegresses) {
  ExperienceStore store(StoreOptions{});
  ASSERT_TRUE(store.Open().ok());
  const Query q = SingleRel(1, 1990);
  const PartialPlan plan = OneScanPlan(q);
  for (int i = 0; i < 8; ++i) store.RecordServe(q, plan, 10.0, true);
  store.RecordServe(q, plan, 100.0, true);  // Demote.

  // The pinned plan now also regresses: exploit_bad_streak (4) consecutive
  // bad serves force the type back to learn with a RESET baseline, so the
  // stale 10ms baseline cannot instantly re-demote it.
  for (int i = 0; i < 4; ++i) store.RecordServe(q, plan, 100.0, false);
  TypeView v;
  ASSERT_TRUE(store.ViewOf(q.type_hash, &v));
  EXPECT_EQ(v.mode, TypeMode::kLearn);
  EXPECT_EQ(v.baseline_n, 0);
  EXPECT_EQ(store.stats().exploit_escapes, 1u);

  // The next serves rebuild a fresh baseline at the new latency level.
  store.RecordServe(q, plan, 90.0, true);
  ASSERT_TRUE(store.ViewOf(q.type_hash, &v));
  EXPECT_EQ(v.mode, TypeMode::kLearn);
  EXPECT_EQ(v.baseline_mean, 90.0);
}

TEST_F(StoreFixture, StabilityPromotionStopsPayingForSearch) {
  StoreOptions opt;
  opt.drift.stable_streak = 3;
  ExperienceStore store(opt);
  ASSERT_TRUE(store.Open().ok());
  const Query q = SingleRel(1, 1990);
  const PartialPlan plan = OneScanPlan(q);

  store.RecordServe(q, plan, 10.0, true);  // Captures best, resets streak.
  for (int i = 0; i < 3; ++i) store.RecordServe(q, plan, 10.0, true);
  TypeView v;
  ASSERT_TRUE(store.ViewOf(q.type_hash, &v));
  EXPECT_EQ(v.mode, TypeMode::kExploit);
  EXPECT_FALSE(v.exploit_from_drift);  // Stability, not drift.
  EXPECT_EQ(store.stats().stability_promotions, 1u);

  // Stability promotions never probe (nothing drifted — only the escape
  // hatch can exit), and Decide pins without a probe schedule.
  for (int i = 0; i < 12; ++i) {
    EXPECT_FALSE(store.Decide(q).is_probe);
    store.RecordServe(q, plan, 10.0, false);
  }
  ASSERT_TRUE(store.ViewOf(q.type_hash, &v));
  EXPECT_EQ(v.mode, TypeMode::kExploit);
  EXPECT_EQ(store.stats().probe_serves, 0u);
}

TEST_F(StoreFixture, FrozenModePinsForeverAndRecordsNothing) {
  ExperienceStore store(StoreOptions{});
  ASSERT_TRUE(store.Open().ok());
  const Query q = SingleRel(1, 1990);
  const PartialPlan plan = OneScanPlan(q);
  store.RecordServe(q, plan, 10.0, true);
  ASSERT_TRUE(store.Freeze(q.type_hash).ok());

  Decision d = store.Decide(q);
  EXPECT_TRUE(d.use_pinned);
  EXPECT_EQ(d.mode, TypeMode::kFrozen);
  EXPECT_FALSE(d.is_probe);

  // Frozen serves leave the durable state untouched, whatever the latency.
  TypeView before;
  ASSERT_TRUE(store.ViewOf(q.type_hash, &before));
  for (int i = 0; i < 10; ++i) store.RecordServe(q, plan, 500.0, false);
  TypeView after;
  ASSERT_TRUE(store.ViewOf(q.type_hash, &after));
  EXPECT_TRUE(ViewsEqual(before, after));
  EXPECT_EQ(store.stats().frozen_serves, 10u);

  // Manual thaw resumes learning.
  ASSERT_TRUE(store.SetMode(q.type_hash, TypeMode::kLearn).ok());
  EXPECT_FALSE(store.Decide(q).use_pinned);
}

TEST_F(StoreFixture, ManualModeControlValidates) {
  ExperienceStore store(StoreOptions{});
  ASSERT_TRUE(store.Open().ok());
  const Query q = SingleRel(1, 1990);
  EXPECT_EQ(store.SetMode(q.type_hash, TypeMode::kExploit).code(),
            util::Status::Code::kNotFound);
  // A type with no best plan cannot be pinned.
  store.RecordServe(q, PartialPlan::Initial(q), 10.0, /*from_search=*/false);
  EXPECT_EQ(store.SetMode(q.type_hash, TypeMode::kExploit).code(),
            util::Status::Code::kFailedPrecondition);
  EXPECT_EQ(store.Freeze(q.type_hash).code(),
            util::Status::Code::kFailedPrecondition);
}

// ---- Durability: restart round trips ----------------------------------------

/// One RecordServe call of a scripted workload.
struct ScriptedServe {
  const Query* query;
  const PartialPlan* plan;
  double latency_ms;
  bool from_search;
};

/// A deterministic mixed workload: two types, an improving serve of each, a
/// drift demotion and unsearched serves. The same script produces reference
/// states and WAL byte streams across tests.
std::vector<ScriptedServe> MixedScript(const Query& q1, const PartialPlan& p1,
                                       const Query& q2, const PartialPlan& p2) {
  std::vector<ScriptedServe> serves;
  for (int i = 0; i < 8; ++i) serves.push_back({&q1, &p1, 10.0 + 0.25 * i, true});
  for (int i = 0; i < 5; ++i) serves.push_back({&q2, &p2, 40.0 + i, true});
  serves.push_back({&q1, &p1, 120.0, true});  // Demotes q1.
  for (int i = 0; i < 3; ++i) serves.push_back({&q1, &p1, 10.0, false});
  return serves;
}

/// Runs MixedScript against `store`.
void DriveScript(ExperienceStore* store, const Query& q1,
                 const PartialPlan& p1, const Query& q2,
                 const PartialPlan& p2) {
  for (const ScriptedServe& s : MixedScript(q1, p1, q2, p2)) {
    store->RecordServe(*s.query, *s.plan, s.latency_ms, s.from_search);
  }
}

TEST_F(StoreFixture, WalReplayReproducesStateExactly) {
  TempDir tmp;
  const Query q1 = SingleRel(1, 1990);
  const Query q2 = ThreeWay(2, "love");
  const PartialPlan p1 = OneScanPlan(q1);
  const PartialPlan p2 = ThreeWayPlan(q2);

  StoreOptions opt;
  opt.dir = tmp.path();
  opt.snapshot_every = 0;  // WAL only.
  std::vector<TypeView> expected;
  uint64_t wal_records = 0;
  {
    ExperienceStore a(opt);
    ASSERT_TRUE(a.Open().ok());
    DriveScript(&a, q1, p1, q2, p2);
    ASSERT_TRUE(a.Sync().ok());
    expected = a.View();
    wal_records = a.stats().wal_records;
  }

  ExperienceStore b(opt);
  const util::Status s = b.Open();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(b.recovery().snapshot_loaded);
  EXPECT_EQ(b.recovery().wal_frames_seen, wal_records);
  EXPECT_EQ(b.recovery().wal_frames_replayed, wal_records);
  ExpectViewsEqual(b.View(), expected, "wal replay");

  // Replay is a state-machine re-run: the recovered store keeps serving with
  // identical decisions (q1 was drift-demoted, so its pin survives restart).
  const Decision d = b.Decide(q1);
  EXPECT_TRUE(d.use_pinned);
  EXPECT_EQ(d.pinned.Hash(), p1.Hash());
}

TEST_F(StoreFixture, SnapshotRoundTripWithLsnGatedTail) {
  TempDir tmp;
  const Query q1 = SingleRel(1, 1990);
  const Query q2 = ThreeWay(2, "love");
  const PartialPlan p1 = OneScanPlan(q1);
  const PartialPlan p2 = ThreeWayPlan(q2);

  StoreOptions opt;
  opt.dir = tmp.path();
  opt.snapshot_every = 0;
  std::vector<TypeView> expected;
  uint64_t post_snapshot_frames = 0;
  {
    ExperienceStore a(opt);
    ASSERT_TRUE(a.Open().ok());
    DriveScript(&a, q1, p1, q2, p2);
    ASSERT_TRUE(a.Snapshot().ok());
    const uint64_t before = a.stats().wal_records;
    // Post-snapshot tail: only these frames should replay on reopen.
    for (int i = 0; i < 4; ++i) {
      a.RecordServe(q2, p2, 44.0 + i, /*from_search=*/true);
    }
    post_snapshot_frames = a.stats().wal_records - before;
    ASSERT_TRUE(a.Sync().ok());
    expected = a.View();
    EXPECT_EQ(a.stats().snapshots, 1u);
  }

  ExperienceStore b(opt);
  ASSERT_TRUE(b.Open().ok());
  EXPECT_TRUE(b.recovery().snapshot_loaded);
  EXPECT_EQ(b.recovery().snapshot_types, 2u);
  EXPECT_EQ(b.recovery().wal_frames_replayed, post_snapshot_frames);
  ExpectViewsEqual(b.View(), expected, "snapshot + tail");
}

TEST_F(StoreFixture, StaleWalFramesBehindSnapshotLsnAreSkipped) {
  // Crash window: snapshot rename landed but the WAL reset did not. The old
  // WAL's frames are all folded into the snapshot already; the LSN gate must
  // skip every one of them instead of double-applying (EWMA updates are not
  // idempotent, so a single double-applied frame would diverge the state).
  TempDir tmp;
  const Query q1 = SingleRel(1, 1990);
  const Query q2 = ThreeWay(2, "love");
  const PartialPlan p1 = OneScanPlan(q1);
  const PartialPlan p2 = ThreeWayPlan(q2);

  StoreOptions opt;
  opt.dir = tmp.path();
  opt.snapshot_every = 0;
  std::vector<uint8_t> pre_snapshot_wal;
  std::vector<TypeView> expected;
  {
    ExperienceStore a(opt);
    ASSERT_TRUE(a.Open().ok());
    DriveScript(&a, q1, p1, q2, p2);
    ASSERT_TRUE(a.Sync().ok());
    ASSERT_TRUE(ReadFileBytes(a.wal_path(), &pre_snapshot_wal).ok());
    ASSERT_TRUE(a.Snapshot().ok());  // Publishes snapshot, resets the WAL.
    expected = a.View();
  }
  // Emulate the crash: restore the pre-snapshot WAL over the reset one.
  WriteRawFile(tmp.path() + "/wal.log", pre_snapshot_wal);

  ExperienceStore b(opt);
  ASSERT_TRUE(b.Open().ok());
  EXPECT_TRUE(b.recovery().snapshot_loaded);
  EXPECT_GT(b.recovery().wal_frames_seen, 0u);
  EXPECT_EQ(b.recovery().wal_frames_replayed, 0u);  // All LSN-gated.
  ExpectViewsEqual(b.View(), expected, "lsn gate");
}

// ---- Frames and snapshots recovery does not apply ---------------------------

TEST_F(StoreFixture, UnknownAndUndecodableWalFramesCreateNoType) {
  // Frames replay cannot apply sit between valid frames, each for a type no
  // other frame names: a type-4 frame laid out as the cardinality correction
  // earlier versions logged ([u64 type hash][u64 relation mask][f64 log
  // ratio]), a frame of type 99, which no version writes, and an observation
  // frame too short to decode. Replay counts them all and leaves the state
  // of a store that never saw them.
  const Query q1 = SingleRel(1, 1990);
  const Query q2 = ThreeWay(2, "love");
  const PartialPlan p1 = OneScanPlan(q1);
  const PartialPlan p2 = ThreeWayPlan(q2);
  StoreOptions opt;
  opt.snapshot_every = 0;

  TempDir clean_dir;
  opt.dir = clean_dir.path();
  std::vector<TypeView> expected;
  size_t expected_types = 0;
  {
    ExperienceStore a(opt);
    ASSERT_TRUE(a.Open().ok());
    DriveScript(&a, q1, p1, q2, p2);
    ASSERT_TRUE(a.Sync().ok());
    expected = a.View();
    expected_types = a.NumTypes();
  }
  WalReadResult clean;
  ASSERT_TRUE(ReadWal(clean_dir.path() + "/wal.log", &clean).ok());
  ASSERT_GE(clean.records.size(), 4u);

  ByteWriter correction;
  correction.PutU64(0xc0ffee01ULL);  // Type hash.
  correction.PutU64(0x3ULL);         // Relation mask.
  correction.PutF64(std::log(7.0));  // Log of observed / estimated.
  ByteWriter future;
  future.PutU64(0xc0ffee02ULL);
  future.PutF64(1.0);
  ByteWriter short_observation;
  short_observation.PutU64(0xc0ffee03ULL);  // No latency, no flags.

  // The clean frames, renumbered, with the three spliced in.
  TempDir spliced_dir;
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(spliced_dir.path() + "/wal.log", 0).ok());
    uint64_t lsn = 1;
    const auto append = [&](uint32_t type, const ByteWriter& payload) {
      return w.AppendRecord(type, lsn++, payload.bytes().data(), payload.size());
    };
    for (size_t i = 0; i < clean.records.size(); ++i) {
      if (i == 2) {
        ASSERT_TRUE(append(4, correction).ok());
      }
      if (i == 3) {
        ASSERT_TRUE(append(99, future).ok());
      }
      if (i + 1 == clean.records.size()) {
        ASSERT_TRUE(append(1, short_observation).ok());
      }
      const WalRecord& r = clean.records[i];
      ASSERT_TRUE(
          w.AppendRecord(r.type, lsn++, r.payload.data(), r.payload.size()).ok());
    }
    ASSERT_TRUE(w.Sync().ok());
    w.Close();
  }

  opt.dir = spliced_dir.path();
  ExperienceStore b(opt);
  const util::Status s = b.Open();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(b.recovery().wal_frames_seen, clean.records.size() + 3);
  EXPECT_EQ(b.recovery().wal_frames_replayed, clean.records.size() + 3);
  EXPECT_EQ(b.NumTypes(), expected_types);
  ExpectViewsEqual(b.View(), expected, "spliced frames");
}

TEST_F(StoreFixture, SnapshotOfAnotherVersionIsDataLossAndWalStillReplays) {
  // A snapshot of another version (here 1, whose type records carried a
  // correction list) is reported, never decoded: kDataLoss, snapshot_corrupt,
  // and recovery replays the WAL frames past it. The rewrite keeps a valid
  // checksum, so the version check is what rejects it; the same rewrite at
  // the current version loads.
  TempDir tmp;
  const Query q1 = SingleRel(1, 1990);
  const Query q2 = ThreeWay(2, "love");
  const PartialPlan p1 = OneScanPlan(q1);
  const PartialPlan p2 = ThreeWayPlan(q2);
  StoreOptions opt;
  opt.dir = tmp.path();
  opt.snapshot_every = 0;
  {
    ExperienceStore a(opt);
    ASSERT_TRUE(a.Open().ok());
    DriveScript(&a, q1, p1, q2, p2);
    ASSERT_TRUE(a.Snapshot().ok());
    a.RecordServe(q2, p2, 44.0, true);  // One post-snapshot frame.
    ASSERT_TRUE(a.Sync().ok());
  }
  std::vector<uint8_t> snap;
  ASSERT_TRUE(ReadFileBytes(tmp.path() + "/snapshot.bin", &snap).ok());
  ASSERT_GT(snap.size(), 16u);
  const auto with_version = [&](uint32_t version) {
    std::vector<uint8_t> body(snap.begin(), snap.end() - 8);
    ByteWriter v;
    v.PutU32(version);
    // The version follows the 4-byte magic.
    std::copy(v.bytes().begin(), v.bytes().end(), body.begin() + 4);
    ByteWriter out;
    out.PutBytes(body.data(), body.size());
    out.PutU64(Fnv1a(body.data(), body.size()));
    return out.bytes();
  };

  WriteRawFile(tmp.path() + "/snapshot.bin", with_version(kSnapshotVersion));
  {
    ExperienceStore b(opt);
    ASSERT_TRUE(b.Open().ok());
    EXPECT_TRUE(b.recovery().snapshot_loaded);
    EXPECT_EQ(b.NumTypes(), 2u);
  }

  WriteRawFile(tmp.path() + "/snapshot.bin", with_version(1));
  ExperienceStore c(opt);
  const util::Status s = c.Open();
  EXPECT_EQ(s.code(), util::Status::Code::kDataLoss);
  EXPECT_TRUE(c.recovery().snapshot_corrupt);
  EXPECT_FALSE(c.recovery().snapshot_loaded);
  EXPECT_EQ(c.recovery().wal_frames_seen, 1u);
  EXPECT_EQ(c.recovery().wal_frames_replayed, 1u);
  EXPECT_EQ(c.NumTypes(), 1u);
  TypeView v;
  ASSERT_TRUE(c.ViewOf(q2.type_hash, &v));
  EXPECT_EQ(v.serves, 1u);
}

// ---- Kill-point sweep (the crash-safety acceptance test) --------------------

/// Reference states of a script: the store's View() at every frame count
/// that ends a RecordServe call. An improving serve appends two frames
/// atomically from the caller's view, so the count between them has no
/// call-boundary reference; it is covered by the frame-count asserts instead.
using ReferenceStates = std::map<uint64_t, std::vector<TypeView>>;

/// Drives `serves` through a fresh WAL-only store and returns the WAL it
/// wrote, with its reference states in `reference`.
void RecordScript(const std::vector<ScriptedServe>& serves,
                  std::vector<uint8_t>* wal, ReferenceStates* reference) {
  TempDir dir;
  StoreOptions opt;
  opt.dir = dir.path();
  opt.snapshot_every = 0;
  ExperienceStore a(opt);
  ASSERT_TRUE(a.Open().ok());
  reference->clear();
  (*reference)[0] = a.View();
  for (const ScriptedServe& s : serves) {
    a.RecordServe(*s.query, *s.plan, s.latency_ms, s.from_search);
    (*reference)[a.stats().wal_records] = a.View();
  }
  ASSERT_TRUE(a.Sync().ok());
  ASSERT_TRUE(ReadFileBytes(a.wal_path(), wal).ok());
}

/// Kills the store at every frame boundary of `wal` AND at four offsets
/// inside every frame. Recovery must load exactly the complete-frame prefix:
/// kOk (a torn tail is crash debris, not corruption), frames_replayed == k,
/// and state equal to the pre-crash reference at k frames. Adds the frames
/// and the cuts it made to `frames` and `cuts`.
void SweepKillPoints(const std::vector<uint8_t>& wal,
                     const ReferenceStates& reference, size_t* frames,
                     size_t* cuts) {
  // Frame boundaries from the canonical bytes.
  std::vector<uint64_t> boundaries = {8};  // Past the file header.
  {
    uint64_t off = 8;
    while (off + 24 <= wal.size()) {
      uint32_t len = 0;
      std::memcpy(&len, wal.data() + off, 4);
      off += 24 + len;
      ASSERT_LE(off, wal.size());
      boundaries.push_back(off);
    }
    ASSERT_EQ(off, wal.size());
  }
  ASSERT_EQ(boundaries.size(), reference.rbegin()->first + 1);

  TempDir scratch;
  StoreOptions sopt;
  sopt.dir = scratch.path();
  sopt.snapshot_every = 0;
  for (size_t k = 0; k + 1 < boundaries.size(); ++k) {
    const uint64_t frame_len = boundaries[k + 1] - boundaries[k];
    const uint64_t offsets[] = {
        boundaries[k],                  // Frame boundary.
        boundaries[k] + 1,              // Torn length field.
        boundaries[k] + 17,             // Torn frame header.
        boundaries[k] + frame_len / 2,  // Torn payload.
        boundaries[k] + frame_len - 1,  // One byte short.
    };
    for (const uint64_t cut : offsets) {
      WriteRawFile(scratch.path() + "/wal.log",
                   std::vector<uint8_t>(wal.begin(), wal.begin() + cut));
      ExperienceStore b(sopt);
      const util::Status s = b.Open();
      EXPECT_TRUE(s.ok()) << "cut at " << cut << ": " << s.ToString();
      EXPECT_EQ(b.recovery().wal_frames_replayed, k) << "cut at " << cut;
      EXPECT_FALSE(b.recovery().wal_corrupt) << "cut at " << cut;
      const auto it = reference.find(k);
      if (it != reference.end()) {
        ExpectViewsEqual(b.View(), it->second, "cut at " + std::to_string(cut));
      }
      ++*cuts;
    }
  }
  *frames += boundaries.size() - 1;

  // Cut inside the 8-byte header: a fresh (empty) store, not an error.
  WriteRawFile(scratch.path() + "/wal.log",
               std::vector<uint8_t>(wal.begin(), wal.begin() + 3));
  {
    ExperienceStore b(sopt);
    EXPECT_TRUE(b.Open().ok());
    EXPECT_EQ(b.NumTypes(), 0u);
  }

  // Full file: everything replays.
  WriteRawFile(scratch.path() + "/wal.log", wal);
  ExperienceStore full(sopt);
  ASSERT_TRUE(full.Open().ok());
  ExpectViewsEqual(full.View(), reference.rbegin()->second, "full file");
}

TEST_F(StoreFixture, KillPointSweepLosesOnlyTheTornTail) {
  // Script 1: MixedScript (two types, improving serves, a drift demotion,
  // unsearched serves).
  const Query q1 = SingleRel(1, 1990);
  const Query q2 = ThreeWay(2, "love");
  const PartialPlan p1 = OneScanPlan(q1);
  const PartialPlan p2 = ThreeWayPlan(q2);

  // Script 2: a longer run of four single-relation types (1 to 4
  // predicates), 120 serves round-robin, each improving on its type's best
  // plan, so each appends two frames.
  const PredOp ops[] = {PredOp::kGe, PredOp::kLe, PredOp::kGt, PredOp::kLt};
  std::vector<Query> types;
  for (int n = 0; n < 4; ++n) {
    QueryBuilder b(ds_->schema, *ds_->db, "sweep");
    b.Rel("title");
    for (int p = 0; p <= n; ++p) {
      b.Pred("title", "production_year", ops[(n + p) % 4], 1950 + 10 * p);
    }
    types.push_back(b.Build());
    types.back().id = n + 1;
  }
  std::vector<PartialPlan> plans;
  for (const Query& q : types) plans.push_back(OneScanPlan(q));
  std::vector<ScriptedServe> improving;
  for (int i = 0; i < 120; ++i) {
    improving.push_back({&types[i % 4], &plans[i % 4], 50.0 - 0.1 * i, true});
  }

  const std::vector<std::vector<ScriptedServe>> scripts = {
      MixedScript(q1, p1, q2, p2), improving};
  const size_t expected_frames[] = {19, 240};
  for (size_t i = 0; i < scripts.size(); ++i) {
    SCOPED_TRACE("script " + std::to_string(i + 1));
    std::vector<uint8_t> wal;
    ReferenceStates reference;
    RecordScript(scripts[i], &wal, &reference);
    size_t frames = 0;
    size_t cuts = 0;
    SweepKillPoints(wal, reference, &frames, &cuts);
    EXPECT_EQ(frames, expected_frames[i]);
    EXPECT_EQ(cuts, 5 * frames);  // The sweep actually swept.
  }
}

TEST_F(StoreFixture, BitFlipsAreDetectedNeverSilentlyLoaded) {
  TempDir tmp;
  const Query q1 = SingleRel(1, 1990);
  const Query q2 = ThreeWay(2, "love");
  const PartialPlan p1 = OneScanPlan(q1);
  const PartialPlan p2 = ThreeWayPlan(q2);
  StoreOptions opt;
  opt.dir = tmp.path();
  opt.snapshot_every = 0;
  {
    ExperienceStore a(opt);
    ASSERT_TRUE(a.Open().ok());
    DriveScript(&a, q1, p1, q2, p2);
    ASSERT_TRUE(a.Sync().ok());
  }

  // WAL bit rot: kDataLoss reported, valid prefix mounted, flag set.
  std::vector<uint8_t> wal;
  ASSERT_TRUE(ReadFileBytes(tmp.path() + "/wal.log", &wal).ok());
  std::vector<uint8_t> flipped = wal;
  flipped[flipped.size() / 2] ^= 0x01;
  WriteRawFile(tmp.path() + "/wal.log", flipped);
  {
    ExperienceStore b(opt);
    const util::Status s = b.Open();
    EXPECT_EQ(s.code(), util::Status::Code::kDataLoss);
    EXPECT_TRUE(b.recovery().wal_corrupt);
    EXPECT_LT(b.recovery().wal_frames_replayed, b.recovery().wal_frames_seen +
                                                    20);  // Prefix only.
  }

  // Snapshot bit rot: also kDataLoss; the store must fall back to the WAL
  // tail rather than load corrupted type records.
  WriteRawFile(tmp.path() + "/wal.log", wal);  // Restore a clean WAL.
  {
    ExperienceStore a(opt);
    ASSERT_TRUE(a.Open().ok());
    ASSERT_TRUE(a.Snapshot().ok());
    a.RecordServe(q2, p2, 44.0, true);  // One post-snapshot frame.
    ASSERT_TRUE(a.Sync().ok());
  }
  std::vector<uint8_t> snap;
  ASSERT_TRUE(ReadFileBytes(tmp.path() + "/snapshot.bin", &snap).ok());
  snap[snap.size() / 3] ^= 0x10;
  WriteRawFile(tmp.path() + "/snapshot.bin", snap);
  {
    ExperienceStore b(opt);
    const util::Status s = b.Open();
    EXPECT_EQ(s.code(), util::Status::Code::kDataLoss);
    EXPECT_TRUE(b.recovery().snapshot_corrupt);
    EXPECT_FALSE(b.recovery().snapshot_loaded);
    // Degraded but consistent: only the post-snapshot WAL tail is state.
    EXPECT_EQ(b.recovery().wal_frames_replayed, b.recovery().wal_frames_seen);
    EXPECT_EQ(b.NumTypes(), 1u);
    TypeView v;
    ASSERT_TRUE(b.ViewOf(q2.type_hash, &v));
    EXPECT_EQ(v.serves, 1u);
  }
}

// ---- Crash emulation through the fault injector -----------------------------

TEST_F(StoreFixture, CrashBudgetEqualsFileTruncationAtThatByte) {
  // The injector's byte odometer emulates a kill at byte c of the store's
  // cumulative write stream. The contract: recovering a store that "crashed"
  // at budget c is byte-for-byte the same as recovering the canonical WAL
  // truncated at offset c.
  const Query q1 = SingleRel(1, 1990);
  const Query q2 = ThreeWay(2, "love");
  const PartialPlan p1 = OneScanPlan(q1);
  const PartialPlan p2 = ThreeWayPlan(q2);

  TempDir canon_dir;
  StoreOptions canon_opt;
  canon_opt.dir = canon_dir.path();
  canon_opt.snapshot_every = 0;
  std::vector<uint8_t> wal;
  size_t full_types = 0;
  {
    ExperienceStore a(canon_opt);
    ASSERT_TRUE(a.Open().ok());
    DriveScript(&a, q1, p1, q2, p2);
    ASSERT_TRUE(a.Sync().ok());
    full_types = a.NumTypes();
    ASSERT_TRUE(ReadFileBytes(a.wal_path(), &wal).ok());
  }

  for (const uint64_t budget :
       {uint64_t{3}, uint64_t{8}, uint64_t{64}, uint64_t{151},
        uint64_t{wal.size() / 2}, uint64_t{wal.size() - 7}}) {
    // Crashed run: same script, injector cuts the stream at `budget`.
    TempDir crash_dir;
    StoreOptions copt;
    copt.dir = crash_dir.path();
    copt.snapshot_every = 0;
    util::FaultInjectorConfig fcfg;
    fcfg.enabled = true;
    fcfg.io_truncate_at = static_cast<int64_t>(budget);
    util::FaultInjector injector(fcfg);
    std::vector<TypeView> live_views;
    {
      ExperienceStore c(copt);
      c.SetFaultInjector(&injector);
      ASSERT_TRUE(c.Open().ok());
      DriveScript(&c, q1, p1, q2, p2);
      c.Sync();  // Silent no-op past the kill byte.
      // The emulated process's MEMORY is unaffected by the kill — it keeps
      // serving everything until it actually exits.
      EXPECT_EQ(c.NumTypes(), full_types);
      live_views = c.View();
    }
    {
      std::vector<uint8_t> disk;
      ASSERT_TRUE(
          ReadFileBytes(crash_dir.path() + "/wal.log", &disk).ok());
      EXPECT_EQ(disk.size(), std::min<uint64_t>(budget, wal.size()))
          << "budget " << budget;
      EXPECT_TRUE(std::equal(disk.begin(), disk.end(), wal.begin()))
          << "budget " << budget;
    }

    // Reference: the canonical WAL truncated at the same byte.
    TempDir ref_dir;
    StoreOptions ropt;
    ropt.dir = ref_dir.path();
    ropt.snapshot_every = 0;
    WriteRawFile(ref_dir.path() + "/wal.log",
                 std::vector<uint8_t>(
                     wal.begin(),
                     wal.begin() + std::min<uint64_t>(budget, wal.size())));

    ExperienceStore recovered(copt);
    ExperienceStore reference(ropt);
    ASSERT_TRUE(recovered.Open().ok()) << "budget " << budget;
    ASSERT_TRUE(reference.Open().ok()) << "budget " << budget;
    ExpectViewsEqual(recovered.View(), reference.View(),
                     "budget " + std::to_string(budget));
    EXPECT_EQ(recovered.recovery().wal_frames_replayed,
              reference.recovery().wal_frames_replayed);
  }
}

TEST_F(StoreFixture, CrashDuringSnapshotPublishKeepsWalAuthoritative) {
  TempDir tmp;
  const Query q1 = SingleRel(1, 1990);
  const Query q2 = ThreeWay(2, "love");
  const PartialPlan p1 = OneScanPlan(q1);
  const PartialPlan p2 = ThreeWayPlan(q2);
  StoreOptions opt;
  opt.dir = tmp.path();
  opt.snapshot_every = 0;

  std::vector<TypeView> expected;
  {
    ExperienceStore a(opt);
    ASSERT_TRUE(a.Open().ok());
    DriveScript(&a, q1, p1, q2, p2);
    ASSERT_TRUE(a.Sync().ok());
    expected = a.View();

    // Kill the process a few bytes into the snapshot tmp write (the injector
    // attaches with a fresh byte odometer, so the budget counts only writes
    // from here on): the rename never happens, and — critically — the WAL
    // must NOT be reset, because its frames are still the only durable copy
    // of the state.
    util::FaultInjectorConfig fcfg;
    fcfg.enabled = true;
    fcfg.io_truncate_at = 40;
    util::FaultInjector injector(fcfg);
    a.SetFaultInjector(&injector);
    EXPECT_TRUE(a.Snapshot().ok());  // The dead process never saw an error.
    EXPECT_EQ(a.stats().snapshots, 0u);
  }

  struct stat st;
  EXPECT_NE(::stat((tmp.path() + "/snapshot.bin").c_str(), &st), 0);
  ExperienceStore b(opt);
  ASSERT_TRUE(b.Open().ok());
  EXPECT_FALSE(b.recovery().snapshot_loaded);
  ExpectViewsEqual(b.View(), expected, "crash mid-snapshot");
}

TEST_F(StoreFixture, InjectedIoFaultsDegradeToValidPrefixNeverCorruption) {
  // Short writes and EIOs on every WAL append path: whatever lands on disk
  // must recover as a clean prefix of the logical record stream (kOk — torn
  // bytes are truncated away by the writer's reset), matching the in-memory
  // reference at that frame count.
  const Query q1 = SingleRel(1, 1990);
  const Query q2 = ThreeWay(2, "love");
  const PartialPlan p1 = OneScanPlan(q1);
  const PartialPlan p2 = ThreeWayPlan(q2);

  for (const uint64_t seed : {3u, 11u, 77u}) {
    TempDir tmp;
    StoreOptions opt;
    opt.dir = tmp.path();
    opt.snapshot_every = 0;
    util::FaultInjectorConfig fcfg;
    fcfg.enabled = true;
    fcfg.seed = seed;
    fcfg.io_short_write_p = 0.2;
    fcfg.io_failure_p = 0.2;
    util::FaultInjector injector(fcfg);

    std::map<uint64_t, std::vector<TypeView>> reference;
    uint64_t final_records = 0;
    {
      ExperienceStore a(opt);
      ASSERT_TRUE(a.Open().ok());
      // Attach after Open: an injected EIO on the fresh WAL header would be
      // a (correctly reported) startup failure, not the append-path
      // degradation this test is about.
      a.SetFaultInjector(&injector);
      reference[0] = a.View();
      // Checkpoint the in-memory state only when the call's expected frames
      // ALL landed (an improving serve emits observation + best-plan): a
      // partial emission or a degraded append means this frame count is not
      // a call-boundary state of the on-disk stream, so it has no reference.
      const auto step = [&](const Query& q, const PartialPlan& p, double lat,
                            bool search, uint64_t expect_frames) {
        const uint64_t before = a.stats().wal_records;
        a.RecordServe(q, p, lat, search);
        const uint64_t after = a.stats().wal_records;
        if (after == before + expect_frames) reference.emplace(after, a.View());
      };
      for (int i = 0; i < 10; ++i) {
        step(q1, p1, 10.0 + 0.25 * i, true, i == 0 ? 2 : 1);
      }
      for (int i = 0; i < 10; ++i) {
        step(q2, p2, 40.0 + i, true, i == 0 ? 2 : 1);
      }
      for (int i = 0; i < 10; ++i) step(q1, p1, 11.0, false, 1);
      a.Sync();
      final_records = a.stats().wal_records;
    }
    EXPECT_GT(injector.io_failures() + injector.io_short_writes(), 0u)
        << "seed " << seed << " exercised nothing";

    ExperienceStore b(opt);
    const util::Status s = b.Open();
    EXPECT_TRUE(s.ok()) << "seed " << seed << ": " << s.ToString();
    EXPECT_FALSE(b.recovery().wal_corrupt) << "seed " << seed;
    const uint64_t replayed = b.recovery().wal_frames_replayed;
    EXPECT_LE(replayed, final_records);
    const auto it = reference.find(replayed);
    if (it != reference.end()) {
      ExpectViewsEqual(b.View(), it->second, "faults seed " +
                                                 std::to_string(seed));
    }
  }
}

TEST_F(StoreFixture, AutomaticSnapshotTriggersAtThreshold) {
  TempDir tmp;
  const Query q1 = SingleRel(1, 1990);
  const PartialPlan p1 = OneScanPlan(q1);
  StoreOptions opt;
  opt.dir = tmp.path();
  opt.snapshot_every = 8;
  {
    ExperienceStore a(opt);
    ASSERT_TRUE(a.Open().ok());
    for (int i = 0; i < 12; ++i) {
      a.RecordServe(q1, p1, 10.0, /*from_search=*/i == 0);
      ASSERT_TRUE(a.Sync().ok());
    }
    EXPECT_GE(a.stats().snapshots, 1u);
  }
  ExperienceStore b(opt);
  ASSERT_TRUE(b.Open().ok());
  EXPECT_TRUE(b.recovery().snapshot_loaded);
  TypeView v;
  ASSERT_TRUE(b.ViewOf(q1.type_hash, &v));
  EXPECT_EQ(v.serves, 12u);
}

// ---- FromEnv I/O knobs (satellite: fault-injector env plumbing) -------------

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

TEST(FaultInjectorIoEnvTest, FromEnvParsesIoVariables) {
  ScopedEnv e1("NEO_FAULT_INJECT", "1");
  ScopedEnv e2("NEO_FAULT_IO_SHORTWRITE_P", "0.25");
  ScopedEnv e3("NEO_FAULT_IO_FAIL_P", "0.5");
  ScopedEnv e4("NEO_FAULT_IO_TRUNCATE_AT", "4096");
  const util::FaultInjectorConfig cfg = util::FaultInjectorConfig::FromEnv();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_DOUBLE_EQ(cfg.io_short_write_p, 0.25);
  EXPECT_DOUBLE_EQ(cfg.io_failure_p, 0.5);
  EXPECT_EQ(cfg.io_truncate_at, 4096);
}

TEST(FaultInjectorIoEnvTest, FromEnvIoDefaultsAreModerateAndTruncationOff) {
  ScopedEnv e1("NEO_FAULT_INJECT", "1");
  ScopedEnv e2("NEO_FAULT_IO_SHORTWRITE_P", nullptr);
  ScopedEnv e3("NEO_FAULT_IO_FAIL_P", nullptr);
  ScopedEnv e4("NEO_FAULT_IO_TRUNCATE_AT", nullptr);
  const util::FaultInjectorConfig cfg = util::FaultInjectorConfig::FromEnv();
  EXPECT_DOUBLE_EQ(cfg.io_short_write_p, 0.05);
  EXPECT_DOUBLE_EQ(cfg.io_failure_p, 0.02);
  EXPECT_EQ(cfg.io_truncate_at, -1);
}

TEST(FaultInjectorIoTest, ConsumeIoBudgetCutsAtTheExactByte) {
  util::FaultInjectorConfig cfg;
  cfg.enabled = true;
  cfg.io_truncate_at = 100;
  util::FaultInjector injector(cfg);
  EXPECT_EQ(injector.ConsumeIoBudget(60), 60u);
  EXPECT_EQ(injector.ConsumeIoBudget(60), 40u);  // Budget cut mid-write.
  EXPECT_EQ(injector.ConsumeIoBudget(60), 0u);   // Dead past the kill byte.
  // Disabled or unlimited injectors never cut.
  util::FaultInjector off;
  EXPECT_EQ(off.ConsumeIoBudget(1 << 20), static_cast<size_t>(1 << 20));
}

TEST(FaultInjectorIoTest, ShortWritesAreStrictPrefixesAndDeterministic) {
  util::FaultInjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 9;
  cfg.io_short_write_p = 0.5;
  util::FaultInjector a(cfg);
  util::FaultInjector b(cfg);
  size_t shortened = 0;
  for (int i = 0; i < 64; ++i) {
    const size_t la = a.PerturbWriteLength(7, 100);
    const size_t lb = b.PerturbWriteLength(7, 100);
    EXPECT_EQ(la, lb);  // Same seed, same stream: same schedule.
    EXPECT_LE(la, 100u);
    if (la < 100) ++shortened;
  }
  EXPECT_GT(shortened, 0u);
  EXPECT_EQ(a.io_short_writes(), shortened);
}

}  // namespace
}  // namespace neo::store
