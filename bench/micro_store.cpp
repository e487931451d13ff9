// Experience-store micro-benchmarks + the BENCH_store.json durability report.
//
// The JSON measurement drives a durable ExperienceStore in a scratch dir and
// reports:
//   wal_append_records_per_sec / wal_append_mb_per_sec - framed+checksummed
//               append throughput through RecordServe (includes the final
//               Sync), over a round-robin of distinct query types,
//   recovery_ms / replay_records_per_sec - cold Open() replaying the full
//               WAL through the live state machine,
//   snapshot_ms / snapshot_recovery_ms - serialize+atomic-publish cost and
//               the Open() that loads the snapshot instead of replaying.
//
// The crash-safety verdict (the WAL kill-point sweep) is a test:
// StoreFixture.KillPointSweepLosesOnlyTheTornTail in tests/store_test.cpp.
//
// The google-benchmark suite runs after the JSON measurement; pass
// --benchmark_filter etc. as usual.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/json_main.h"
#include "src/datagen/imdb_gen.h"
#include "src/query/builder.h"
#include "src/store/experience_store.h"
#include "src/store/store_file.h"
#include "src/util/stopwatch.h"

namespace {

using namespace neo;
using store::ExperienceStore;
using store::StoreOptions;

struct Fixture {
  datagen::Dataset ds;
  std::vector<query::Query> queries;           ///< Distinct type templates.
  std::vector<plan::PartialPlan> plans;        ///< One complete plan each.

  Fixture() {
    datagen::GenOptions opt;
    opt.scale = 0.02;
    ds = datagen::GenerateImdb(opt);
    // 16 structurally distinct single-relation templates: template n has
    // n % 4 + 1 predicates whose operators cycle from ops[n / 4], so no two
    // share their (count, operator sequence) and each hashes to its own type
    // (the type hash drops literals but keeps the predicates' order).
    const query::PredOp ops[] = {query::PredOp::kGe, query::PredOp::kLe,
                                 query::PredOp::kGt, query::PredOp::kLt};
    for (int n = 0; n < 16; ++n) {
      query::QueryBuilder b(ds.schema, *ds.db, "bench");
      b.Rel("title");
      for (int p = 0; p <= n % 4; ++p) {
        b.Pred("title", "production_year", ops[(n / 4 + p) % 4], 1950 + 10 * p);
      }
      queries.push_back(b.Build());
      queries.back().id = n + 1;
    }
    for (query::Query& q : queries) {
      plan::PartialPlan p;
      p.query = &q;
      p.roots = {plan::MakeScan(plan::ScanOp::kTable, q.relations[0], 1ULL << 0)};
      plans.push_back(std::move(p));
    }
  }
  static Fixture& Get() {
    static Fixture f;
    return f;
  }
};

/// Scratch dir for durable stores; known store files removed on destruction.
class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/neo_micro_store_XXXXXX";
    const char* p = ::mkdtemp(buf);
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

// ---- google-benchmark micro measurements ----------------------------------

void BM_WalAppendRecord(benchmark::State& state) {
  TempDir tmp;
  store::WalWriter w;
  if (!w.Open(tmp.path() + "/wal.log", 0).ok()) {
    state.SkipWithError("wal open failed");
    return;
  }
  uint8_t payload[64];
  std::memset(payload, 0x5a, sizeof payload);
  uint64_t lsn = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.AppendRecord(1, lsn++, payload, sizeof payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sizeof payload + 24));
}
BENCHMARK(BM_WalAppendRecord);

/// RecordServe through the full mode machine, in-memory (no WAL I/O): the
/// pure bookkeeping cost a serving worker pays per request.
void BM_StoreRecordServe(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  ExperienceStore store{StoreOptions{}};
  (void)store.Open();
  size_t i = 0;
  for (auto _ : state) {
    const size_t qi = i % f.queries.size();
    store.RecordServe(f.queries[qi], f.plans[qi], 10.0 + 0.001 * (i % 7),
                      /*from_search=*/true);
    ++i;
  }
}
BENCHMARK(BM_StoreRecordServe);

/// Decide() on a pinned (exploit) type: the fast-path lookup serving pays
/// before skipping search. Includes the pinned-plan decode-cache hit.
void BM_StoreDecidePinned(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  ExperienceStore store{StoreOptions{}};
  (void)store.Open();
  store.RecordServe(f.queries[0], f.plans[0], 10.0, /*from_search=*/true);
  if (!store.SetMode(f.queries[0].type_hash, store::TypeMode::kExploit).ok()) {
    state.SkipWithError("pin failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Decide(f.queries[0]));
  }
}
BENCHMARK(BM_StoreDecidePinned);

// ---- BENCH_store.json ------------------------------------------------------

bool WriteStoreJson(const std::string& path) {
  Fixture& f = Fixture::Get();

  // 1. WAL append throughput: records round-robin over 16 types, fsync at
  //    the end (the serving cadence amortizes it the same way).
  constexpr int kAppendRecords = 20000;
  TempDir dir;
  StoreOptions opt;
  opt.dir = dir.path();
  opt.snapshot_every = 0;
  double append_secs = 0.0;
  uint64_t appended = 0, wal_bytes = 0;
  size_t types = 0;
  {
    ExperienceStore store(opt);
    if (!store.Open().ok()) {
      std::fprintf(stderr, "micro_store: store open failed\n");
      return false;
    }
    util::Stopwatch watch;
    for (int i = 0; i < kAppendRecords; ++i) {
      const size_t qi = static_cast<size_t>(i) % f.queries.size();
      store.RecordServe(f.queries[qi], f.plans[qi], 10.0 + 0.001 * (i % 7),
                        /*from_search=*/true);
    }
    (void)store.Sync();
    append_secs = watch.ElapsedSeconds();
    appended = store.stats().wal_records;
    types = store.NumTypes();
    std::vector<uint8_t> bytes;
    if (store::ReadFileBytes(store.wal_path(), &bytes).ok()) {
      wal_bytes = bytes.size();
    }
  }

  // 2. Cold recovery: replay the whole WAL through the state machine.
  double recovery_secs = 0.0;
  uint64_t replayed = 0;
  {
    util::Stopwatch watch;
    ExperienceStore store(opt);
    (void)store.Open();
    recovery_secs = watch.ElapsedSeconds();
    replayed = store.recovery().wal_frames_replayed;

    // 3. Snapshot publish, then the snapshot-backed recovery.
    util::Stopwatch snap_watch;
    const bool snap_ok = store.Snapshot().ok();
    const double snapshot_secs = snap_watch.ElapsedSeconds();

    util::Stopwatch reopen_watch;
    ExperienceStore reopened(opt);
    (void)reopened.Open();
    const double snap_recovery_secs = reopen_watch.ElapsedSeconds();
    const bool snapshot_loaded = reopened.recovery().snapshot_loaded;

    const double append_rps = append_secs > 0 ? appended / append_secs : 0.0;
    const double append_mbps =
        append_secs > 0 ? wal_bytes / (1e6 * append_secs) : 0.0;
    const double replay_rps = recovery_secs > 0 ? replayed / recovery_secs : 0.0;

    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "micro_store: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"micro_store\",\n"
                 "  \"types\": %zu,\n"
                 "  \"wal_records\": %llu,\n"
                 "  \"wal_bytes\": %llu,\n"
                 "  \"wal_append_records_per_sec\": %.0f,\n"
                 "  \"wal_append_mb_per_sec\": %.2f,\n"
                 "  \"recovery_ms\": %.3f,\n"
                 "  \"replay_records_per_sec\": %.0f,\n"
                 "  \"snapshot_ms\": %.3f,\n"
                 "  \"snapshot_ok\": %s,\n"
                 "  \"snapshot_recovery_ms\": %.3f,\n"
                 "  \"snapshot_loaded\": %s\n"
                 "}\n",
                 types, static_cast<unsigned long long>(appended),
                 static_cast<unsigned long long>(wal_bytes), append_rps,
                 append_mbps, recovery_secs * 1e3, replay_rps,
                 snapshot_secs * 1e3, snap_ok ? "true" : "false",
                 snap_recovery_secs * 1e3, snapshot_loaded ? "true" : "false");
    std::fclose(out);

    std::printf(
        "store: %llu wal records appended at %.0f rec/s (%.2f MB/s);"
        " cold recovery %.3f ms (%.0f rec/s replay); snapshot %.3f ms,"
        " snapshot recovery %.3f ms -> %s\n",
        static_cast<unsigned long long>(appended), append_rps, append_mbps,
        recovery_secs * 1e3, replay_rps, snapshot_secs * 1e3,
        snap_recovery_secs * 1e3, path.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  return neo::bench::JsonBenchMain(
      argc, argv, "BENCH_store.json", /*count_flag=*/nullptr, /*count=*/0,
      [](const std::string& path, int) { return WriteStoreJson(path); });
}
