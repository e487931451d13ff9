// Serving-core micro-benchmarks + the BENCH_serve.json concurrency report.
//
// The JSON measurement drives a ServingCore over a JOB subset with closed-loop
// clients and reports, per arm (client count): qps, p50/p95/p99 request
// latency (from the serving histograms) and the shared-cache counters, so
// the scaling curve and the cache hit rates are both visible.
//
// The bench exits 1 when concurrent clients lose throughput: on a multi-core
// host the best multi-client arm must reach 0.9x the single-client qps
// (qps_scaling_ok; a single hardware thread cannot scale and passes). It is
// a timing check, so it runs here and not in ctest, whose sanitizer arms
// would distort it. The serving contracts are tests: single-client bit
// identity (ServeFixture.SingleClientServingBitIdenticalToInlineGuardedLoop),
// a warmed search's zero allocations
// (CoreFixture.WarmSearchScoringAllocatesNothing) and the overload bound
// (OverloadFixture.AcceptanceBurstKeepsAdmittedWithinDeadline).
//
// The google-benchmark suite runs after the JSON measurement; pass
// --benchmark_filter etc. as usual (see bench/json_main.h).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_main.h"
#include "src/core/neo.h"
#include "src/datagen/imdb_gen.h"
#include "src/query/job_workload.h"
#include "src/serve/serving_core.h"
#include "src/util/rng.h"
#include "src/util/score_cache.h"
#include "src/util/stopwatch.h"

namespace {

using namespace neo;

struct Fixture {
  datagen::Dataset ds;
  query::Workload wl{"none"};
  std::unique_ptr<featurize::Featurizer> feat;
  std::vector<const query::Query*> train;

  Fixture() {
    datagen::GenOptions opt;
    opt.scale = 0.05;
    ds = datagen::GenerateImdb(opt);
    wl = query::MakeJobWorkload(ds.schema, *ds.db);
    feat = std::make_unique<featurize::Featurizer>(ds.schema, *ds.db,
                                                   featurize::FeaturizerConfig{});
    for (size_t i = 0; i < wl.size(); i += 7) train.push_back(&wl.query(i));
  }
  static core::NeoConfig Config() {
    core::NeoConfig cfg;
    cfg.net.query_fc = {64, 32};
    cfg.net.tree_channels = {32, 16};
    cfg.net.head_fc = {16};
    cfg.search.max_expansions = 40;
    return cfg;
  }
  static Fixture& Get() {
    static Fixture f;
    return f;
  }
};

/// A bootstrapped Neo + its engine, ready to put behind a ServingCore.
struct Rig {
  std::unique_ptr<engine::ExecutionEngine> engine;
  std::unique_ptr<core::Neo> neo;
};

Rig MakeRig(const core::NeoConfig& cfg) {
  Fixture& f = Fixture::Get();
  Rig r;
  r.engine = std::make_unique<engine::ExecutionEngine>(f.ds.schema, *f.ds.db,
                                                       engine::EngineKind::kPostgres);
  r.neo = std::make_unique<core::Neo>(f.feat.get(), r.engine.get(), cfg);
  auto expert = optim::MakeNativeOptimizer(engine::EngineKind::kPostgres, f.ds.schema,
                                           *f.ds.db);
  r.neo->Bootstrap(f.train, expert.optimizer.get());
  return r;
}

// ---- google-benchmark micro measurements ----------------------------------

void BM_HistogramRecord(benchmark::State& state) {
  util::LatencyHistogram h;
  double v = 0.001;
  for (auto _ : state) {
    h.Record(v);
    v = v * 1.1;
    if (v > 1e4) v = 0.001;
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_HistogramRecord);

/// Score-cache read: hits on a warm table.
void BM_ScoreCacheGet(benchmark::State& state) {
  util::ScoreCache cache(1 << 16, serve::kScoreCacheStripes);
  for (uint64_t k = 0; k < 4096; ++k) cache.Insert(k, static_cast<float>(k));
  uint64_t k = 0;
  float out = 0.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(k & 4095, &out));
    benchmark::DoNotOptimize(out);
    ++k;
  }
}
BENCHMARK(BM_ScoreCacheGet);

/// The serve-cold write pattern: fresh keys into a full table at the serving
/// default cap, so every insert evicts.
void BM_ScoreCacheInsertEvict(benchmark::State& state) {
  util::ScoreCache cache(serve::ServingOptions().shared_score_cap,
                         serve::kScoreCacheStripes);
  // Two capacities of fresh keys leave ~1% of sets short of a full 8 ways.
  uint64_t k = 0;
  while (k < 2 * cache.capacity()) cache.Insert(util::Mix64(k++), 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Insert(util::Mix64(k), static_cast<float>(k)));
    ++k;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ScoreCacheInsertEvict);

/// Hot single-worker serve (cached search + memoized execution): the serving
/// stack's per-request overhead over the inline loop of micro_guard.
void BM_ServeSyncHot(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  Rig rig = MakeRig(Fixture::Config());
  serve::ServingOptions sopt;
  sopt.workers = 1;
  sopt.search = Fixture::Config().search;
  serve::ServingCore core(rig.neo.get(), sopt);
  for (const query::Query* q : f.train) core.ServeSync(*q, /*learn=*/false);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core.ServeSync(*f.train[i % f.train.size()], /*learn=*/false));
    ++i;
  }
}
BENCHMARK(BM_ServeSyncHot);

// ---- BENCH_serve.json ------------------------------------------------------

struct ArmResult {
  int clients = 0;
  int workers = 0;
  uint64_t requests = 0;
  double qps = 0.0;  ///< Median over reps of the measured serving phase.
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  util::CacheStats score_cache;
  util::CacheStats activation_cache;
};

/// One serving arm: `clients` closed-loop threads issue `requests` total
/// requests per rep against a fresh core; qps is the median rep.
ArmResult RunArm(int clients, int requests, int reps) {
  Fixture& f = Fixture::Get();
  const core::NeoConfig cfg = Fixture::Config();
  Rig rig = MakeRig(cfg);
  rig.neo->Retrain();  // Score on trained-ish weights, as serving would.

  serve::ServingOptions sopt;
  sopt.workers = std::min(clients, 8);
  sopt.search = cfg.search;
  serve::ServingCore core(rig.neo.get(), sopt);
  core.PublishWeights();
  // Warm pass: engine memo + score cache, so arms compare steady state.
  for (const query::Query* q : f.train) core.ServeSync(*q, /*learn=*/false);

  std::vector<double> rep_qps;
  for (int rep = 0; rep < reps; ++rep) {
    util::Stopwatch watch;
    std::vector<std::thread> threads;
    const int per_client = std::max(1, requests / clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (int i = 0; i < per_client; ++i) {
          const size_t qi = (static_cast<size_t>(c) * 31 + static_cast<size_t>(i)) %
                            f.train.size();
          core.ServeSync(*f.train[qi], /*learn=*/false);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double secs = watch.ElapsedSeconds();
    rep_qps.push_back(static_cast<double>(per_client) * clients / secs);
  }
  std::sort(rep_qps.begin(), rep_qps.end());

  const serve::ServingStats stats = core.stats();
  ArmResult r;
  r.clients = clients;
  r.workers = sopt.workers;
  r.requests = stats.requests;
  r.qps = rep_qps[rep_qps.size() / 2];
  r.p50_ms = stats.total_latency.Percentile(50);
  r.p95_ms = stats.total_latency.Percentile(95);
  r.p99_ms = stats.total_latency.Percentile(99);
  r.score_cache = stats.score_cache;
  r.activation_cache = stats.activation_cache;
  return r;
}

void AppendArmJson(std::FILE* out, const ArmResult& r, bool last) {
  std::fprintf(out,
               "    {\"clients\": %d, \"workers\": %d,"
               " \"requests\": %llu, \"qps\": %.2f,"
               " \"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f,"
               " \"score_cache_hits\": %llu, \"score_cache_misses\": %llu,"
               " \"activation_cache_hits\": %llu}%s\n",
               r.clients, r.workers,
               static_cast<unsigned long long>(r.requests), r.qps, r.p50_ms,
               r.p95_ms, r.p99_ms,
               static_cast<unsigned long long>(r.score_cache.hits),
               static_cast<unsigned long long>(r.score_cache.misses),
               static_cast<unsigned long long>(r.activation_cache.hits),
               last ? "" : ",");
}

bool WriteServeJson(const std::string& path, int reps) {
  Fixture& f = Fixture::Get();
  constexpr int kRequestsPerArm = 256;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::vector<ArmResult> arms;
  for (const int clients : {1, 2, 4, 8, 16, 32, 64}) {
    arms.push_back(RunArm(clients, kRequestsPerArm, reps));
  }

  double qps_1 = 0.0, qps_multi_best = 0.0;
  for (const ArmResult& a : arms) {
    if (a.clients == 1) qps_1 = a.qps;
    if (a.clients > 1) qps_multi_best = std::max(qps_multi_best, a.qps);
  }
  // On a multi-core host concurrent clients must not lose throughput vs one
  // client (10% noise floor); a single hardware thread cannot scale and is
  // reported as such rather than failed.
  const bool qps_scaling_ok = hw <= 1 || qps_multi_best >= qps_1 * 0.9;

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_serve: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"micro_serve\",\n"
               "  \"kernel_arch\": \"%s\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"queries\": %zu,\n"
               "  \"requests_per_arm\": %d,\n"
               "  \"reps\": %d,\n"
               "  \"arms\": [\n",
               nn::KernelArchString(), hw, f.train.size(), kRequestsPerArm, reps);
  for (size_t i = 0; i < arms.size(); ++i) {
    AppendArmJson(out, arms[i], i + 1 == arms.size());
  }
  std::fprintf(out,
               "  ],\n"
               "  \"qps_scaling_ok\": %s\n"
               "}\n",
               qps_scaling_ok ? "true" : "false");
  std::fclose(out);

  std::printf(
      "serving: 1-client %.0f qps; best multi-client %.0f qps (%u hw threads,"
      " scaling ok: %s) -> %s\n",
      qps_1, qps_multi_best, hw, qps_scaling_ok ? "yes" : "NO", path.c_str());
  if (!qps_scaling_ok) {
    std::fprintf(stderr,
                 "micro_serve: multi-client throughput fell below 0.9x the"
                 " single-client qps on a %u-thread host\n",
                 hw);
  }
  return qps_scaling_ok;
}

}  // namespace

int main(int argc, char** argv) {
  return neo::bench::JsonBenchMain(argc, argv, "BENCH_serve.json", "--json-reps",
                                   /*count=*/3, WriteServeJson);
}
