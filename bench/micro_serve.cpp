// Serving-core micro-benchmarks + the BENCH_serve.json concurrency report.
//
// The JSON measurement drives a ServingCore over a JOB subset with closed-loop
// clients and reports, per arm (client count):
//   qps, p50/p95/p99 request latency (from the serving histograms), and the
//   shared-cache counters — so the scaling curve and the cache hit rates are
//   both visible. Two acceptance probes ride along:
//   single_client_bit_identical - a one-worker serving loop replays the exact
//               latencies of the inline plan+execute+learn loop on a twin Neo
//               (the RCU snapshot and the shared score cache must both be
//               bit-transparent), and
//   retrain_overlap - background RetrainAndPublish cycles run while a client
//               hammers the core; serving must keep completing during them.
// qps scaling is reported honestly against hardware_threads: on a single-
// hardware-thread host the multi-client curve is flat by construction, and
// qps_scaling_ok accounts for that instead of faking a speedup.
//
// The google-benchmark suite runs after the JSON measurement; pass
// --benchmark_filter etc. as usual.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/neo.h"
#include "src/datagen/imdb_gen.h"
#include "src/query/job_workload.h"
#include "src/serve/serving_core.h"
#include "src/store/experience_store.h"
#include "src/util/alloc_counter.h"
#include "src/util/fault_injector.h"
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

/// Steady-state allocation probe over the serving scoring path: a warmed
/// PlanSearch bound to a score cache at the serving defaults, alternating
/// over a few queries under a fresh weight generation per search, so every
/// search re-salts and does full NN work (as a never-seen serve-cold query
/// does) while all buffers sit at capacity. RegionAllocs() counts mallocs
/// inside ScoreAll's scoring rounds only (intern, featurize, conv, pool,
/// head).
struct SteadyState {
  uint64_t heap_allocs = 0;
  size_t table_peak_bytes = 0;
  bool counter_active = false;
};

SteadyState MeasureSteadyState() {
  Fixture& f = Fixture::Get();
  const core::NeoConfig cfg = Fixture::Config();
  Rig rig = MakeRig(cfg);
  rig.neo->Retrain();
  util::ScoreCache cache(serve::ServingOptions().shared_score_cap,
                         serve::kScoreCacheStripes);
  core::PlanSearch search(f.feat.get(), &rig.neo->net());
  uint64_t generation = 0;
  const size_t rotation = std::min<size_t>(4, f.train.size());
  for (size_t i = 0; i < 3 * rotation; ++i) {
    search.BindScoreCache(&cache, ++generation);
    search.FindPlan(*f.train[i % rotation], cfg.search);
  }
  search.BindScoreCache(&cache, ++generation);
  util::ArmAllocCounter(true);
  util::ResetRegionAllocs();
  search.FindPlan(*f.train[0], cfg.search);
  SteadyState out;
  out.heap_allocs = util::RegionAllocs();
  util::ArmAllocCounter(false);
  out.table_peak_bytes = search.subtree_table_peak_bytes();
  out.counter_active = util::AllocCounterActive();
  return out;
}

/// Acceptance probe: a one-worker serving loop must replay the inline
/// guarded plan+execute+learn loop bit-for-bit on a twin Neo.
bool SingleClientBitIdentical() {
  Fixture& f = Fixture::Get();
  core::NeoConfig cfg = Fixture::Config();
  cfg.guards.watchdog.baseline_factor = 4.0;
  cfg.guards.breaker.enabled = true;
  cfg.guards.health.enabled = true;

  Rig inline_rig = MakeRig(cfg);
  std::vector<double> inline_lat;
  for (int pass = 0; pass < 2; ++pass) {
    for (const query::Query* q : f.train) {
      inline_lat.push_back(inline_rig.neo->ExecuteAndLearn(*q));
    }
  }

  Rig served_rig = MakeRig(cfg);
  std::vector<double> served_lat;
  {
    serve::ServingOptions sopt;
    sopt.workers = 1;
    sopt.search = cfg.search;
    serve::ServingCore core(served_rig.neo.get(), sopt);
    for (int pass = 0; pass < 2; ++pass) {
      for (const query::Query* q : f.train) {
        served_lat.push_back(core.ServeSync(*q, /*learn=*/true).latency_ms);
      }
    }
  }
  return inline_lat == served_lat;
}

struct RetrainOverlap {
  int retrains = 0;
  uint64_t serves_during_retrain = 0;
  uint64_t final_generation = 0;
  double qps = 0.0;
};

/// Clients hammer the core while the main thread runs retrain+publish
/// cycles; counts how many serves complete inside the retrain window.
RetrainOverlap MeasureRetrainOverlap() {
  Fixture& f = Fixture::Get();
  const core::NeoConfig cfg = Fixture::Config();
  Rig rig = MakeRig(cfg);
  serve::ServingOptions sopt;
  sopt.workers = 2;
  sopt.search = cfg.search;
  serve::ServingCore core(rig.neo.get(), sopt);
  for (const query::Query* q : f.train) core.ServeSync(*q, /*learn=*/false);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      size_t i = static_cast<size_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        core.ServeSync(*f.train[i % f.train.size()], /*learn=*/true);
        served.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  RetrainOverlap r;
  r.retrains = 2;
  util::Stopwatch watch;
  const uint64_t before = served.load();
  for (int i = 0; i < r.retrains; ++i) core.RetrainAndPublish();
  r.serves_during_retrain = served.load() - before;
  const double retrain_secs = watch.ElapsedSeconds();
  stop.store(true);
  for (std::thread& t : clients) t.join();
  core.Drain();
  r.final_generation = core.stats().generation;
  r.qps = retrain_secs > 0 ? static_cast<double>(r.serves_during_retrain) / retrain_secs
                           : 0.0;
  return r;
}

/// Experience-store serving arm (the adaptive-mode path): serve the train
/// set through a store-attached core until types learn their best plans,
/// manually pin one type, and report the per-type counters the serving stats
/// surface — so mode behavior is visible in the bench report, not just in
/// tests.
struct StoreServing {
  bool ran = false;
  uint64_t types_tracked = 0;
  uint64_t mode_transitions = 0;
  uint64_t exploit_serves = 0;
  uint64_t drift_demotions = 0;
  uint64_t pinned_serves = 0;
  uint64_t wal_records = 0;
  double pinned_qps = 0.0;
};

StoreServing MeasureStoreServing() {
  Fixture& f = Fixture::Get();
  const core::NeoConfig cfg = Fixture::Config();
  Rig rig = MakeRig(cfg);
  store::ExperienceStore store{store::StoreOptions{}};  // In-memory.
  if (!store.Open().ok()) return {};

  StoreServing r;
  serve::ServingOptions sopt;
  sopt.workers = 2;
  sopt.search = cfg.search;
  sopt.store = &store;
  serve::ServingCore core(rig.neo.get(), sopt);
  // Learn phase: every type records serves and captures its best plan.
  for (int pass = 0; pass < 2; ++pass) {
    for (const query::Query* q : f.train) core.ServeSync(*q, /*learn=*/true);
  }
  // Pin every type that captured a best plan, then measure pinned serving
  // (search skipped entirely — the store's fast path).
  size_t pinned_types = 0;
  for (const query::Query* q : f.train) {
    if (store.SetMode(q->type_hash, store::TypeMode::kExploit).ok()) {
      ++pinned_types;
    }
  }
  constexpr int kPinnedRequests = 256;
  util::Stopwatch watch;
  for (int i = 0; i < kPinnedRequests; ++i) {
    core.ServeSync(*f.train[static_cast<size_t>(i) % f.train.size()],
                   /*learn=*/true);
  }
  const double secs = watch.ElapsedSeconds();
  core.Drain();

  const serve::ServingStats stats = core.stats();
  r.ran = pinned_types > 0;
  r.types_tracked = stats.store_types_tracked;
  r.mode_transitions = stats.store_mode_transitions;
  r.exploit_serves = stats.store_exploit_serves;
  r.drift_demotions = stats.store_drift_demotions;
  r.pinned_serves = stats.store_pinned_serves;
  r.wal_records = stats.store_wal_records;
  r.pinned_qps = secs > 0 ? kPinnedRequests / secs : 0.0;
  return r;
}

/// Overload arm: a 10x-the-cap burst against one deliberately stalled worker,
/// with deadline-aware admission on — then the identical burst with admission
/// OFF as the contrast. The acceptance bound this surfaces (and CI greps):
/// every served request's queue wait stayed within its deadline (structural —
/// expired requests are dropped at pickup, never executed), no future was
/// abandoned, and the queue never grew past its cap; the no-admission
/// baseline blows straight through that cap on the same trace.
struct OverloadArm {
  bool ran = false;
  uint64_t submitted = 0;
  uint64_t served = 0;
  uint64_t abandoned_futures = 0;
  bool bound_satisfied = false;
  double deadline_ms = 0.0;
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double served_queue_wait_max_ms = 0.0;
  size_t queue_cap = 0;
  size_t queue_depth_hwm = 0;
  size_t baseline_hwm = 0;  ///< Same burst, admission disabled.
  serve::ServingStats stats;
};

OverloadArm MeasureOverload() {
  Fixture& f = Fixture::Get();
  const core::NeoConfig cfg = Fixture::Config();
  Rig rig = MakeRig(cfg);
  rig.neo->Retrain();

  util::FaultInjectorConfig fcfg;
  fcfg.enabled = true;
  fcfg.seed = 29;
  fcfg.serve_stall_p = 1.0;  // Every serve stalls 1ms: sustained overload.
  fcfg.serve_stall_ms = 1.0;

  OverloadArm r;
  r.queue_cap = 32;
  r.deadline_ms = 250.0;
  const int kBurst = static_cast<int>(r.queue_cap) * 10;

  auto burst = [&](serve::ServingCore* core) {
    std::vector<std::future<serve::ServeResult>> futures;
    futures.reserve(static_cast<size_t>(kBurst));
    for (int i = 0; i < kBurst; ++i) {
      futures.push_back(core->Submit(
          *f.train[static_cast<size_t>(i) % f.train.size()], /*learn=*/false));
    }
    return futures;
  };

  {
    util::FaultInjector chaos(fcfg);
    serve::ServingOptions sopt;
    sopt.workers = 1;
    sopt.search = cfg.search;
    sopt.fault_injector = &chaos;
    sopt.admission.enabled = true;
    sopt.admission.queue_cap = r.queue_cap;
    sopt.admission.default_deadline_ms = r.deadline_ms;
    serve::ServingCore core(rig.neo.get(), sopt);

    std::vector<std::future<serve::ServeResult>> futures = burst(&core);
    core.Drain();
    bool within_deadline = true;
    for (std::future<serve::ServeResult>& fu : futures) {
      if (fu.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
        ++r.abandoned_futures;  // Should be structurally impossible.
        continue;
      }
      const serve::ServeResult res = fu.get();
      if (res.status.ok()) {
        if (res.queue_ms > r.deadline_ms) within_deadline = false;
        r.served_queue_wait_max_ms =
            std::max(r.served_queue_wait_max_ms, res.queue_ms);
      }
    }
    r.stats = core.stats();
    r.submitted = r.stats.requests;
    r.served = r.stats.total_latency.count();
    r.queue_depth_hwm = r.stats.queue_depth_hwm;
    r.queue_wait_p50_ms = r.stats.queue_wait.Percentile(50);
    r.queue_wait_p99_ms = r.stats.queue_wait.Percentile(99);
    r.bound_satisfied = within_deadline && r.abandoned_futures == 0 &&
                        r.queue_depth_hwm <= r.queue_cap && r.served > 0;
  }

  // The contrast: the same burst with admission disabled has no cap and no
  // deadline — the backlog (and so tail queue wait) grows with the burst.
  {
    util::FaultInjector chaos(fcfg);
    serve::ServingOptions bopt;
    bopt.workers = 1;
    bopt.search = cfg.search;
    bopt.fault_injector = &chaos;
    serve::ServingCore baseline(rig.neo.get(), bopt);
    std::vector<std::future<serve::ServeResult>> futures = burst(&baseline);
    for (std::future<serve::ServeResult>& fu : futures) fu.wait();
    baseline.Drain();
    r.baseline_hwm = baseline.stats().queue_depth_hwm;
  }
  r.ran = true;
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

void WriteServeJson(const std::string& path, int reps) {
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

  const bool bit_identical = SingleClientBitIdentical();
  const RetrainOverlap overlap = MeasureRetrainOverlap();
  const SteadyState steady = MeasureSteadyState();
  const StoreServing store_arm = MeasureStoreServing();
  const OverloadArm ov = MeasureOverload();
  const bool zero_alloc = !steady.counter_active || steady.heap_allocs == 0;

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_serve: cannot write %s\n", path.c_str());
    return;
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
               "  \"single_client_bit_identical\": %s,\n"
               "  \"qps_scaling_ok\": %s,\n"
               "  \"alloc_counter_active\": %s,\n"
               "  \"steady_state_heap_allocs\": %llu,\n"
               "  \"steady_state_zero_alloc\": %s,\n"
               "  \"subtree_table_peak_bytes\": %zu,\n"
               "  \"retrain_overlap\": {\"retrains\": %d,"
               " \"serves_during_retrain\": %llu, \"final_generation\": %llu,"
               " \"qps\": %.2f},\n"
               "  \"store\": {\"ran\": %s, \"store_types_tracked\": %llu,"
               " \"store_mode_transitions\": %llu,"
               " \"store_exploit_serves\": %llu,"
               " \"store_drift_demotions\": %llu,"
               " \"store_pinned_serves\": %llu, \"store_wal_records\": %llu,"
               " \"pinned_qps\": %.2f},\n"
               "  \"overload_bound_satisfied\": %s,\n"
               "  \"abandoned_futures\": %llu,\n"
               "  \"overload\": {\"submitted\": %llu, \"admitted\": %llu,"
               " \"served\": %llu, \"shed_admission\": %llu,"
               " \"shed_queue_full\": %llu, \"evicted_lower_priority\": %llu,"
               " \"expired_at_admission\": %llu, \"expired_in_queue\": %llu,"
               " \"worker_exceptions\": %llu, \"degraded_budget_serves\": %llu,"
               " \"degraded_pinned_serves\": %llu, \"ladder_transitions\": %llu,"
               " \"ladder_entries_l1\": %llu, \"ladder_entries_l2\": %llu,"
               " \"ladder_entries_l3\": %llu, \"deadline_ms\": %.1f,"
               " \"queue_wait_p50_ms\": %.4f, \"queue_wait_p99_ms\": %.4f,"
               " \"served_queue_wait_max_ms\": %.4f, \"queue_cap\": %zu,"
               " \"queue_depth_hwm\": %zu, \"no_admission_hwm\": %zu}\n"
               "}\n",
               bit_identical ? "true" : "false", qps_scaling_ok ? "true" : "false",
               steady.counter_active ? "true" : "false",
               static_cast<unsigned long long>(steady.heap_allocs),
               zero_alloc ? "true" : "false", steady.table_peak_bytes,
               overlap.retrains,
               static_cast<unsigned long long>(overlap.serves_during_retrain),
               static_cast<unsigned long long>(overlap.final_generation),
               overlap.qps, store_arm.ran ? "true" : "false",
               static_cast<unsigned long long>(store_arm.types_tracked),
               static_cast<unsigned long long>(store_arm.mode_transitions),
               static_cast<unsigned long long>(store_arm.exploit_serves),
               static_cast<unsigned long long>(store_arm.drift_demotions),
               static_cast<unsigned long long>(store_arm.pinned_serves),
               static_cast<unsigned long long>(store_arm.wal_records),
               store_arm.pinned_qps, ov.bound_satisfied ? "true" : "false",
               static_cast<unsigned long long>(ov.abandoned_futures),
               static_cast<unsigned long long>(ov.submitted),
               static_cast<unsigned long long>(ov.stats.admitted),
               static_cast<unsigned long long>(ov.served),
               static_cast<unsigned long long>(ov.stats.shed_admission),
               static_cast<unsigned long long>(ov.stats.shed_queue_full),
               static_cast<unsigned long long>(ov.stats.evicted_lower_priority),
               static_cast<unsigned long long>(ov.stats.expired_at_admission),
               static_cast<unsigned long long>(ov.stats.expired_in_queue),
               static_cast<unsigned long long>(ov.stats.worker_exceptions),
               static_cast<unsigned long long>(ov.stats.degraded_budget_serves),
               static_cast<unsigned long long>(ov.stats.degraded_pinned_serves),
               static_cast<unsigned long long>(ov.stats.ladder_transitions),
               static_cast<unsigned long long>(ov.stats.ladder_level_entries[1]),
               static_cast<unsigned long long>(ov.stats.ladder_level_entries[2]),
               static_cast<unsigned long long>(ov.stats.ladder_level_entries[3]),
               ov.deadline_ms, ov.queue_wait_p50_ms, ov.queue_wait_p99_ms,
               ov.served_queue_wait_max_ms, ov.queue_cap, ov.queue_depth_hwm,
               ov.baseline_hwm);
  std::fclose(out);

  std::printf(
      "serving: 1-client %.0f qps; best multi-client %.0f qps (%u hw threads,"
      " scaling ok: %s);"
      " single-client bit-identical: %s; steady-state allocs %llu"
      " (subtree table peak %zu B); %llu serves overlapped %d retrains"
      " (generation %llu); store arm: %llu types, %llu pinned serves at"
      " %.0f qps; overload: %llu/%llu served under a 10x burst (hwm %zu/cap"
      " %zu vs %zu unbounded, served-wait max %.1f ms vs %.0f ms deadline,"
      " bound %s, %llu abandoned) -> %s\n",
      qps_1, qps_multi_best, hw, qps_scaling_ok ? "yes" : "NO",
      bit_identical ? "yes" : "NO",
      static_cast<unsigned long long>(steady.heap_allocs), steady.table_peak_bytes,
      static_cast<unsigned long long>(overlap.serves_during_retrain),
      overlap.retrains, static_cast<unsigned long long>(overlap.final_generation),
      static_cast<unsigned long long>(store_arm.types_tracked),
      static_cast<unsigned long long>(store_arm.pinned_serves),
      store_arm.pinned_qps, static_cast<unsigned long long>(ov.served),
      static_cast<unsigned long long>(ov.submitted), ov.queue_depth_hwm,
      ov.queue_cap, ov.baseline_hwm, ov.served_queue_wait_max_ms,
      ov.deadline_ms, ov.bound_satisfied ? "yes" : "NO",
      static_cast<unsigned long long>(ov.abandoned_futures), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serve.json";
  bool filtered = false;
  bool json_requested = false;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json-out=", 0) == 0) {
      json_requested = true;
      json_path = arg.substr(std::string("--json-out=").size());
    } else if (arg == "--json-out") {
      json_requested = true;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        json_path = argv[++i];
      }
    } else if (arg.rfind("--json-reps=", 0) == 0) {
      reps = std::atoi(arg.substr(std::string("--json-reps=").size()).c_str());
      if (reps < 1) reps = 1;
    }
    if (arg.rfind("--benchmark_filter", 0) == 0) filtered = true;
  }
  if (!filtered || json_requested) WriteServeJson(json_path, reps);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
