// Serving-core tests: the single-client serving == inline-loop parity
// contract, concurrent inference on one shared network, shared-score-cache
// exactness under concurrency, RCU generation invalidation, retraining
// overlapped with serving, the engine memo's concurrent counter exactness,
// and the guarded-serve latency bound under fault injection. The asan/tsan
// CI arms run this whole file, so every test doubles as a race probe.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/neo.h"
#include "src/datagen/imdb_gen.h"
#include "src/query/builder.h"
#include "src/query/job_workload.h"
#include "src/serve/serving_core.h"

namespace neo::serve {
namespace {

using core::Neo;
using core::NeoConfig;
using engine::EngineKind;
using query::PredOp;
using query::Query;
using query::QueryBuilder;

class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::GenOptions opt;
    opt.scale = 0.05;
    ds_ = new datagen::Dataset(datagen::GenerateImdb(opt));
    featurizer_ = new featurize::Featurizer(ds_->schema, *ds_->db, {});
    wl_ = new query::Workload(query::MakeJobWorkload(ds_->schema, *ds_->db));
  }
  static void TearDownTestSuite() {
    delete wl_;
    delete featurizer_;
    delete ds_;
  }

  static NeoConfig SmallConfig(uint64_t seed = 7) {
    NeoConfig cfg;
    cfg.net.query_fc = {64, 32};
    cfg.net.tree_channels = {32, 16};
    cfg.net.head_fc = {16};
    cfg.net.adam.lr = 1e-3f;
    cfg.epochs_per_episode = 4;
    cfg.batch_size = 32;
    cfg.search.max_expansions = 40;
    cfg.seed = seed;
    return cfg;
  }

  /// A small spread of workload queries (every 19th JOB variant).
  static std::vector<const Query*> TrainSet() {
    std::vector<const Query*> train;
    for (size_t i = 0; i < wl_->size(); i += 19) train.push_back(&wl_->query(i));
    return train;
  }

  /// A bootstrapped Neo plus its private engine — twin rigs built from the
  /// same config are bit-identical (same net seed, same expert baselines).
  struct Rig {
    std::unique_ptr<engine::ExecutionEngine> engine;
    std::unique_ptr<Neo> neo;
  };
  static Rig MakeRig(const std::vector<const Query*>& train, const NeoConfig& cfg) {
    Rig r;
    r.engine = std::make_unique<engine::ExecutionEngine>(ds_->schema, *ds_->db,
                                                         EngineKind::kPostgres);
    r.neo = std::make_unique<Neo>(featurizer_, r.engine.get(), cfg);
    auto native =
        optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
    r.neo->Bootstrap(train, native.optimizer.get());
    return r;
  }

  static datagen::Dataset* ds_;
  static featurize::Featurizer* featurizer_;
  static query::Workload* wl_;
};

datagen::Dataset* ServeFixture::ds_ = nullptr;
featurize::Featurizer* ServeFixture::featurizer_ = nullptr;
query::Workload* ServeFixture::wl_ = nullptr;

// ---- Single-client parity (the acceptance contract) ------------------------

TEST_F(ServeFixture, SingleClientServingBitIdenticalToInlineGuardedLoop) {
  const std::vector<const Query*> train = TrainSet();
  ASSERT_GE(train.size(), 5u);
  NeoConfig cfg = SmallConfig();
  cfg.guards.watchdog.baseline_factor = 4.0;
  cfg.guards.breaker.enabled = true;
  cfg.guards.health.enabled = true;

  // Twin A: the pre-serving inline loop (plan + guarded execute + learn).
  Rig a = MakeRig(train, cfg);
  std::vector<double> inline_lat;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Query* q : train) inline_lat.push_back(a.neo->ExecuteAndLearn(*q));
  }

  // Twin B: the same requests through a single-worker serving core (RCU
  // snapshot + shared score cache installed, both of which must be
  // transparent).
  Rig b = MakeRig(train, cfg);
  std::vector<double> served_lat;
  {
    ServingOptions sopt;
    sopt.workers = 1;
    sopt.search = cfg.search;
    ServingCore core(b.neo.get(), sopt);
    for (int pass = 0; pass < 2; ++pass) {
      for (const Query* q : train) {
        served_lat.push_back(core.ServeSync(*q, /*learn=*/true).latency_ms);
      }
    }
  }

  ASSERT_EQ(inline_lat.size(), served_lat.size());
  for (size_t i = 0; i < inline_lat.size(); ++i) {
    EXPECT_EQ(inline_lat[i], served_lat[i]) << "request " << i;  // Bitwise.
  }
  EXPECT_EQ(a.neo->experience().NumStates(), b.neo->experience().NumStates());
  for (const Query* q : train) {
    EXPECT_EQ(a.neo->experience().BestCost(*q), b.neo->experience().BestCost(*q));
  }
  const core::GuardStats ga = a.neo->guard_stats();
  const core::GuardStats gb = b.neo->guard_stats();
  EXPECT_EQ(ga.learned_serves, gb.learned_serves);
  EXPECT_EQ(ga.fallback_serves, gb.fallback_serves);
  EXPECT_EQ(ga.timeouts, gb.timeouts);
  EXPECT_EQ(a.engine->num_executions(), b.engine->num_executions());
}

// ---- Concurrent serving matches the serial reference -----------------------

TEST_F(ServeFixture, ConcurrentServingMatchesSerialReference) {
  const std::vector<const Query*> train = TrainSet();
  const NeoConfig cfg = SmallConfig();

  // Serial reference on twin A: plan + guarded serve, no learning — so the
  // per-query outcome is order-independent and comparable request-by-request.
  Rig a = MakeRig(train, cfg);
  std::map<int, std::pair<double, uint64_t>> expected;  // id -> (latency, hash)
  for (const Query* q : train) {
    const core::SearchResult r = a.neo->search().FindPlan(*q, cfg.search);
    const double lat = a.neo->Serve(*q, r.plan, /*learn=*/false);
    expected[q->id] = {lat, r.plan.Hash()};
  }

  Rig b = MakeRig(train, cfg);
  ServingOptions sopt;
  sopt.workers = 4;
  sopt.search = cfg.search;
  ServingCore core(b.neo.get(), sopt);
  constexpr int kPasses = 4;
  std::vector<std::pair<const Query*, std::future<ServeResult>>> inflight;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const Query* q : train) {
      inflight.emplace_back(q, core.Submit(*q, /*learn=*/false));
    }
  }
  for (auto& [q, fut] : inflight) {
    const ServeResult r = fut.get();
    const auto& [lat, hash] = expected.at(q->id);
    EXPECT_EQ(r.latency_ms, lat) << "query " << q->id;   // Bitwise.
    EXPECT_EQ(r.plan_hash, hash) << "query " << q->id;
    EXPECT_EQ(r.generation, 1u);
    EXPECT_GE(r.total_ms, r.plan_ms);
  }

  const ServingStats stats = core.stats();
  EXPECT_EQ(stats.requests, train.size() * kPasses);
  EXPECT_EQ(stats.total_latency.count(), train.size() * kPasses);
  EXPECT_EQ(stats.generation, 1u);
  // Repeat passes of identical queries must hit the shared score cache.
  EXPECT_GT(stats.score_cache.hits, 0u);
  // The searches' subtree-table rows, served and computed, surface through
  // the serving stats.
  EXPECT_GT(stats.activation_cache.hits, 0u);
  EXPECT_GT(stats.activation_cache.misses, 0u);
}

// ---- Concurrent inference on one shared network ----------------------------

TEST_F(ServeFixture, ConcurrentEmbedAndSearchOnFreshNetworkMatchesSerialTwin) {
  // Inference writes only caller-owned scratch, so several threads embedding
  // queries and searching plans against ONE freshly built network — no
  // inference has run on it yet, so every first use (pack buffers, the
  // inference weight split) happens concurrently — must reproduce a serial
  // twin's embeddings and search results bit for bit. Under ThreadSanitizer
  // this is the race probe for the query stack's GEMM pack buffers, which
  // every serving worker and episode planner embeds through.
  nn::ValueNetConfig cfg;
  cfg.query_dim = featurizer_->query_dim();
  cfg.plan_dim = featurizer_->plan_dim();
  cfg.query_fc = {32, 16};
  cfg.tree_channels = {16, 8};
  cfg.head_fc = {8};
  cfg.seed = 9;
  constexpr size_t kThreads = 4;
  std::vector<const Query*> queries;
  for (size_t t = 0; t < kThreads; ++t) queries.push_back(&wl_->query(t * 13));
  core::SearchOptions opt;
  opt.max_expansions = 20;

  nn::ValueNetwork twin(cfg);
  std::vector<nn::Matrix> want_embed;
  std::vector<core::SearchResult> want;
  for (const Query* q : queries) {
    want_embed.push_back(twin.EmbedQuery(featurizer_->EncodeQuery(*q)));
    core::PlanSearch search(featurizer_, &twin);
    want.push_back(search.FindPlan(*q, opt));
  }

  nn::ValueNetwork net(cfg);
  std::vector<nn::Matrix> got_embed(kThreads);
  std::vector<core::SearchResult> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Query& q = *queries[t];
      got_embed[t] = net.EmbedQuery(featurizer_->EncodeQuery(q));
      core::PlanSearch search(featurizer_, &net);
      got[t] = search.FindPlan(q, opt);
    });
  }
  for (std::thread& th : threads) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got_embed[t].cols(), want_embed[t].cols());
    for (int c = 0; c < want_embed[t].cols(); ++c) {
      EXPECT_EQ(got_embed[t].At(0, c), want_embed[t].At(0, c))  // Bitwise.
          << "query " << t << " channel " << c;
    }
    EXPECT_TRUE(got[t].plan.IsComplete());
    EXPECT_EQ(got[t].plan.Hash(), want[t].plan.Hash()) << "query " << t;
    EXPECT_EQ(got[t].predicted_cost, want[t].predicted_cost) << "query " << t;
    EXPECT_EQ(got[t].expansions, want[t].expansions) << "query " << t;
    EXPECT_EQ(got[t].evaluations, want[t].evaluations) << "query " << t;
  }
}

// ---- Shared score cache ----------------------------------------------------

TEST_F(ServeFixture, SharedCachesStayExactAcrossConcurrentSameQuerySearches) {
  const std::vector<const Query*> train = TrainSet();
  const NeoConfig cfg = SmallConfig();
  const Query& q = *train[0];

  // Isolated reference: a fresh unbound search on the primary net.
  Rig ref = MakeRig(train, cfg);
  core::PlanSearch isolated(featurizer_, &ref.neo->net());
  const core::SearchResult solo = isolated.FindPlan(q, cfg.search);

  Rig b = MakeRig(train, cfg);
  ServingOptions sopt;
  sopt.workers = 2;
  sopt.search = cfg.search;
  ServingCore core(b.neo.get(), sopt);
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(core.Submit(q, /*learn=*/false));
  for (std::future<ServeResult>& f : futures) {
    const ServeResult r = f.get();
    EXPECT_EQ(r.plan_hash, solo.plan.Hash());
    EXPECT_EQ(r.predicted_cost, solo.predicted_cost);  // Bitwise.
  }
  // By the later requests the shared score cache is warm (two workers, so
  // request 16 starts after >= 14 finished inserting).
  EXPECT_GT(core.stats().score_cache.hits, 0u);
}

TEST_F(ServeFixture, PublishedGenerationInvalidatesWithoutStaleScores) {
  const std::vector<const Query*> train = TrainSet();
  const NeoConfig cfg = SmallConfig();
  const Query& q = *train[1];

  Rig b = MakeRig(train, cfg);
  ServingOptions sopt;
  sopt.workers = 1;
  sopt.search = cfg.search;
  ServingCore core(b.neo.get(), sopt);

  const ServeResult before = core.ServeSync(q, /*learn=*/false);
  EXPECT_EQ(before.generation, 1u);

  // Retrain mutates the weights; the publish swaps serving onto them.
  core.RetrainAndPublish();
  const ServeResult after = core.ServeSync(q, /*learn=*/false);
  EXPECT_EQ(after.generation, 2u);

  // A fresh isolated search on the retrained primary net is the no-stale
  // oracle: if any generation-1 shared-cache entry leaked into the second
  // serve, its plan/score could not match this one bitwise.
  core::PlanSearch isolated(featurizer_, &b.neo->net());
  const core::SearchResult fresh = isolated.FindPlan(q, cfg.search);
  EXPECT_EQ(after.plan_hash, fresh.plan.Hash());
  EXPECT_EQ(after.predicted_cost, fresh.predicted_cost);  // Bitwise.
}

// ---- Retraining overlapped with serving ------------------------------------

TEST_F(ServeFixture, RetrainRunsConcurrentlyWithServing) {
  const std::vector<const Query*> train = TrainSet();
  const NeoConfig cfg = SmallConfig();
  Rig b = MakeRig(train, cfg);
  ServingOptions sopt;
  sopt.workers = 2;
  sopt.search = cfg.search;
  ServingCore core(b.neo.get(), sopt);

  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      size_t i = static_cast<size_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        const ServeResult r =
            core.ServeSync(*train[i % train.size()], /*learn=*/true);
        EXPECT_GT(r.latency_ms, 0.0);
        served.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }
  // Two background retrain+publish cycles while the clients hammer away.
  // The tsan CI arm turns any serving/retraining race into a failure here.
  // Wait for the first serve, so the retrains cannot finish before a client
  // thread has even started (on a busy host they did, and no serve ran).
  while (served.load() == 0) std::this_thread::yield();
  for (int r = 0; r < 2; ++r) core.RetrainAndPublish();
  stop.store(true);
  for (std::thread& t : clients) t.join();
  core.Drain();

  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(core.stats().generation, 3u);  // Ctor publish + two retrains.
}

TEST_F(ServeFixture, ExperienceStaysBoundedWhileRetrainsDrawEvictedQueries) {
  // More distinct fresh queries than experience holds, served with learning
  // by two workers while a background thread retrains back to back. Past the
  // cap every insert evicts a query that a running retrain may have just
  // drawn: the draw must keep it alive while it is encoded (the asan arm
  // turns a use-after-free here into a failure, the tsan arm a race).
  NeoConfig cfg = SmallConfig();
  cfg.search.max_expansions = 4;  // Cheap serves: experience is under test.
  cfg.max_train_samples = 256;
  cfg.epochs_per_episode = 2;
  Rig b = MakeRig(TrainSet(), cfg);
  const core::Experience& experience = b.neo->experience();
  const size_t states_before = experience.NumStates();

  constexpr size_t kCap = core::Experience::kMaxQueries;
  std::vector<Query> fresh;
  fresh.reserve(kCap + 768);
  for (size_t i = 0; fresh.size() < kCap + 768; ++i) {
    QueryBuilder qb(ds_->schema, *ds_->db, "fresh");
    qb.JoinFk("movie_keyword", "keyword")
        .PredStr("keyword", "keyword", PredOp::kContains, "k" + std::to_string(i));
    fresh.push_back(qb.Build());
  }

  ServingOptions sopt;
  sopt.workers = 2;
  sopt.search = cfg.search;
  ServingCore core(b.neo.get(), sopt);
  std::atomic<bool> done{false};
  std::atomic<int> retrains{0};
  std::thread retrainer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      core.RetrainAndPublish();
      retrains.fetch_add(1, std::memory_order_relaxed);
    }
  });
  constexpr size_t kChunk = 256;
  for (size_t begin = 0; begin < fresh.size(); begin += kChunk) {
    std::vector<std::future<ServeResult>> futures;
    for (size_t i = begin; i < std::min(fresh.size(), begin + kChunk); ++i) {
      futures.push_back(core.Submit(fresh[i], /*learn=*/true));
    }
    for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
    // Every serve of the chunk has returned, so no insert is running.
    EXPECT_LE(experience.NumQueries(), kCap);
  }
  done.store(true);
  retrainer.join();
  core.Drain();

  EXPECT_EQ(experience.NumQueries(), kCap);
  EXPECT_GT(experience.NumStates(), states_before);
  EXPECT_GE(retrains.load(), 2);
}

// ---- Engine memo exactness under concurrency (satellite a) -----------------

TEST_F(ServeFixture, EngineMemoCountersExactUnderConcurrentExecutes) {
  auto native =
      optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
  const std::vector<const Query*> train = TrainSet();
  constexpr int kPlans = 4;
  std::vector<const Query*> queries(train.begin(), train.begin() + kPlans);
  std::vector<plan::PartialPlan> plans;
  std::vector<double> serial;
  {
    engine::ExecutionEngine probe(ds_->schema, *ds_->db, EngineKind::kPostgres);
    for (const Query* q : queries) {
      plans.push_back(native.optimizer->Optimize(*q));
      serial.push_back(probe.ExecutePlan(*q, plans.back()));
    }
  }

  engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        for (int p = 0; p < kPlans; ++p) {
          const double lat =
              engine.ExecutePlan(*queries[static_cast<size_t>(p)],
                                 plans[static_cast<size_t>(p)]);
          if (lat != serial[static_cast<size_t>(p)]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  const size_t total = static_cast<size_t>(kThreads) * kIters * kPlans;
  EXPECT_EQ(engine.num_executions(), total);
  // The whole-body lock makes the memo probe-or-compute atomic: each plan
  // misses exactly once, every other execution hits.
  EXPECT_EQ(engine.latency_cache_misses(), static_cast<size_t>(kPlans));
  EXPECT_EQ(engine.latency_cache_hits(), total - kPlans);
  EXPECT_EQ(engine.latency_cache_evictions(), 0u);
  EXPECT_EQ(engine.num_distinct_plans(), static_cast<size_t>(kPlans));
}

// ---- Guarded bound under faults, concurrently (faults-arm coverage) --------

TEST_F(ServeFixture, ConcurrentGuardedServesStayWithinWatchdogBound) {
  const std::vector<const Query*> train = TrainSet();
  constexpr double kFactor = 2.0;
  NeoConfig cfg = SmallConfig();
  cfg.guards.watchdog.baseline_factor = kFactor;
  cfg.guards.breaker.enabled = true;
  cfg.guards.breaker.trip_after = 1;

  Rig b = MakeRig(train, cfg);
  util::FaultInjectorConfig fcfg;
  fcfg.enabled = true;
  fcfg.seed = 23;
  fcfg.latency_spike_p = 0.3;
  fcfg.latency_spike_factor = 40.0;
  util::FaultInjector injector(fcfg);
  b.engine->SetFaultInjector(&injector);

  {
    ServingOptions sopt;
    sopt.workers = 4;
    sopt.search = cfg.search;
    ServingCore core(b.neo.get(), sopt);
    std::vector<std::pair<const Query*, std::future<ServeResult>>> inflight;
    for (int pass = 0; pass < 4; ++pass) {
      for (const Query* q : train) {
        inflight.emplace_back(q, core.Submit(*q, /*learn=*/true));
      }
    }
    for (auto& [q, fut] : inflight) {
      const ServeResult r = fut.get();
      // Structural bound: learned or fallback, every serve is clipped at
      // kFactor x the query's expert baseline, faults notwithstanding.
      EXPECT_LE(r.latency_ms, kFactor * b.neo->Baseline(q->id) * (1.0 + 1e-9))
          << "query " << q->id;
    }
    EXPECT_GE(b.neo->guard_stats().timeouts, 1);
  }
  b.engine->SetFaultInjector(nullptr);
}

// ---- Experience-store integration ------------------------------------------

namespace {
/// Scratch dir for durable-store serving tests (mirrors store_test's helper).
class StoreTempDir {
 public:
  StoreTempDir() {
    char buf[] = "/tmp/neo_serve_store_XXXXXX";
    const char* p = ::mkdtemp(buf);
    EXPECT_NE(p, nullptr);
    path_ = p != nullptr ? p : "/tmp";
  }
  ~StoreTempDir() {
    for (const char* f : {"/wal.log", "/snapshot.bin", "/snapshot.bin.tmp"}) {
      ::unlink((path_ + f).c_str());
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};
}  // namespace

TEST_F(ServeFixture, StoreObserveOnlyServingIsBitIdenticalToStoreless) {
  // A store in learn mode (the steady state for fresh types) observes every
  // serve but never redirects one: serving with it attached must be bitwise
  // the storeless path. This is the store-disabled parity contract from the
  // other side.
  const std::vector<const Query*> train = TrainSet();
  const NeoConfig cfg = SmallConfig();

  Rig a = MakeRig(train, cfg);
  std::vector<double> plain_lat;
  {
    ServingOptions sopt;
    sopt.workers = 1;
    sopt.search = cfg.search;
    ServingCore core(a.neo.get(), sopt);
    for (int pass = 0; pass < 2; ++pass) {
      for (const Query* q : train) {
        plain_lat.push_back(core.ServeSync(*q, /*learn=*/true).latency_ms);
      }
    }
  }

  Rig b = MakeRig(train, cfg);
  store::ExperienceStore store{store::StoreOptions{}};  // In-memory.
  ASSERT_TRUE(store.Open().ok());
  {
    ServingOptions sopt;
    sopt.workers = 1;
    sopt.search = cfg.search;
    sopt.store = &store;
    ServingCore core(b.neo.get(), sopt);
    for (size_t i = 0; i < plain_lat.size(); ++i) {
      const Query& q = *train[i % train.size()];
      const ServeResult r = core.ServeSync(q, /*learn=*/true);
      EXPECT_EQ(r.latency_ms, plain_lat[i]) << "request " << i;  // Bitwise.
      EXPECT_FALSE(r.served_from_store);
    }
    EXPECT_EQ(store.NumTypes(), train.size());
    EXPECT_EQ(core.stats().store_pinned_serves, 0u);
  }
  // Every serve was observed even though none was redirected.
  EXPECT_EQ(store.stats().observations, plain_lat.size());
}

TEST_F(ServeFixture, ExploitModeServesPinnedPlanWithoutSearch) {
  const std::vector<const Query*> train = TrainSet();
  const NeoConfig cfg = SmallConfig();
  const Query& q = *train[0];

  Rig b = MakeRig(train, cfg);
  store::ExperienceStore store{store::StoreOptions{}};
  ASSERT_TRUE(store.Open().ok());
  ServingOptions sopt;
  sopt.workers = 1;
  sopt.search = cfg.search;
  sopt.store = &store;
  ServingCore core(b.neo.get(), sopt);

  // First serve goes through search and captures the type's best plan.
  const ServeResult learned = core.ServeSync(q, /*learn=*/true);
  EXPECT_FALSE(learned.served_from_store);
  store::TypeView v;
  ASSERT_TRUE(store.ViewOf(q.type_hash, &v));
  ASSERT_TRUE(v.has_best);
  EXPECT_EQ(v.best_plan_hash, learned.plan_hash);

  // Operator pins the type: subsequent serves skip search entirely and
  // execute the best-known plan at the identical memoized latency.
  ASSERT_TRUE(store.SetMode(q.type_hash, store::TypeMode::kExploit).ok());
  const ServeResult pinned = core.ServeSync(q, /*learn=*/true);
  EXPECT_TRUE(pinned.served_from_store);
  EXPECT_EQ(pinned.plan_hash, learned.plan_hash);
  EXPECT_EQ(pinned.latency_ms, learned.latency_ms);  // Bitwise (memoized).
  EXPECT_EQ(pinned.plan_ms, 0.0);                    // No search ran.
  EXPECT_EQ(static_cast<double>(pinned.predicted_cost),
            static_cast<double>(static_cast<float>(v.best_latency_ms)));

  EXPECT_EQ(core.stats().store_pinned_serves, 1u);
  const store::StoreStats st = store.stats();
  EXPECT_GE(st.exploit_serves, 1u);
  EXPECT_GE(st.mode_transitions, 1u);
  EXPECT_GE(store.NumTypes(), 1u);
}

TEST_F(ServeFixture, StopUnderLoadDrainsInFlightAndMakesObservationsDurable) {
  // Graceful-shutdown contract: Stop() accepts no new work but finishes every
  // queued + in-flight request and flushes the store WAL before joining, so a
  // restart recovers ALL accepted observations.
  const std::vector<const Query*> train = TrainSet();
  const NeoConfig cfg = SmallConfig();
  StoreTempDir tmp;
  store::StoreOptions stopt;
  stopt.dir = tmp.path();

  Rig b = MakeRig(train, cfg);
  size_t submitted = 0;
  {
    store::ExperienceStore store(stopt);
    ASSERT_TRUE(store.Open().ok());
    ServingOptions sopt;
    sopt.workers = 4;
    sopt.search = cfg.search;
    sopt.store = &store;
    sopt.store_sync_every = 1 << 20;  // Force Stop() to pay the final sync.
    ServingCore core(b.neo.get(), sopt);
    std::vector<std::future<ServeResult>> inflight;
    for (int pass = 0; pass < 4; ++pass) {
      for (const Query* q : train) {
        inflight.push_back(core.Submit(*q, /*learn=*/true));
        ++submitted;
      }
    }
    core.Stop();  // While most of the queue is still pending.
    for (std::future<ServeResult>& f : inflight) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
      EXPECT_GT(f.get().latency_ms, 0.0);
    }
    EXPECT_EQ(store.stats().observations, submitted);
  }

  // Restart: every accepted request's observation is in the recovered state.
  store::ExperienceStore reopened(stopt);
  const util::Status s = reopened.Open();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(reopened.NumTypes(), train.size());
  uint64_t recovered_serves = 0;
  for (const store::TypeView& v : reopened.View()) recovered_serves += v.serves;
  EXPECT_EQ(recovered_serves, submitted);
}

}  // namespace
}  // namespace neo::serve
