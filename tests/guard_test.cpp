// Guardrail tests: watchdog deadlines, the per-query circuit breaker, the
// model-health monitor's snapshot/rollback, deterministic fault injection,
// and the bounded-worst-case acceptance contract (guarded workload latency
// stays within the watchdog factor of the expert baseline while an unguarded
// run under the same faults demonstrably regresses).
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/core/neo.h"
#include "src/datagen/imdb_gen.h"
#include "src/query/builder.h"
#include "src/query/job_workload.h"

namespace neo::core {
namespace {

using engine::EngineKind;
using query::PredOp;
using query::Query;
using query::QueryBuilder;

class GuardFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::GenOptions opt;
    opt.scale = 0.05;
    ds_ = new datagen::Dataset(datagen::GenerateImdb(opt));
    featurizer_ = new featurize::Featurizer(ds_->schema, *ds_->db, {});
  }
  static void TearDownTestSuite() {
    delete featurizer_;
    delete ds_;
  }
  static Query ThreeWay(int id) {
    QueryBuilder b(ds_->schema, *ds_->db, "gq3");
    b.JoinFk("movie_keyword", "title")
        .JoinFk("movie_keyword", "keyword")
        .PredStr("keyword", "keyword", PredOp::kContains, "love");
    Query q = b.Build();
    q.id = id;
    return q;
  }
  static NeoConfig SmallConfig(uint64_t seed = 7) {
    NeoConfig cfg;
    cfg.net.query_fc = {64, 32};
    cfg.net.tree_channels = {32, 16};
    cfg.net.head_fc = {16};
    cfg.net.adam.lr = 1e-3f;
    cfg.epochs_per_episode = 4;
    cfg.batch_size = 32;
    cfg.search.max_expansions = 60;
    cfg.seed = seed;
    return cfg;
  }
  static datagen::Dataset* ds_;
  static featurize::Featurizer* featurizer_;
};

datagen::Dataset* GuardFixture::ds_ = nullptr;
featurize::Featurizer* GuardFixture::featurizer_ = nullptr;

// ---- Circuit breaker state machine (pure unit tests) -----------------------

CircuitBreakerOptions BreakerOpts(int trip_after = 3, int cooldown = 2,
                                  int max_cooldown = 8) {
  CircuitBreakerOptions opt;
  opt.enabled = true;
  opt.trip_after = trip_after;
  opt.regression_factor = 1.5;
  opt.initial_cooldown = cooldown;
  opt.max_cooldown = max_cooldown;
  return opt;
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveRegressions) {
  CircuitBreaker b(BreakerOpts(/*trip_after=*/3));
  const uint64_t fp = 101;
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(b.AllowLearned(fp));
    b.RecordLearnedOutcome(fp, /*regressed=*/true);
    EXPECT_EQ(b.StateOf(fp), CircuitBreaker::State::kClosed);
  }
  EXPECT_TRUE(b.AllowLearned(fp));
  b.RecordLearnedOutcome(fp, /*regressed=*/true);
  EXPECT_EQ(b.StateOf(fp), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.stats().trips, 1u);
  EXPECT_FALSE(b.AllowLearned(fp));  // Open: fallback serve.
  EXPECT_EQ(b.stats().fallback_serves, 1u);
}

TEST(CircuitBreakerTest, NonRegressionResetsConsecutiveCounter) {
  CircuitBreaker b(BreakerOpts(/*trip_after=*/2));
  const uint64_t fp = 7;
  b.RecordLearnedOutcome(fp, true);
  b.RecordLearnedOutcome(fp, false);  // Resets the streak.
  b.RecordLearnedOutcome(fp, true);
  EXPECT_EQ(b.StateOf(fp), CircuitBreaker::State::kClosed);
  b.RecordLearnedOutcome(fp, true);
  EXPECT_EQ(b.StateOf(fp), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, CooldownProbeAndRecovery) {
  CircuitBreaker b(BreakerOpts(/*trip_after=*/1, /*cooldown=*/2));
  const uint64_t fp = 9;
  b.RecordLearnedOutcome(fp, true);  // Trips immediately.
  ASSERT_EQ(b.StateOf(fp), CircuitBreaker::State::kOpen);
  // Two fallback serves, then the half-open probe.
  EXPECT_FALSE(b.AllowLearned(fp));
  EXPECT_FALSE(b.AllowLearned(fp));
  EXPECT_TRUE(b.AllowLearned(fp));
  EXPECT_EQ(b.StateOf(fp), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(b.stats().probes, 1u);
  // Winning probe closes the breaker and resets the backoff.
  b.RecordLearnedOutcome(fp, false);
  EXPECT_EQ(b.StateOf(fp), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.stats().recoveries, 1u);
  EXPECT_TRUE(b.AllowLearned(fp));
}

TEST(CircuitBreakerTest, FailedProbesBackOffExponentiallyWithCap) {
  CircuitBreaker b(BreakerOpts(/*trip_after=*/1, /*cooldown=*/1, /*max_cooldown=*/4));
  const uint64_t fp = 5;
  b.RecordLearnedOutcome(fp, true);  // Open, cooldown 1.
  // Each failed probe doubles the cooldown: 1 -> 2 -> 4 -> 4 (capped).
  for (const int expected_cooldown : {1, 2, 4, 4, 4}) {
    for (int i = 0; i < expected_cooldown; ++i) {
      EXPECT_FALSE(b.AllowLearned(fp)) << "cooldown " << expected_cooldown;
    }
    EXPECT_TRUE(b.AllowLearned(fp));  // The probe.
    b.RecordLearnedOutcome(fp, true);  // Probe loses.
    EXPECT_EQ(b.StateOf(fp), CircuitBreaker::State::kOpen);
  }
  EXPECT_EQ(b.stats().trips, 1u);
  EXPECT_EQ(b.stats().reopens, 5u);
}

TEST(CircuitBreakerTest, FingerprintsAreIsolated) {
  CircuitBreaker b(BreakerOpts(/*trip_after=*/1));
  b.RecordLearnedOutcome(1, true);
  EXPECT_EQ(b.StateOf(1), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.StateOf(2), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.AllowLearned(2));
  EXPECT_EQ(b.num_tracked(), 2u);
}

TEST(CircuitBreakerTest, DisabledAlwaysServesLearned) {
  CircuitBreaker b;  // Default options: disabled.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(b.AllowLearned(3));
    b.RecordLearnedOutcome(3, true);
  }
  EXPECT_EQ(b.StateOf(3), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.stats().trips, 0u);
}

// ---- Fault injector --------------------------------------------------------

util::FaultInjectorConfig InjectorConfig(uint64_t seed) {
  util::FaultInjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = seed;
  cfg.latency_spike_p = 0.3;
  cfg.latency_spike_factor = 10.0;
  cfg.exec_failure_p = 0.2;
  cfg.weight_corruption_p = 0.5;
  return cfg;
}

TEST(FaultInjectorTest, DrawsAreDeterministicReplays) {
  util::FaultInjector a(InjectorConfig(99));
  util::FaultInjector b(InjectorConfig(99));
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = static_cast<uint64_t>(i % 7);
    EXPECT_EQ(a.PerturbLatency(key, 10.0), b.PerturbLatency(key, 10.0)) << i;
    EXPECT_EQ(a.DrawExecutionFailure(key), b.DrawExecutionFailure(key)) << i;
    EXPECT_EQ(a.DrawWeightCorruption(key), b.DrawWeightCorruption(key)) << i;
  }
  EXPECT_EQ(a.latency_spikes(), b.latency_spikes());
  EXPECT_EQ(a.execution_failures(), b.execution_failures());
  EXPECT_EQ(a.weight_corruptions(), b.weight_corruptions());
  EXPECT_GT(a.latency_spikes(), 0u);
  EXPECT_GT(a.execution_failures(), 0u);
  EXPECT_GT(a.weight_corruptions(), 0u);
}

TEST(FaultInjectorTest, PerKeyScheduleIndependentOfInterleaving) {
  // Key k's i-th draw must not depend on draws of other keys in between:
  // injection schedules replay per plan, whatever the serve order.
  util::FaultInjector grouped(InjectorConfig(4));
  std::vector<bool> grouped_draws;
  for (uint64_t key : {1ULL, 2ULL}) {
    for (int i = 0; i < 20; ++i) grouped_draws.push_back(grouped.DrawExecutionFailure(key));
  }
  util::FaultInjector interleaved(InjectorConfig(4));
  std::vector<bool> key1, key2;
  for (int i = 0; i < 20; ++i) {
    key2.push_back(interleaved.DrawExecutionFailure(2));
    key1.push_back(interleaved.DrawExecutionFailure(1));
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(key1[i], grouped_draws[i]) << i;
    EXPECT_EQ(key2[i], grouped_draws[20 + i]) << i;
  }
}

TEST(FaultInjectorTest, DisabledInjectsNothing) {
  util::FaultInjectorConfig cfg = InjectorConfig(1);
  cfg.enabled = false;
  util::FaultInjector inj(cfg);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(inj.PerturbLatency(3, 5.0), 5.0);
    EXPECT_FALSE(inj.DrawExecutionFailure(3));
    EXPECT_FALSE(inj.DrawWeightCorruption(3));
  }
  EXPECT_EQ(inj.latency_spikes(), 0u);
}

/// Scoped setenv that restores the previous value on destruction, so this
/// suite can run inside the CI fault arm (which itself sets NEO_FAULT_*)
/// without clobbering the arm's environment for later tests.
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

TEST(FaultInjectorTest, FromEnvParsesVariables) {
  ScopedEnv e1("NEO_FAULT_INJECT", "1");
  ScopedEnv e2("NEO_FAULT_SEED", "1234");
  ScopedEnv e3("NEO_FAULT_SPIKE_P", "0.5");
  ScopedEnv e4("NEO_FAULT_SPIKE_FACTOR", "25");
  ScopedEnv e5("NEO_FAULT_FAIL_P", "0.125");
  ScopedEnv e6("NEO_FAULT_CORRUPT_P", "0.75");
  const util::FaultInjectorConfig cfg = util::FaultInjectorConfig::FromEnv();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.seed, 1234u);
  EXPECT_DOUBLE_EQ(cfg.latency_spike_p, 0.5);
  EXPECT_DOUBLE_EQ(cfg.latency_spike_factor, 25.0);
  EXPECT_DOUBLE_EQ(cfg.exec_failure_p, 0.125);
  EXPECT_DOUBLE_EQ(cfg.weight_corruption_p, 0.75);
}

TEST(FaultInjectorTest, FromEnvDisabledByDefaultAndByZero) {
  {
    ScopedEnv e("NEO_FAULT_INJECT", nullptr);
    EXPECT_FALSE(util::FaultInjectorConfig::FromEnv().enabled);
  }
  {
    ScopedEnv e("NEO_FAULT_INJECT", "0");
    EXPECT_FALSE(util::FaultInjectorConfig::FromEnv().enabled);
  }
}

// ---- Engine watchdog + bounded latency cache -------------------------------

TEST_F(GuardFixture, WatchdogClipsLatencyAndReportsTimeout) {
  engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
  auto native = optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
  const Query q = ThreeWay(300);
  const plan::PartialPlan plan = native.optimizer->Optimize(q);
  const double full = engine.ExecutePlan(q, plan);
  ASSERT_GT(full, 0.0);

  engine::ExecutionEngine fresh(ds_->schema, *ds_->db, EngineKind::kPostgres);
  const engine::ExecutionResult r = fresh.ExecutePlanGuarded(q, plan, full * 0.5);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.status.code(), util::Status::Code::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(r.latency_ms, full * 0.5);
  EXPECT_DOUBLE_EQ(r.model_latency_ms, full);
  // The killed execution accrues only the deadline's worth of simulated time.
  EXPECT_DOUBLE_EQ(fresh.simulated_execution_ms(), full * 0.5);
  EXPECT_EQ(fresh.num_timeouts(), 1u);
}

TEST_F(GuardFixture, NoDeadlineMatchesUnguardedExecute) {
  engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
  auto native = optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
  const Query q = ThreeWay(301);
  const plan::PartialPlan plan = native.optimizer->Optimize(q);
  const double plain = engine.ExecutePlan(q, plan);
  const engine::ExecutionResult r = engine.ExecutePlanGuarded(q, plan, 0.0);
  EXPECT_FALSE(r.timed_out);
  EXPECT_TRUE(r.status.ok());
  EXPECT_DOUBLE_EQ(r.latency_ms, plain);
  // A generous deadline also leaves the result untouched.
  const engine::ExecutionResult r2 = engine.ExecutePlanGuarded(q, plan, plain * 100);
  EXPECT_FALSE(r2.timed_out);
  EXPECT_DOUBLE_EQ(r2.latency_ms, plain);
  EXPECT_EQ(engine.num_timeouts(), 0u);
}

TEST_F(GuardFixture, InjectedSpikeTriggersWatchdog) {
  engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
  auto native = optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
  const Query q = ThreeWay(302);
  const plan::PartialPlan plan = native.optimizer->Optimize(q);
  const double base = engine.ExecutePlan(q, plan);

  util::FaultInjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 11;
  cfg.latency_spike_p = 1.0;  // Every execution spikes.
  cfg.latency_spike_factor = 50.0;
  util::FaultInjector injector(cfg);
  engine.SetFaultInjector(&injector);
  // Deadline 2x the honest latency: only the spike can breach it.
  const engine::ExecutionResult r = engine.ExecutePlanGuarded(q, plan, base * 2.0);
  EXPECT_TRUE(r.timed_out);
  EXPECT_DOUBLE_EQ(r.latency_ms, base * 2.0);
  EXPECT_DOUBLE_EQ(r.model_latency_ms, base * 50.0);
  EXPECT_EQ(injector.latency_spikes(), 1u);
  engine.SetFaultInjector(nullptr);
}

TEST_F(GuardFixture, LatencyCacheIsBoundedAndRecomputesDeterministically) {
  engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
  auto native = optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
  const auto wl = query::MakeJobWorkload(ds_->schema, *ds_->db);
  const Query& qa = wl.query(0);
  const Query& qb = wl.query(1);
  const plan::PartialPlan pa = native.optimizer->Optimize(qa);
  const plan::PartialPlan pb = native.optimizer->Optimize(qb);

  engine.SetLatencyCacheCap(1);  // Room for a single memoized plan.
  const double a1 = engine.ExecutePlan(qa, pa);  // Miss.
  const double b1 = engine.ExecutePlan(qb, pb);  // Miss, evicts a.
  const double a2 = engine.ExecutePlan(qa, pa);  // Miss again (was evicted).
  EXPECT_EQ(engine.latency_cache_hits(), 0u);
  EXPECT_EQ(engine.latency_cache_misses(), 3u);
  EXPECT_EQ(engine.latency_cache_evictions(), 2u);
  EXPECT_EQ(engine.num_distinct_plans(), 1u);
  // The model is deterministic: eviction costs recomputation, never drift.
  EXPECT_DOUBLE_EQ(a1, a2);
  EXPECT_NE(a1, b1);

  // Re-executing the resident plan hits.
  engine.ExecutePlan(qa, pa);
  EXPECT_EQ(engine.latency_cache_hits(), 1u);
}

TEST_F(GuardFixture, DefaultLatencyCacheCapIsLarge) {
  engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
  EXPECT_EQ(engine::ExecutionEngine::kDefaultLatencyCacheCap, size_t{1} << 20);
  EXPECT_EQ(engine.latency_cache_evictions(), 0u);
}

// ---- NeoConfig::latency_clip_ms (satellite coverage) -----------------------

TEST_F(GuardFixture, LatencyClipOffByDefault) {
  EXPECT_EQ(NeoConfig().latency_clip_ms, 0.0);
  // With the default config, experience records the unclipped latency.
  engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
  Neo neo(featurizer_, &engine, SmallConfig());
  auto native = optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
  const Query q = ThreeWay(310);
  neo.Bootstrap({&q}, native.optimizer.get());
  EXPECT_DOUBLE_EQ(neo.experience().BestCost(q), neo.Baseline(q.id));
}

TEST_F(GuardFixture, LatencyClipClampsExperienceCosts) {
  engine::ExecutionEngine probe(ds_->schema, *ds_->db, EngineKind::kPostgres);
  auto native = optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
  const Query q = ThreeWay(311);
  const double full = probe.ExecutePlan(q, native.optimizer->Optimize(q));

  NeoConfig cfg = SmallConfig();
  cfg.latency_clip_ms = full * 0.5;
  engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
  Neo neo(featurizer_, &engine, cfg);
  neo.Bootstrap({&q}, native.optimizer.get());
  // The baseline keeps the true latency; the experience label is clipped.
  EXPECT_DOUBLE_EQ(neo.Baseline(q.id), full);
  EXPECT_DOUBLE_EQ(neo.experience().BestCost(q), full * 0.5);
}

TEST_F(GuardFixture, WatchdogObservationComposesWithLatencyClip) {
  // Watchdog first (the execution is killed at the deadline, so the deadline
  // IS the observation), then latency_clip_ms clips the experience label.
  auto native = optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
  const Query q = ThreeWay(312);

  NeoConfig cfg = SmallConfig();
  cfg.guards.watchdog.deadline_ms = 1e-5;  // Everything times out.
  cfg.latency_clip_ms = 0.5e-5;            // Clip below the deadline.
  engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
  Neo neo(featurizer_, &engine, cfg);
  neo.Bootstrap({&q}, native.optimizer.get());
  const double served = neo.ExecuteAndLearn(q);
  EXPECT_DOUBLE_EQ(served, 1e-5);  // Incurred latency = deadline.
  EXPECT_GE(neo.guard_stats().timeouts, 1);
  // Experience saw CostOf(min(latency, deadline)) = the clip.
  EXPECT_DOUBLE_EQ(neo.experience().BestCost(q), 0.5e-5);
}

// ---- Model health monitor --------------------------------------------------

nn::ValueNetConfig TinyNetConfig(uint64_t seed) {
  nn::ValueNetConfig cfg;
  cfg.query_dim = 12;
  cfg.plan_dim = 9;
  cfg.query_fc = {16, 8};
  cfg.tree_channels = {12, 8};
  cfg.head_fc = {8};
  cfg.seed = seed;
  return cfg;
}

nn::PlanSample TinySample(util::Rng& rng) {
  nn::PlanSample s;
  s.query_vec = nn::Matrix(1, 12);
  s.node_features = nn::Matrix(5, 9);
  for (size_t i = 0; i < s.query_vec.Size(); ++i) {
    s.query_vec.data()[i] = static_cast<float>(rng.NextUniform(-1, 1));
  }
  for (size_t i = 0; i < s.node_features.Size(); ++i) {
    s.node_features.data()[i] = static_cast<float>(rng.NextUniform(-1, 1));
  }
  s.tree.left = {1, -1, -1, -1, -1};
  s.tree.right = {2, -1, -1, -1, -1};
  return s;
}

nn::ModelHealthOptions HealthOpts() {
  nn::ModelHealthOptions opt;
  opt.enabled = true;
  opt.snapshot_ring = 2;
  return opt;
}

TEST(ModelHealthTest, PoisonedWeightsRollBackBitwise) {
  nn::ValueNetwork net(TinyNetConfig(5));
  util::Rng rng(6);
  const nn::PlanSample s = TinySample(rng);
  for (int i = 0; i < 10; ++i) net.TrainBatch({&s}, {0.7f});

  nn::ModelHealthMonitor monitor(HealthOpts());
  ASSERT_EQ(monitor.Observe(&net, 0.5), nn::ModelHealthMonitor::Verdict::kHealthy);
  EXPECT_EQ(monitor.snapshots_taken(), 1);
  const float healthy_pred = net.Predict(s);
  const uint64_t healthy_version = net.version();

  net.DebugPoisonWeights(/*key=*/17);
  ASSERT_TRUE(net.HasNonFiniteParams());
  EXPECT_GT(net.version(), healthy_version);  // Poison bumps like any mutation.

  const auto verdict = monitor.Observe(&net, 0.5);
  EXPECT_EQ(verdict, nn::ModelHealthMonitor::Verdict::kNonFiniteWeights);
  EXPECT_EQ(monitor.rollbacks(), 1);
  EXPECT_FALSE(net.HasNonFiniteParams());
  // Rollback restores the snapshot's weights exactly...
  EXPECT_EQ(net.Predict(s), healthy_pred);
  // ...under a NEW version, so weight-derived caches invalidate.
  EXPECT_GT(net.version(), healthy_version + 1);
}

TEST(ModelHealthTest, NonFiniteLossDetected) {
  nn::ValueNetwork net(TinyNetConfig(5));
  nn::ModelHealthMonitor monitor(HealthOpts());
  ASSERT_EQ(monitor.Observe(&net, 0.4), nn::ModelHealthMonitor::Verdict::kHealthy);
  const auto verdict =
      monitor.Observe(&net, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(verdict, nn::ModelHealthMonitor::Verdict::kNonFiniteLoss);
  EXPECT_EQ(monitor.rollbacks(), 1);
}

TEST(ModelHealthTest, LossDivergenceUsesMedianWindow) {
  nn::ValueNetwork net(TinyNetConfig(5));
  nn::ModelHealthOptions opt = HealthOpts();
  opt.loss_divergence_factor = 10.0;
  opt.loss_window = 4;
  nn::ModelHealthMonitor monitor(opt);
  // Window not yet full: even a big loss passes (no operating band yet).
  EXPECT_EQ(monitor.Observe(&net, 50.0), nn::ModelHealthMonitor::Verdict::kHealthy);
  for (double loss : {1.0, 1.2, 0.9, 1.1}) {
    EXPECT_EQ(monitor.Observe(&net, loss), nn::ModelHealthMonitor::Verdict::kHealthy);
  }
  // Median of the window is ~1.1 (the 50.0 rolled out); 50 > 10 x median.
  EXPECT_EQ(monitor.Observe(&net, 50.0),
            nn::ModelHealthMonitor::Verdict::kLossDiverged);
  EXPECT_EQ(monitor.rollbacks(), 1);
  // A normal loss is healthy again after the rollback.
  EXPECT_EQ(monitor.Observe(&net, 1.0), nn::ModelHealthMonitor::Verdict::kHealthy);
}

TEST(ModelHealthTest, DisabledIsNoOp) {
  nn::ValueNetwork net(TinyNetConfig(5));
  nn::ModelHealthMonitor monitor;  // Default: disabled.
  EXPECT_EQ(monitor.Observe(&net, std::numeric_limits<double>::quiet_NaN()),
            nn::ModelHealthMonitor::Verdict::kHealthy);
  EXPECT_EQ(monitor.snapshots_taken(), 0);
  EXPECT_EQ(monitor.rollbacks(), 0);
}

TEST(ModelHealthTest, FirstRetrainDivergenceRestoresCapturedInitialState) {
  // Neo captures the network it was built with, so a first retrain that
  // goes bad rolls back to the initial weights AND Adam state: the restored
  // network then trains bit for bit like a fresh twin. Without a capture the
  // ring is empty and there is nothing to roll back to.
  util::Rng rng(6);
  const nn::PlanSample s = TinySample(rng);
  nn::ValueNetwork twin(TinyNetConfig(5));
  {
    nn::ValueNetwork net(TinyNetConfig(5));
    nn::ModelHealthMonitor monitor(HealthOpts());
    net.DebugPoisonWeights(3);
    EXPECT_EQ(monitor.Observe(&net, 0.5),
              nn::ModelHealthMonitor::Verdict::kNonFiniteWeights);
    EXPECT_EQ(monitor.rollbacks(), 0);
    EXPECT_TRUE(net.HasNonFiniteParams());
  }
  nn::ValueNetwork net(TinyNetConfig(5));
  nn::ModelHealthMonitor monitor(HealthOpts());
  monitor.Capture(net);
  net.TrainBatch({&s}, {0.7f});  // The first retrain's steps...
  net.DebugPoisonWeights(3);     // ...then its corruption.
  EXPECT_EQ(monitor.Observe(&net, std::numeric_limits<double>::quiet_NaN()),
            nn::ModelHealthMonitor::Verdict::kNonFiniteLoss);
  EXPECT_EQ(monitor.rollbacks(), 1);
  EXPECT_FALSE(net.HasNonFiniteParams());
  EXPECT_EQ(net.Predict(s), twin.Predict(s));
  EXPECT_EQ(net.TrainBatch({&s}, {0.7f}), twin.TrainBatch({&s}, {0.7f}));
  EXPECT_EQ(net.Predict(s), twin.Predict(s));
}

TEST_F(GuardFixture, RetrainCorruptionRollsBackAndInvalidatesSearchCache) {
  auto native = optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
  NeoConfig cfg = SmallConfig();
  cfg.guards.health.enabled = true;
  engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
  Neo neo(featurizer_, &engine, cfg);
  const Query q = ThreeWay(320);
  neo.Bootstrap({&q}, native.optimizer.get());
  neo.Retrain();  // Healthy: takes the last-good snapshot.
  ASSERT_TRUE(neo.health().has_snapshot());

  // Bind a score cache and warm it, so invalidation is observable.
  util::ScoreCache cache(/*cap=*/4096, /*stripes=*/4);
  neo.search().BindScoreCache(&cache, /*generation=*/1);
  SearchOptions opt;
  opt.max_expansions = 20;
  const SearchResult warm = neo.search().FindPlan(q, opt);
  EXPECT_GT(warm.evaluations, 0u);

  util::FaultInjectorConfig fcfg;
  fcfg.enabled = true;
  fcfg.seed = 13;
  fcfg.weight_corruption_p = 1.0;  // This retrain's step corrupts.
  util::FaultInjector injector(fcfg);
  neo.SetFaultInjector(&injector);
  neo.Retrain();
  neo.SetFaultInjector(nullptr);
  EXPECT_EQ(injector.weight_corruptions(), 1u);
  EXPECT_EQ(neo.guard_stats().health_rollbacks, 1);
  EXPECT_FALSE(neo.net().HasNonFiniteParams());

  // The rollback bumped the net version, which re-salts the cache keys: the
  // repeat search re-evaluates instead of serving score-cache entries from
  // the corrupted-then-restored weight history.
  const SearchResult after = neo.search().FindPlan(q, opt);
  EXPECT_GT(after.evaluations, 0u);
  EXPECT_TRUE(after.plan.IsComplete());
}

// ---- Guards-off parity and inert-guard overhead ----------------------------

TEST_F(GuardFixture, InertGuardsMatchGuardsOffBitwise) {
  // Enabled-but-never-firing guards (a far deadline, a breaker that never
  // sees a regression, a health monitor that never rolls back) must leave
  // episode outcomes bit-identical to every guard off. Both configurations
  // run the one serve path; this pins its accounting: same plans, same
  // latencies, same experience.
  const auto wl = query::MakeJobWorkload(ds_->schema, *ds_->db);
  std::vector<const Query*> train;
  for (size_t i = 0; i < wl.size(); i += 19) train.push_back(&wl.query(i));
  ASSERT_GE(train.size(), 5u);

  auto run = [&](bool inert_guards) {
    engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
    auto native =
        optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
    NeoConfig cfg = SmallConfig();
    cfg.search.max_expansions = 20;
    if (inert_guards) {
      cfg.guards.watchdog.deadline_ms = 1e18;
      cfg.guards.breaker.enabled = true;
      cfg.guards.breaker.regression_factor = 1e18;
      cfg.guards.health.enabled = true;
    }
    Neo neo(featurizer_, &engine, cfg);
    neo.Bootstrap(train, native.optimizer.get());
    std::vector<EpisodeStats> stats;
    for (int e = 0; e < 2; ++e) stats.push_back(neo.RunEpisode(train));
    return stats;
  };
  const auto off = run(false);
  const auto inert = run(true);
  ASSERT_EQ(off.size(), inert.size());
  for (size_t e = 0; e < off.size(); ++e) {
    EXPECT_EQ(off[e].train_total_latency_ms, inert[e].train_total_latency_ms)
        << "episode " << e;
    EXPECT_EQ(off[e].retrain_loss, inert[e].retrain_loss) << "episode " << e;
    EXPECT_EQ(off[e].experience_states, inert[e].experience_states);
  }
}

TEST_F(GuardFixture, GuardedEpisodesBitIdenticalAcrossThreadCounts) {
  // Guardrails decide serves in the serial execution phase, so the parallel-
  // episode determinism contract must survive with every guard armed and
  // actually firing (tight watchdog + tripping breaker).
  const auto wl = query::MakeJobWorkload(ds_->schema, *ds_->db);
  std::vector<const Query*> train;
  for (size_t i = 0; i < wl.size(); i += 19) train.push_back(&wl.query(i));

  auto run = [&](int threads) {
    engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
    auto native =
        optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
    NeoConfig cfg = SmallConfig();
    cfg.threads = threads;
    cfg.search.max_expansions = 20;
    cfg.guards.watchdog.baseline_factor = 1.01;  // Hair-trigger watchdog.
    cfg.guards.breaker.enabled = true;
    cfg.guards.breaker.trip_after = 1;
    cfg.guards.breaker.regression_factor = 1.0;
    cfg.guards.health.enabled = true;
    Neo neo(featurizer_, &engine, cfg);
    neo.Bootstrap(train, native.optimizer.get());
    std::vector<EpisodeStats> stats;
    for (int e = 0; e < 2; ++e) stats.push_back(neo.RunEpisode(train));
    return std::make_pair(stats, neo.guard_stats());
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  for (size_t e = 0; e < serial.first.size(); ++e) {
    EXPECT_EQ(serial.first[e].train_total_latency_ms,
              parallel.first[e].train_total_latency_ms)
        << "episode " << e;
    EXPECT_EQ(serial.first[e].experience_states, parallel.first[e].experience_states);
  }
  EXPECT_EQ(serial.second.fallback_serves, parallel.second.fallback_serves);
  EXPECT_EQ(serial.second.timeouts, parallel.second.timeouts);
  EXPECT_EQ(serial.second.breaker_trips, parallel.second.breaker_trips);
  EXPECT_EQ(serial.second.learned_serves, parallel.second.learned_serves);
}

// ---- Bounded worst case under fault injection (acceptance) -----------------

TEST_F(GuardFixture, GuardedWorkloadBoundedWhileUnguardedRegresses) {
  // The guardrails' acceptance contract. Under injected latency spikes,
  // execution failures and retrain weight corruption:
  //   - unguarded total workload latency demonstrably regresses vs the
  //     expert baseline (spikes flow straight through), while
  //   - guarded total latency stays within the watchdog factor of the expert
  //     baseline — structurally: every guarded serve (learned or fallback)
  //     is clipped at baseline_factor x the query's expert baseline — and
  //   - the guarded network holds finite weights after every episode: each
  //     corrupted retrain rolls back, the first one included (to the
  //     weights and Adam state Neo was built with).
  // Fault params are fixed; the seed follows NEO_FAULT_SEED when the CI
  // fault arm sets it, so the matrix exercises several schedules. The
  // corruption draws are keyed by retrain index: over six retrains, seeds
  // 42, 3 and 11 each corrupt at least one, and seed 3 corrupts the first.
  util::FaultInjectorConfig fcfg;
  fcfg.enabled = true;
  fcfg.seed = 42;
  if (const char* env_seed = std::getenv("NEO_FAULT_SEED")) {
    fcfg.seed = static_cast<uint64_t>(std::strtoull(env_seed, nullptr, 10));
  }
  fcfg.latency_spike_p = 0.25;
  fcfg.latency_spike_factor = 40.0;
  fcfg.exec_failure_p = 0.05;
  fcfg.weight_corruption_p = 0.5;

  const auto wl = query::MakeJobWorkload(ds_->schema, *ds_->db);
  std::vector<const Query*> train;
  for (size_t i = 0; i < wl.size(); i += 7) train.push_back(&wl.query(i));
  ASSERT_GE(train.size(), 15u);
  constexpr int kEpisodes = 6;
  constexpr double kWatchdogFactor = 2.0;

  // Clean expert baseline for one pass over the workload.
  double expert_pass = 0.0;
  {
    engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
    auto native =
        optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
    for (const Query* q : train) {
      expert_pass += engine.ExecutePlan(*q, native.optimizer->Optimize(*q));
    }
  }
  ASSERT_GT(expert_pass, 0.0);
  const double expert_total = expert_pass * kEpisodes;

  struct Arm {
    double total_ms = 0.0;
    GuardStats guards;
    size_t corruptions = 0;
  };
  auto run_arm = [&](bool guarded) {
    engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
    auto native =
        optim::MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
    NeoConfig cfg = SmallConfig();
    cfg.search.max_expansions = 20;
    if (guarded) {
      cfg.guards.watchdog.baseline_factor = kWatchdogFactor;
      cfg.guards.breaker.enabled = true;
      cfg.guards.breaker.trip_after = 1;
      cfg.guards.breaker.regression_factor = 1.5;
      cfg.guards.breaker.initial_cooldown = 1;
      cfg.guards.health.enabled = true;
    }
    Neo neo(featurizer_, &engine, cfg);
    // Bootstrap runs fault-free (baselines must be honest expert latencies);
    // faults arm for the serving episodes.
    neo.Bootstrap(train, native.optimizer.get());
    util::FaultInjector injector(fcfg);
    engine.SetFaultInjector(&injector);
    neo.SetFaultInjector(&injector);
    Arm arm;
    for (int e = 0; e < kEpisodes; ++e) {
      arm.total_ms += neo.RunEpisode(train).train_total_latency_ms;
      if (guarded) {
        EXPECT_FALSE(neo.net().HasNonFiniteParams())
            << "episode " << e << ", seed " << fcfg.seed;
      }
    }
    engine.SetFaultInjector(nullptr);
    neo.SetFaultInjector(nullptr);
    arm.guards = neo.guard_stats();
    arm.corruptions = injector.weight_corruptions();
    return arm;
  };

  const Arm unguarded = run_arm(false);
  const Arm guarded = run_arm(true);

  // Unguarded: spikes (expected multiplier ~1 + 0.25 * 39) blow the total
  // far past the expert baseline.
  EXPECT_GT(unguarded.total_ms, 2.5 * expert_total);
  EXPECT_EQ(unguarded.guards.timeouts, 0);
  EXPECT_EQ(unguarded.guards.fallback_serves, 0);

  // Guarded: structurally bounded — every serve clipped at
  // kWatchdogFactor x its query's baseline.
  EXPECT_LE(guarded.total_ms, kWatchdogFactor * expert_total * (1.0 + 1e-9));
  EXPECT_LT(guarded.total_ms, unguarded.total_ms);
  // The guardrails actually engaged, and every corrupted retrain rolled back.
  EXPECT_GE(guarded.guards.timeouts, 1);
  EXPECT_GE(guarded.guards.breaker_trips, 1);
  EXPECT_GE(guarded.guards.fallback_serves, 1);
  EXPECT_GE(guarded.corruptions, 1u) << "seed " << fcfg.seed;
  EXPECT_EQ(guarded.guards.health_rollbacks,
            static_cast<int64_t>(guarded.corruptions));
}

}  // namespace
}  // namespace neo::core
