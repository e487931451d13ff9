// Guardrail micro-benchmarks (google-benchmark): the circuit breaker's
// per-serve decision, a fault-injector draw, a model-health snapshot, and a
// hot serving loop with every guard off vs the guards armed with inert
// thresholds. Since the guards-off fork was folded, both BM_HotServe arms
// run the one serve path; the difference is the guard bookkeeping.
//
// The guardrails' acceptance bound (guarded workload latency within 2x the
// expert's under injected faults, every corrupted retrain rolled back) is a
// test: GuardFixture.GuardedWorkloadBoundedWhileUnguardedRegresses in
// tests/guard_test.cpp.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/core/neo.h"
#include "src/datagen/imdb_gen.h"
#include "src/query/job_workload.h"

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
  /// Every guard armed, with a watchdog too far off to fire.
  static core::GuardrailConfig InertGuards() {
    core::GuardrailConfig g;
    g.watchdog.baseline_factor = 1e9;
    g.breaker.enabled = true;
    g.breaker.trip_after = 2;
    g.breaker.regression_factor = 1.5;
    g.breaker.initial_cooldown = 1;
    g.breaker.max_cooldown = 8;
    g.health.enabled = true;
    return g;
  }
  static Fixture& Get() {
    static Fixture f;
    return f;
  }
};

void BM_BreakerDecision(benchmark::State& state) {
  core::CircuitBreakerOptions opt;
  opt.enabled = true;
  opt.trip_after = 3;
  core::CircuitBreaker breaker(opt);
  uint64_t fp = 0;
  for (auto _ : state) {
    const bool learned = breaker.AllowLearned(fp & 63);
    breaker.RecordLearnedOutcome(fp & 63, (fp & 7) == 0);
    benchmark::DoNotOptimize(learned);
    ++fp;
  }
}
BENCHMARK(BM_BreakerDecision);

void BM_InjectorDraw(benchmark::State& state) {
  util::FaultInjectorConfig cfg;
  cfg.enabled = true;
  cfg.latency_spike_p = 0.25;
  cfg.latency_spike_factor = 40.0;
  util::FaultInjector injector(cfg);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.PerturbLatency(key & 255, 10.0));
    ++key;
  }
}
BENCHMARK(BM_InjectorDraw);

void BM_HealthSnapshot(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  engine::ExecutionEngine eng(f.ds.schema, *f.ds.db, engine::EngineKind::kPostgres);
  core::Neo neo(f.feat.get(), &eng, Fixture::Config());
  nn::ValueNetwork::WeightSnapshot snap;
  for (auto _ : state) {
    neo.net().CaptureSnapshot(&snap);
    benchmark::DoNotOptimize(snap);
  }
  state.SetLabel(std::to_string(neo.net().NumParameters()) + " params");
}
BENCHMARK(BM_HealthSnapshot);

/// Hot serving loop (cached search + memoized execution): guards off vs the
/// guarded path with inert thresholds. The delta is the guard bookkeeping.
void BM_HotServe(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const bool guarded = state.range(0) != 0;
  engine::ExecutionEngine eng(f.ds.schema, *f.ds.db, engine::EngineKind::kPostgres);
  auto expert = optim::MakeNativeOptimizer(engine::EngineKind::kPostgres, f.ds.schema,
                                           *f.ds.db);
  core::NeoConfig cfg = Fixture::Config();
  if (guarded) cfg.guards = Fixture::InertGuards();
  core::Neo neo(f.feat.get(), &eng, cfg);
  neo.Bootstrap(f.train, expert.optimizer.get());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(neo.PlanAndExecute(*f.train[i % f.train.size()]));
    ++i;
  }
  state.SetLabel(guarded ? "guarded(inert)" : "guards-off");
}
BENCHMARK(BM_HotServe)->Arg(0)->Arg(1);

}  // namespace
