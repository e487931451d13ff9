// Micro-benchmarks: cardinality oracle, latency model, classical optimizers.
#include <benchmark/benchmark.h>

#include "src/datagen/imdb_gen.h"
#include "src/engine/execution_engine.h"
#include "src/optim/optimizer.h"
#include "src/query/job_workload.h"

namespace {

using namespace neo;

struct Fixture {
  datagen::Dataset ds;
  query::Workload wl{"none"};

  Fixture() {
    datagen::GenOptions opt;
    opt.scale = 0.05;
    ds = datagen::GenerateImdb(opt);
    wl = query::MakeJobWorkload(ds.schema, *ds.db);
  }
  static Fixture& Get() {
    static Fixture f;
    return f;
  }
};

void BM_OracleColdCardinality(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const query::Query& q = f.wl.query(60);
  const uint64_t full = (1ULL << q.num_relations()) - 1;
  for (auto _ : state) {
    engine::CardinalityOracle oracle(f.ds.schema, *f.ds.db);  // Cold cache.
    benchmark::DoNotOptimize(oracle.Cardinality(q, full));
  }
}
BENCHMARK(BM_OracleColdCardinality);

void BM_OracleWarmCardinality(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const query::Query& q = f.wl.query(60);
  const uint64_t full = (1ULL << q.num_relations()) - 1;
  engine::CardinalityOracle oracle(f.ds.schema, *f.ds.db);
  oracle.Cardinality(q, full);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.Cardinality(q, full));
  }
}
BENCHMARK(BM_OracleWarmCardinality);

void BM_ExecutePlanWarm(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const query::Query& q = f.wl.query(60);
  auto native =
      optim::MakeNativeOptimizer(engine::EngineKind::kPostgres, f.ds.schema, *f.ds.db);
  const plan::PartialPlan p = native.optimizer->Optimize(q);
  engine::ExecutionEngine eng(f.ds.schema, *f.ds.db, engine::EngineKind::kPostgres);
  eng.ExecutePlan(q, p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.ExecutePlan(q, p));
  }
}
BENCHMARK(BM_ExecutePlanWarm);

void BM_DpOptimize(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  auto native =
      optim::MakeNativeOptimizer(engine::EngineKind::kPostgres, f.ds.schema, *f.ds.db);
  const query::Query& q = f.wl.query(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(native.optimizer->Optimize(q));
  }
  state.SetLabel(std::to_string(q.num_relations()) + " relations");
}
BENCHMARK(BM_DpOptimize)->Arg(0)->Arg(56)->Arg(60)->Arg(131);

void BM_HistogramEstimate(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  catalog::Statistics stats(f.ds.schema, *f.ds.db);
  optim::HistogramEstimator est(f.ds.schema, stats, *f.ds.db);
  const query::Query& q = f.wl.query(60);
  const uint64_t full = (1ULL << q.num_relations()) - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.EstimateSubset(q, full));
  }
}
BENCHMARK(BM_HistogramEstimate);

}  // namespace
