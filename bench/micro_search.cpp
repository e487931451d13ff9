// Micro-benchmarks: plan search (children enumeration, full best-first
// search, featurization throughput), plus a cold-search scoring-throughput
// measurement (incremental search) written to BENCH_search.json so the
// inference-path perf trajectory stays tracked, with the search's subtree
// table high-water mark (subtree_table_peak_bytes).
//
// The google-benchmark suite runs after the JSON measurement; pass any
// benchmark flags (e.g. --benchmark_filter) as usual (see bench/json_main.h).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/json_main.h"
#include "src/core/neo.h"
#include "src/datagen/imdb_gen.h"
#include "src/query/job_workload.h"
#include "src/util/stopwatch.h"

namespace {

using namespace neo;

struct Fixture {
  datagen::Dataset ds;
  query::Workload wl{"none"};
  std::unique_ptr<featurize::Featurizer> feat;
  std::unique_ptr<engine::ExecutionEngine> eng;
  std::unique_ptr<core::Neo> neo;

  Fixture() {
    datagen::GenOptions opt;
    opt.scale = 0.05;
    ds = datagen::GenerateImdb(opt);
    wl = query::MakeJobWorkload(ds.schema, *ds.db);
    feat = std::make_unique<featurize::Featurizer>(ds.schema, *ds.db,
                                                   featurize::FeaturizerConfig{});
    eng = std::make_unique<engine::ExecutionEngine>(ds.schema, *ds.db,
                                                    engine::EngineKind::kPostgres);
    neo = std::make_unique<core::Neo>(feat.get(), eng.get(), Config());
  }
  static core::NeoConfig Config() {
    core::NeoConfig cfg;
    cfg.net.query_fc = {64, 32};
    cfg.net.tree_channels = {32, 16};
    cfg.net.head_fc = {16};
    return cfg;
  }
  static Fixture& Get() {
    static Fixture f;
    return f;
  }
};

void BM_ChildrenEnumeration(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const query::Query& q = f.wl.query(60);
  const plan::PartialPlan initial = plan::PartialPlan::Initial(q);
  std::vector<plan::PartialPlan> scratch;
  for (auto _ : state) {
    f.neo->search().ChildrenInto(q, initial, &scratch);
    benchmark::DoNotOptimize(scratch);
  }
}
BENCHMARK(BM_ChildrenEnumeration);

void BM_EncodePlan(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const query::Query& q = f.wl.query(60);
  const plan::PartialPlan initial = plan::PartialPlan::Initial(q);
  nn::TreeStructure tree;
  nn::Matrix feats;
  for (auto _ : state) {
    f.feat->EncodePlan(q, initial, &tree, &feats);
    benchmark::DoNotOptimize(feats);
  }
}
BENCHMARK(BM_EncodePlan);

void BM_EncodeQuery(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const query::Query& q = f.wl.query(60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.feat->EncodeQuery(q));
  }
}
BENCHMARK(BM_EncodeQuery);

/// Full best-first search on one reused PlanSearch: every buffer is at its
/// high-water capacity after the first iteration, and every iteration does
/// the full network work (a search keeps no scores between calls).
void BM_BestFirstSearchWarm(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const query::Query& q = f.wl.query(static_cast<size_t>(state.range(0)));
  core::SearchOptions opt;
  opt.max_expansions = 40;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.neo->search().FindPlan(q, opt));
  }
  state.SetLabel(std::to_string(q.num_relations()) + " relations");
}
BENCHMARK(BM_BestFirstSearchWarm)->Arg(0)->Arg(60);

/// Cold search: a fresh Neo (fresh network, cold buffers) per iteration;
/// only FindPlan is timed. Items processed = network evaluations, so
/// items/sec is plans scored per second.
void BM_BestFirstSearchCold(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const query::Query& q = f.wl.query(60);
  core::SearchOptions opt;
  opt.max_expansions = 40;
  int64_t evals = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::Neo fresh(f.feat.get(), f.eng.get(), Fixture::Config());
    state.ResumeTiming();
    const core::SearchResult r = fresh.search().FindPlan(q, opt);
    evals += static_cast<int64_t>(r.evaluations);
  }
  state.SetItemsProcessed(evals);
}
BENCHMARK(BM_BestFirstSearchCold);

/// Cold greedy descent: a fresh Neo (fresh network, cold buffers) per
/// iteration; only the descent is timed.
void BM_GreedyPlan(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const query::Query& q = f.wl.query(60);
  for (auto _ : state) {
    state.PauseTiming();
    core::Neo fresh(f.feat.get(), f.eng.get(), Fixture::Config());
    state.ResumeTiming();
    benchmark::DoNotOptimize(fresh.search().GreedyPlan(q));
  }
}
BENCHMARK(BM_GreedyPlan);

// ---- BENCH_search.json ----------------------------------------------------

struct ThroughputResult {
  double plans_per_sec = 0.0;
  double wall_ms_mean = 0.0;
  size_t evaluations = 0;
  size_t cache_hits = 0;
  size_t activation_hits = 0;
  size_t rows_recomputed = 0;
  size_t rows_reused = 0;
  size_t table_peak_bytes = 0;  ///< One search's subtree table high-water mark.
};

/// Repeatedly runs a cold best-first search (fresh network, construction
/// untimed) and reports plans scored per second.
ThroughputResult MeasureSearchThroughput(int reps) {
  Fixture& f = Fixture::Get();
  const query::Query& q = f.wl.query(60);
  core::SearchOptions opt;
  opt.max_expansions = 40;

  // Default ValueNetConfig channel widths (the paper-shaped 64/32/16 conv
  // stack), not the narrower widths the google-benchmark fixture uses.
  core::NeoConfig cfg;
  ThroughputResult out;
  double total_s = 0.0;
  for (int rep = 0; rep < reps + 1; ++rep) {
    core::Neo fresh(f.feat.get(), f.eng.get(), cfg);
    util::Stopwatch watch;
    const core::SearchResult r = fresh.search().FindPlan(q, opt);
    if (rep == 0) continue;  // Warm-up run (page-in, allocator).
    total_s += watch.ElapsedSeconds();
    out.evaluations += r.evaluations;
    out.cache_hits += r.cache_hits;
    out.activation_hits += r.activation_hits;
    out.rows_recomputed += r.rows_recomputed;
    out.rows_reused += r.rows_reused;
    out.table_peak_bytes = fresh.search().subtree_table_peak_bytes();
  }
  out.plans_per_sec = static_cast<double>(out.evaluations) / total_s;
  out.wall_ms_mean = total_s * 1000.0 / reps;
  return out;
}

void PrintArm(std::FILE* out, const char* name, const ThroughputResult& r,
              const char* trailing_comma) {
  std::fprintf(out,
               "  \"%s\": {\"plans_per_sec\": %.1f, \"wall_ms_mean\": %.3f,"
               " \"evaluations\": %zu, \"cache_hits\": %zu}%s\n",
               name, r.plans_per_sec, r.wall_ms_mean, r.evaluations, r.cache_hits,
               trailing_comma);
}

bool WriteSearchJson(const std::string& path, int reps) {
  // The one search path: batched, incremental scoring, one heap state per
  // round.
  const ThroughputResult incremental = MeasureSearchThroughput(reps);

  Fixture& f = Fixture::Get();
  const query::Query& q = f.wl.query(60);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_search: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"micro_search\",\n"
               "  \"query_relations\": %zu,\n"
               "  \"max_expansions\": 40,\n"
               "  \"repetitions\": %d,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"kernel_arch\": \"%s\",\n"
               "  \"subtree_table_peak_bytes\": %zu,\n",
               q.num_relations(), reps, std::thread::hardware_concurrency(),
               nn::KernelArchString(), incremental.table_peak_bytes);
  PrintArm(out, "incremental", incremental, ",");

  // Conv-flop reuse of the incremental arm, per layer: a node hit saves its
  // row in every conv layer, so per-layer row counts are the node totals.
  // Flops per row ~ 2 * 3 blocks * cin * cout (upper bound; absent-child
  // blocks are skipped either way). Channel widths follow the default
  // ValueNetConfig the JSON arms run with.
  {
    const nn::ValueNetConfig net_cfg;
    const int plan_dim = f.feat->plan_dim();
    const int embed_dim = net_cfg.query_fc.back();
    const size_t layers = net_cfg.tree_channels.size();
    const size_t rows_computed = incremental.rows_recomputed / layers;
    const size_t rows_reused = incremental.rows_reused / layers;
    const double reuse_rate =
        static_cast<double>(rows_reused) /
        static_cast<double>(std::max<size_t>(1, rows_reused + rows_computed));
    std::fprintf(out,
                 "  \"incremental_reuse\": {\"activation_hits\": %zu,"
                 " \"rows_recomputed\": %zu, \"rows_reused\": %zu,"
                 " \"reuse_rate\": %.4f, \"per_layer\": [",
                 incremental.activation_hits, incremental.rows_recomputed,
                 incremental.rows_reused, reuse_rate);
    int cin = plan_dim + embed_dim;
    for (size_t li = 0; li < layers; ++li) {
      const int cout = net_cfg.tree_channels[li];
      const double flops_per_row = 2.0 * 3.0 * cin * cout;
      std::fprintf(out,
                   "%s{\"in_channels\": %d, \"out_channels\": %d,"
                   " \"rows_computed\": %zu, \"rows_reused\": %zu,"
                   " \"gflops_computed\": %.3f, \"gflops_saved\": %.3f}",
                   li == 0 ? "" : ", ", cin, cout, rows_computed, rows_reused,
                   flops_per_row * static_cast<double>(rows_computed) * 1e-9,
                   flops_per_row * static_cast<double>(rows_reused) * 1e-9);
      cin = cout;
    }
    std::fprintf(out, "]}\n}\n");
  }
  std::fclose(out);
  std::printf("search scoring throughput: incremental %.0f plans/s (subtree"
              " table peak %zu B) -> %s\n",
              incremental.plans_per_sec, incremental.table_peak_bytes,
              path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  return neo::bench::JsonBenchMain(argc, argv, "BENCH_search.json", "--json-reps",
                                   /*count=*/20, WriteSearchJson);
}
