// Micro-benchmarks (google-benchmark): neural network primitives. Also
// emits BENCH_train.json — packed-forest TrainBatch throughput at two shapes
// (sparse_train: the default widths; neobench_train: the repository
// benchmark's retrain shapes), with per-layer conv flop/byte counters and
// the steady-state allocation probe — so the training-path perf trajectory
// stays tracked (the inference counterpart lives in micro_search's
// BENCH_search.json).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/nn/value_network.h"
#include "src/util/alloc_counter.h"
#include "src/util/stopwatch.h"

namespace {

using namespace neo::nn;

Matrix RandomMatrix(int rows, int cols, neo::util::Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.Size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextUniform(-1, 1));
  }
  return m;
}

/// items/sec = multiply-adds/sec; GFLOP/s counts 2 flops per multiply-add.
void SetGemmCounters(benchmark::State& state, int n) {
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * n * n,
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  neo::util::Rng rng(1);
  const Matrix a = RandomMatrix(n, n, rng);
  const Matrix b = RandomMatrix(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  SetGemmCounters(state, n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  neo::util::Rng rng(1);
  const Matrix a = RandomMatrix(n, n, rng);
  const Matrix b = RandomMatrix(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulNaive(a, b));
  }
  SetGemmCounters(state, n);
}
BENCHMARK(BM_MatMulNaive)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulTransposeB(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  neo::util::Rng rng(1);
  const Matrix a = RandomMatrix(n, n, rng);
  const Matrix b = RandomMatrix(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransposeB(a, b));
  }
  SetGemmCounters(state, n);
}
BENCHMARK(BM_MatMulTransposeB)->Arg(64)->Arg(128)->Arg(256);

/// The training conv forward (TreeConv::ForwardTrain, fused epilogue) on
/// one tree; items/sec is nodes/sec.
void BM_TreeConvForward(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  neo::util::Rng rng(2);
  TreeConv conv(53, 32, rng);
  TreeStructure tree;
  tree.left.assign(static_cast<size_t>(nodes), -1);
  tree.right.assign(static_cast<size_t>(nodes), -1);
  for (int i = 0; i + 2 < nodes; i += 2) {
    tree.left[static_cast<size_t>(i)] = i + 1;
    tree.right[static_cast<size_t>(i)] = i + 2;
  }
  const Matrix x = RandomMatrix(nodes, 53, rng);
  const TreeGather gather = TreeGather::Build(tree);
  TreeConv::TrainScratch scratch;
  Matrix y;
  for (auto _ : state) {
    conv.ForwardTrain(tree, x, nullptr, nullptr, gather, &scratch,
                      /*leaky_alpha=*/0.01f, &y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_TreeConvForward)->Arg(9)->Arg(17)->Arg(33);

void BM_ValueNetPredict(benchmark::State& state) {
  ValueNetConfig cfg;
  cfg.query_dim = 66;
  cfg.plan_dim = 21;
  cfg.query_fc = {64, 32};
  cfg.tree_channels = {32, 16};
  cfg.head_fc = {16};
  ValueNetwork net(cfg);
  neo::util::Rng rng(3);
  PlanSample s;
  s.query_vec = RandomMatrix(1, 66, rng);
  const int nodes = 17;
  s.node_features = RandomMatrix(nodes, 21, rng);
  s.tree.left.assign(nodes, -1);
  s.tree.right.assign(nodes, -1);
  for (int i = 0; i + 2 < nodes; i += 2) {
    s.tree.left[static_cast<size_t>(i)] = i + 1;
    s.tree.right[static_cast<size_t>(i)] = i + 2;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Predict(s));
  }
}
BENCHMARK(BM_ValueNetPredict);

void BM_ValueNetPredictWithCachedEmbedding(benchmark::State& state) {
  ValueNetConfig cfg;
  cfg.query_dim = 66;
  cfg.plan_dim = 21;
  cfg.query_fc = {64, 32};
  cfg.tree_channels = {32, 16};
  cfg.head_fc = {16};
  ValueNetwork net(cfg);
  neo::util::Rng rng(4);
  PlanSample s;
  s.query_vec = RandomMatrix(1, 66, rng);
  const int nodes = 17;
  s.node_features = RandomMatrix(nodes, 21, rng);
  s.tree.left.assign(nodes, -1);
  s.tree.right.assign(nodes, -1);
  const Matrix embed = net.EmbedQuery(s.query_vec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net.PredictWithEmbedding(embed, s.tree, s.node_features));
  }
}
BENCHMARK(BM_ValueNetPredictWithCachedEmbedding);

/// Shared fixture for the batched-vs-loop comparison: both arms must score
/// the exact same plans with identically-configured networks.
struct PredictFixture {
  ValueNetwork net;
  std::vector<PlanSample> samples;
  std::vector<const PlanSample*> ptrs;
  Matrix embed;

  static ValueNetConfig Config() {
    ValueNetConfig cfg;
    cfg.query_dim = 66;
    cfg.plan_dim = 21;
    cfg.query_fc = {64, 32};
    cfg.tree_channels = {32, 16};
    cfg.head_fc = {16};
    return cfg;
  }

  explicit PredictFixture(int batch) : net(Config()), samples(static_cast<size_t>(batch)) {
    neo::util::Rng rng(6);
    for (auto& s : samples) {
      const int nodes = 9 + static_cast<int>(rng.NextBounded(9));
      s.query_vec = RandomMatrix(1, 66, rng);
      s.node_features = RandomMatrix(nodes, 21, rng);
      s.tree.left.assign(static_cast<size_t>(nodes), -1);
      s.tree.right.assign(static_cast<size_t>(nodes), -1);
      for (int i = 0; i + 2 < nodes; i += 2) {
        s.tree.left[static_cast<size_t>(i)] = i + 1;
        s.tree.right[static_cast<size_t>(i)] = i + 2;
      }
      ptrs.push_back(&s);
    }
    embed = net.EmbedQuery(samples[0].query_vec);
  }
};

/// Batched forest inference vs. the per-sample loop: both arms score the
/// same plans sharing one query embedding; items/sec is plans scored/sec.
void BM_ValueNetPredictBatch(benchmark::State& state) {
  PredictFixture f(static_cast<int>(state.range(0)));
  const PlanBatch packed = PackPlanBatch(f.ptrs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.net.PredictBatch(f.embed, packed));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ValueNetPredictBatch)->Arg(8)->Arg(32)->Arg(128);

void BM_ValueNetPredictLoop(benchmark::State& state) {
  PredictFixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (const auto& s : f.samples) {
      benchmark::DoNotOptimize(f.net.PredictWithEmbedding(f.embed, s.tree, s.node_features));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ValueNetPredictLoop)->Arg(8)->Arg(32)->Arg(128);

/// Training fixture: `batch` samples with mixed tree shapes.
struct TrainFixture {
  ValueNetwork net;
  std::vector<PlanSample> samples;
  std::vector<const PlanSample*> ptrs;
  std::vector<float> targets;

  static ValueNetConfig Config() {
    ValueNetConfig cfg;
    cfg.query_dim = 66;
    cfg.plan_dim = 21;
    cfg.query_fc = {64, 32};
    cfg.tree_channels = {32, 16};
    cfg.head_fc = {16};
    return cfg;
  }

  explicit TrainFixture(int batch) : net(Config()), samples(static_cast<size_t>(batch)) {
    neo::util::Rng rng(5);
    for (auto& s : samples) {
      const int nodes = 9 + static_cast<int>(rng.NextBounded(9));
      s.query_vec = RandomMatrix(1, 66, rng);
      s.node_features = RandomMatrix(nodes, 21, rng);
      s.tree.left.assign(static_cast<size_t>(nodes), -1);
      s.tree.right.assign(static_cast<size_t>(nodes), -1);
      for (int i = 0; i + 2 < nodes; i += 2) {
        s.tree.left[static_cast<size_t>(i)] = i + 1;
        s.tree.right[static_cast<size_t>(i)] = i + 2;
      }
      ptrs.push_back(&s);
      targets.push_back(static_cast<float>(rng.NextUniform(-1, 1)));
    }
  }
};

void BM_ValueNetTrainBatch(benchmark::State& state) {
  TrainFixture f(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.net.TrainBatch(f.ptrs, f.targets));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ValueNetTrainBatch);

// ---- BENCH_train.json ------------------------------------------------------

struct TrainThroughput {
  int batch = 0;
  double samples_per_sec = 0.0;
  double step_ms_mean = 0.0;
  float first_loss = 0.0f;
  float final_loss = 0.0f;
  size_t peak_scratch_bytes = 0;
  uint64_t steady_allocs = 0;  ///< Heap allocs in one post-warmup step.
  std::vector<TreeConv::TrainStats> conv_stats;  ///< Per layer, per step.
  std::vector<int> conv_in, conv_out;
};

/// One training arm's shapes: the network, the minibatch size and the tree
/// sizes (left-deep-ish trees of `min_nodes` + [0, `node_span`) nodes).
struct TrainShapes {
  ValueNetConfig cfg;
  int batch = 0;
  int min_nodes = 0;
  int node_span = 0;
};

/// sparse_train: the default widths (paper-shaped 64/32/16 conv stack) on a
/// batch-64 set of 9-17-node trees.
TrainShapes SparseTrainShapes() {
  TrainShapes shapes;
  shapes.cfg.query_dim = 66;
  shapes.cfg.plan_dim = 21;  // Default channel widths from ValueNetConfig.
  shapes.batch = 64;
  shapes.min_nodes = 9;
  shapes.node_span = 9;
  return shapes;
}

/// neobench_train: the shapes the repository benchmark's `train` workload
/// retrains at (quick config, 711-wide query vectors, batch 32, trees of
/// about 9 nodes), so the retrain step has an A/B number steadier than the
/// end-to-end train_s.
TrainShapes NeobenchTrainShapes() {
  TrainShapes shapes;
  shapes.cfg.query_dim = 711;
  shapes.cfg.plan_dim = 21;
  shapes.cfg.query_fc = {64, 32};
  shapes.cfg.tree_channels = {32, 16};
  shapes.cfg.head_fc = {16};
  shapes.batch = 32;
  shapes.min_nodes = 5;
  shapes.node_span = 9;
  return shapes;
}

/// Steps a fresh network `steps` times on one fixed minibatch of `shapes`
/// and reports samples/sec.
TrainThroughput MeasureTrainThroughput(const TrainShapes& shapes, int steps) {
  const ValueNetConfig& cfg = shapes.cfg;
  ValueNetwork net(cfg);

  neo::util::Rng rng(5);
  std::vector<PlanSample> samples(static_cast<size_t>(shapes.batch));
  std::vector<const PlanSample*> ptrs;
  std::vector<float> targets;
  for (auto& s : samples) {
    const int nodes = shapes.min_nodes +
                      static_cast<int>(rng.NextBounded(shapes.node_span));
    s.query_vec = RandomMatrix(1, cfg.query_dim, rng);
    s.node_features = RandomMatrix(nodes, cfg.plan_dim, rng);
    s.tree.left.assign(static_cast<size_t>(nodes), -1);
    s.tree.right.assign(static_cast<size_t>(nodes), -1);
    for (int i = 0; i + 2 < nodes; i += 2) {
      s.tree.left[static_cast<size_t>(i)] = i + 1;
      s.tree.right[static_cast<size_t>(i)] = i + 2;
    }
    ptrs.push_back(&s);
    targets.push_back(static_cast<float>(rng.NextUniform(-1, 1)));
  }

  TrainThroughput out;
  out.batch = shapes.batch;
  out.first_loss = net.TrainBatch(ptrs, targets);  // Warm-up step (untimed).
  out.final_loss = net.TrainBatch(ptrs, targets);  // Buffers now at capacity.
  // Steady-state alloc probe: TrainBatch brackets its own work in an
  // AllocRegionScope, so RegionAllocs() counts exactly the step's heap
  // traffic. It must be zero once warm.
  neo::util::ArmAllocCounter(true);
  neo::util::ResetRegionAllocs();
  out.final_loss = net.TrainBatch(ptrs, targets);
  out.steady_allocs = neo::util::RegionAllocs();
  neo::util::ArmAllocCounter(false);
  net.ResetConvTrainStats();
  neo::util::Stopwatch watch;
  for (int i = 0; i < steps; ++i) out.final_loss = net.TrainBatch(ptrs, targets);
  const double total_s = watch.ElapsedSeconds();
  out.samples_per_sec = static_cast<double>(steps) * shapes.batch / total_s;
  out.step_ms_mean = total_s * 1000.0 / steps;
  out.peak_scratch_bytes = net.peak_training_scratch_bytes();
  out.conv_stats = net.ConvTrainStats();
  for (auto& s : out.conv_stats) {
    // Per-step averages keep the counters comparable across step counts.
    s.forward_madds /= static_cast<uint64_t>(steps);
    s.backward_madds /= static_cast<uint64_t>(steps);
    s.gather_bytes /= static_cast<uint64_t>(steps);
    s.rows_skipped /= static_cast<uint64_t>(steps);
  }
  for (size_t li = 0; li < out.conv_stats.size(); ++li) {
    out.conv_in.push_back(li == 0 ? cfg.plan_dim + cfg.query_fc.back()
                                  : cfg.tree_channels[li - 1]);
    out.conv_out.push_back(cfg.tree_channels[li]);
  }
  return out;
}

void PrintTrainArm(std::FILE* out, const char* name, const TrainThroughput& r,
                   const char* trailing_comma) {
  std::fprintf(out,
               "  \"%s\": {\"batch_size\": %d, \"samples_per_sec\": %.1f,"
               " \"step_ms_mean\": %.3f,"
               " \"first_loss\": %.6f, \"final_loss\": %.6f,"
               " \"peak_train_scratch_bytes\": %zu,"
               " \"steady_state_heap_allocs\": %llu}%s\n",
               name, r.batch, r.samples_per_sec, r.step_ms_mean,
               static_cast<double>(r.first_loss),
               static_cast<double>(r.final_loss), r.peak_scratch_bytes,
               static_cast<unsigned long long>(r.steady_allocs),
               trailing_comma);
}

/// Per-layer conv flop + gather-byte counters for one arm (per training step).
void PrintConvLayers(std::FILE* out, const char* name, const TrainThroughput& r,
                     const char* trailing_comma) {
  std::fprintf(out, "  \"%s\": [", name);
  for (size_t li = 0; li < r.conv_stats.size(); ++li) {
    const auto& s = r.conv_stats[li];
    std::fprintf(out,
                 "%s\n    {\"layer\": %zu, \"in_channels\": %d,"
                 " \"out_channels\": %d, \"fwd_madds_per_step\": %llu,"
                 " \"bwd_madds_per_step\": %llu, \"gather_bytes_per_step\": %llu,"
                 " \"rows_skipped_per_step\": %llu}",
                 li == 0 ? "" : ",", li, r.conv_in[li], r.conv_out[li],
                 static_cast<unsigned long long>(s.forward_madds),
                 static_cast<unsigned long long>(s.backward_madds),
                 static_cast<unsigned long long>(s.gather_bytes),
                 static_cast<unsigned long long>(s.rows_skipped));
  }
  std::fprintf(out, "\n  ]%s\n", trailing_comma);
}

void WriteTrainJson(const std::string& path, int steps) {
  const TrainThroughput sparse_train =
      MeasureTrainThroughput(SparseTrainShapes(), steps);
  const TrainThroughput neobench_train =
      MeasureTrainThroughput(NeobenchTrainShapes(), steps);

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_nn: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"micro_nn_train\",\n"
               "  \"batch_size\": %d,\n"
               "  \"steps\": %d,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"kernel_arch\": \"%s\",\n",
               sparse_train.batch, steps, std::thread::hardware_concurrency(),
               KernelArchString());
  PrintTrainArm(out, "sparse_train", sparse_train, ",");
  PrintTrainArm(out, "neobench_train", neobench_train, ",");
  PrintConvLayers(out, "conv_layers", sparse_train, ",");
  // Zero-alloc gate for the training path, over both arms. When the alloc
  // counter is compiled out (sanitizer builds) the gate is vacuous.
  const uint64_t steady_allocs =
      sparse_train.steady_allocs + neobench_train.steady_allocs;
  const bool counter_active = neo::util::AllocCounterActive();
  const bool zero_alloc = !counter_active || steady_allocs == 0;
  std::fprintf(out, "  \"alloc_counter_active\": %s,\n",
               counter_active ? "true" : "false");
  std::fprintf(out, "  \"steady_state_heap_allocs\": %llu,\n",
               static_cast<unsigned long long>(steady_allocs));
  std::fprintf(out, "  \"steady_state_zero_alloc\": %s\n}\n",
               zero_alloc ? "true" : "false");
  std::fclose(out);
  std::printf("TrainBatch throughput: sparse_train (batch %d) %.0f samples/s,"
              " neobench_train (batch %d) %.0f samples/s (%.3f ms/step);"
              " steady-state allocs/step %llu -> %s\n",
              sparse_train.batch, sparse_train.samples_per_sec,
              neobench_train.batch, neobench_train.samples_per_sec,
              neobench_train.step_ms_mean,
              static_cast<unsigned long long>(steady_allocs), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_train.json";
  bool filtered = false;
  bool json_requested = false;
  int steps = 60;
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
    } else if (arg.rfind("--json-steps=", 0) == 0) {
      steps = std::atoi(arg.substr(std::string("--json-steps=").size()).c_str());
      if (steps < 1) steps = 1;
    }
    if (arg.rfind("--benchmark_filter", 0) == 0) filtered = true;
  }
  if (!filtered || json_requested) WriteTrainJson(json_path, steps);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
