// Micro-benchmarks (google-benchmark): neural network primitives. Also
// emits BENCH_train.json — packed-forest TrainBatch throughput at two shapes
// (sparse_train: the default widths on dense query vectors; neobench_train:
// the repository benchmark's retrain shapes, with minibatches drawn over 40
// JOB-shaped sparse query vectors), the query columns the first Linear
// keeps per step and per-layer conv flop/byte counters — so the
// training-path perf trajectory stays tracked (the inference counterpart
// lives in micro_search's BENCH_search.json). That a warm training step
// allocates nothing at both shapes is a test:
// ValueNetworkTest.TrainBatchSteadyStateAllocatesNothing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_main.h"
#include "src/nn/value_network.h"
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
  double kept_columns_mean = 0.0;  ///< Query columns the first Linear keeps.
  float first_loss = 0.0f;
  float final_loss = 0.0f;
  size_t peak_scratch_bytes = 0;
  std::vector<TreeConv::TrainStats> conv_stats;  ///< Per layer, per step.
  std::vector<int> conv_in, conv_out;
};

/// One training arm's shapes: the network, the minibatch size, the tree
/// sizes (left-deep-ish trees of `min_nodes` + [0, `node_span`) nodes) and
/// the query vectors: `queries` = 0 trains one fixed minibatch whose samples
/// each carry a dense random query vector; otherwise the steps cycle through
/// kMinibatches minibatches, each of `batch` draws uniform over `queries`
/// fixed JobQueryVectors.
struct TrainShapes {
  ValueNetConfig cfg;
  int batch = 0;
  int min_nodes = 0;
  int node_span = 0;
  int queries = 0;
};

constexpr int kMinibatches = 16;

/// sparse_train: the default widths (paper-shaped 64/32/16 conv stack) on a
/// batch-64 set of 9-17-node trees, dense query vectors: the arm where the
/// query stack's first Linear keeps every column.
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
/// retrains at (quick config, 711-wide query vectors, batch 32 drawn over
/// its 40 training queries, trees of about 9 nodes), so the retrain step has
/// an A/B number steadier than the end-to-end train_s.
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
  shapes.queries = 40;
  return shapes;
}

/// `queries` query vectors shaped like JOB's under R-Vector featurization.
/// Counted on neobench's train workload at seed 7: a query vector is 9.4%
/// non-zero (about 67 of 711), only 180 of the 711 columns are non-zero for
/// any of the 132 JOB queries, and a minibatch of 32 draws over the 40
/// training queries holds 22.2 distinct queries whose non-zero columns
/// number 170.0 (227.3 in aligned groups of four). Here the 180 columns are
/// 18 runs of 10 adjacent columns; 20 of them belong to one query each, and
/// every query draws the rest of its 67 non-zeros from the other 160, so a
/// draw of 32 keeps about 171.
std::vector<Matrix> JobQueryVectors(int query_dim, int queries,
                                    neo::util::Rng& rng) {
  constexpr int kRuns = 18, kRunWidth = 10, kOwned = 20, kNonZeros = 67;
  std::vector<int> slots(static_cast<size_t>(query_dim / kRunWidth));
  for (size_t i = 0; i < slots.size(); ++i) slots[i] = static_cast<int>(i);
  rng.Shuffle(slots);
  std::vector<int> columns;
  for (int run = 0; run < kRuns; ++run) {
    for (int j = 0; j < kRunWidth; ++j) {
      columns.push_back(slots[static_cast<size_t>(run)] * kRunWidth + j);
    }
  }
  rng.Shuffle(columns);
  const std::vector<int> owned(columns.begin(), columns.begin() + kOwned);
  std::vector<int> shared(columns.begin() + kOwned, columns.end());
  std::vector<Matrix> out;
  for (int q = 0; q < queries; ++q) {
    Matrix v(1, query_dim);
    int want = kNonZeros;
    if (q < kOwned) {
      v.At(0, owned[static_cast<size_t>(q)]) =
          static_cast<float>(rng.NextUniform(0.05, 1));
      --want;
    }
    rng.Shuffle(shared);
    for (int i = 0; i < want; ++i) {
      v.At(0, shared[static_cast<size_t>(i)]) =
          static_cast<float>(rng.NextUniform(0.05, 1));
    }
    out.push_back(std::move(v));
  }
  return out;
}

/// Columns of the minibatch's query vectors the query stack's first Linear
/// keeps: the aligned groups of DroppableKGroupWidth() columns that hold a
/// non-zero entry.
int KeptQueryColumns(const std::vector<const Matrix*>& query_vecs) {
  const int dim = query_vecs[0]->cols();
  const int group = DroppableKGroupWidth();
  int kept = 0;
  for (int c0 = 0; c0 < dim; c0 += group) {
    const int c1 = std::min(dim, c0 + group);
    bool any = false;
    for (const Matrix* q : query_vecs) {
      for (int c = c0; c < c1; ++c) any |= q->At(0, c) != 0.0f;
    }
    if (any) kept += c1 - c0;
  }
  return kept;
}

/// Steps a fresh network `steps` times on `shapes`' minibatches and reports
/// samples/sec. Every minibatch trains twice before the clock starts, so
/// the timed steps run at the buffers' high-water marks.
TrainThroughput MeasureTrainThroughput(const TrainShapes& shapes, int steps) {
  const ValueNetConfig& cfg = shapes.cfg;
  ValueNetwork net(cfg);

  neo::util::Rng rng(5);
  const std::vector<Matrix> job_queries =
      shapes.queries > 0 ? JobQueryVectors(cfg.query_dim, shapes.queries, rng)
                         : std::vector<Matrix>();
  const int minibatches = shapes.queries > 0 ? kMinibatches : 1;
  const size_t total = static_cast<size_t>(minibatches) * shapes.batch;
  std::vector<PlanSample> samples(total);
  std::vector<const Matrix*> query_vecs(total);
  std::vector<const PlanSample*> ptrs;
  std::vector<float> targets;
  for (size_t i = 0; i < total; ++i) {
    PlanSample& s = samples[i];
    const int nodes = shapes.min_nodes +
                      static_cast<int>(rng.NextBounded(shapes.node_span));
    if (shapes.queries > 0) {
      query_vecs[i] = &job_queries[rng.NextBounded(job_queries.size())];
    } else {
      s.query_vec = RandomMatrix(1, cfg.query_dim, rng);
      query_vecs[i] = &s.query_vec;
    }
    s.node_features = RandomMatrix(nodes, cfg.plan_dim, rng);
    s.tree.left.assign(static_cast<size_t>(nodes), -1);
    s.tree.right.assign(static_cast<size_t>(nodes), -1);
    for (int j = 0; j + 2 < nodes; j += 2) {
      s.tree.left[static_cast<size_t>(j)] = j + 1;
      s.tree.right[static_cast<size_t>(j)] = j + 2;
    }
    ptrs.push_back(&s);
    targets.push_back(static_cast<float>(rng.NextUniform(-1, 1)));
  }
  const auto train = [&](int mb) {
    const size_t at = static_cast<size_t>(mb) * shapes.batch;
    return net.TrainBatch(&ptrs[at], &targets[at],
                          static_cast<size_t>(shapes.batch), &query_vecs[at]);
  };

  TrainThroughput out;
  out.batch = shapes.batch;
  for (int mb = 0; mb < minibatches; ++mb) {
    const std::vector<const Matrix*> batch_queries(
        query_vecs.begin() + static_cast<ptrdiff_t>(mb) * shapes.batch,
        query_vecs.begin() + static_cast<ptrdiff_t>(mb + 1) * shapes.batch);
    out.kept_columns_mean += KeptQueryColumns(batch_queries);
  }
  out.kept_columns_mean /= minibatches;
  out.first_loss = train(0);  // Warm-up passes (untimed).
  for (int i = 1; i < 2 * minibatches; ++i) out.final_loss = train(i % minibatches);
  net.ResetConvTrainStats();
  neo::util::Stopwatch watch;
  for (int i = 0; i < steps; ++i) out.final_loss = train(i % minibatches);
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
               " \"step_ms_mean\": %.3f, \"query_kept_columns_mean\": %.1f,"
               " \"first_loss\": %.6f, \"final_loss\": %.6f,"
               " \"peak_train_scratch_bytes\": %zu}%s\n",
               name, r.batch, r.samples_per_sec, r.step_ms_mean,
               r.kept_columns_mean, static_cast<double>(r.first_loss),
               static_cast<double>(r.final_loss), r.peak_scratch_bytes,
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

bool WriteTrainJson(const std::string& path, int steps) {
  const TrainThroughput sparse_train =
      MeasureTrainThroughput(SparseTrainShapes(), steps);
  const TrainThroughput neobench_train =
      MeasureTrainThroughput(NeobenchTrainShapes(), steps);

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_nn: cannot write %s\n", path.c_str());
    return false;
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
  PrintConvLayers(out, "conv_layers", sparse_train, "");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("TrainBatch throughput: sparse_train (batch %d) %.0f samples/s"
              " (%.3f ms/step), neobench_train (batch %d) %.0f samples/s"
              " (%.3f ms/step, %.1f query columns kept) -> %s\n",
              sparse_train.batch, sparse_train.samples_per_sec,
              sparse_train.step_ms_mean, neobench_train.batch,
              neobench_train.samples_per_sec, neobench_train.step_ms_mean,
              neobench_train.kept_columns_mean, path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  return neo::bench::JsonBenchMain(argc, argv, "BENCH_train.json", "--json-steps",
                                   /*count=*/60, WriteTrainJson);
}
