// GEMM micro-kernel bench: GFLOP/s of every kernel variant (forward row
// kernel, both backward transpose variants) under every runtime-dispatchable
// ISA arm, on the value network's conv and backward shapes. Emits
// BENCH_gemm.json so successive PRs can track raw kernel throughput per arm
// (the end-to-end search/train counterparts live in BENCH_search.json /
// BENCH_train.json).
//
// The google-benchmark suite runs after the JSON measurement; pass any
// benchmark flags (e.g. --benchmark_filter) as usual.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_main.h"
#include "src/nn/matrix.h"
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

enum class Variant { kMatMul, kTransposeB, kTransposeA };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kMatMul:
      return "matmul";
    case Variant::kTransposeB:
      return "transpose_b";
    default:
      return "transpose_a";
  }
}

/// One measured (variant, shape) cell. For kMatMul the shape is the forward
/// conv GEMM n x k -> m; for the transpose variants it is the equivalent
/// backward product (operands sized so the flop count is still 2*n*k*m).
struct GemmCase {
  Variant variant;
  const char* name;  ///< e.g. "conv_53to64"
  int n, k, m;
  bool conv_shape;  ///< Counts toward the conv-shape speedup summary.
};

/// Conv shapes at realistic row counts: a batched scoring round packs the
/// children of several expansions into one forest of a few hundred node rows
/// (BENCH_search.json's incremental arm), and the default channel stack is
/// 53 -> 64 -> 32 -> 16. Backward shapes mirror TrainBatch at batch 64
/// (~800 packed nodes, 3*cin concat columns).
const GemmCase kCases[] = {
    {Variant::kMatMul, "conv_53to64", 384, 53, 64, true},
    {Variant::kMatMul, "conv_64to32", 384, 64, 32, true},
    {Variant::kMatMul, "conv_32to16", 384, 32, 16, true},
    {Variant::kTransposeB, "bwd_dx_64x159", 384, 64, 159, false},
    {Variant::kTransposeA, "bwd_dw_159to64", 768, 159, 64, false},
    {Variant::kTransposeA, "bwd_dw_96to16", 768, 96, 16, false},
};

double MeasureGflops(const GemmCase& c) {
  neo::util::Rng rng(11);
  const Matrix a = RandomMatrix(c.n, c.k, rng);
  // Operand shapes per variant: kMatMul multiplies a (n x k) by b (k x m);
  // kTransposeB needs b as (m x k) (multiplied as b^T); kTransposeA consumes
  // a as (n x k) and b as (n x m), producing (k x m).
  const Matrix b = c.variant == Variant::kTransposeB ? RandomMatrix(c.m, c.k, rng)
                                                     : RandomMatrix(c.k, c.m, rng);
  const Matrix b_ta = RandomMatrix(c.n, c.m, rng);
  const auto run = [&]() {
    switch (c.variant) {
      case Variant::kMatMul:
        return MatMul(a, b);
      case Variant::kTransposeB:
        return MatMulTransposeB(a, b);
      default:
        return MatMulTransposeA(a, b_ta);
    }
  };
  volatile float sink = 0.0f;
  for (int i = 0; i < 3; ++i) sink += run().At(0, 0);  // Warm-up.
  // Best of three windows: a single-CPU container shares its core with the
  // rest of the system, so per-window throughput is noisy downward; the max
  // is the steady-state kernel rate.
  double best = 0.0;
  for (int w = 0; w < 3; ++w) {
    neo::util::Stopwatch watch;
    int iters = 0;
    do {
      sink += run().At(0, 0);
      ++iters;
    } while (watch.ElapsedSeconds() < 0.15);
    const double flops = 2.0 * c.n * c.k * c.m * iters;
    best = std::max(best, flops / watch.ElapsedSeconds() / 1e9);
  }
  (void)sink;
  return best;
}

bool WriteGemmJson(const std::string& path) {
  const std::vector<KernelIsa> isas = AvailableKernelIsas();
  // gflops[case][isa].
  std::vector<std::vector<double>> gflops(std::size(kCases));
  for (size_t ci = 0; ci < std::size(kCases); ++ci) {
    for (const KernelIsa isa : isas) {
      KernelIsaScope scope(isa);
      gflops[ci].push_back(MeasureGflops(kCases[ci]));
    }
  }

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_gemm: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"micro_gemm\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"kernel_arch\": \"%s\",\n"
               "  \"isas\": [",
               std::thread::hardware_concurrency(), KernelArchString());
  for (size_t i = 0; i < isas.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ", KernelIsaName(isas[i]));
  }
  std::fprintf(out, "],\n  \"shapes\": [\n");
  // Per-arm speedups are against the portable arm (isas[0]); the dispatched
  // arm's ratio is what the binary actually gains at runtime.
  const size_t active_idx = [&] {
    for (size_t i = 0; i < isas.size(); ++i) {
      if (isas[i] == ActiveKernelIsa()) return i;
    }
    return size_t{0};
  }();
  double min_conv_avx2 = 1e300, min_conv_active = 1e300;
  bool have_avx2 = false;
  for (size_t ci = 0; ci < std::size(kCases); ++ci) {
    const GemmCase& c = kCases[ci];
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"name\": \"%s\", \"n\": %d,"
                 " \"k\": %d, \"m\": %d, \"gflops\": {",
                 VariantName(c.variant), c.name, c.n, c.k, c.m);
    for (size_t i = 0; i < isas.size(); ++i) {
      std::fprintf(out, "%s\"%s\": %.2f", i == 0 ? "" : ", ",
                   KernelIsaName(isas[i]), gflops[ci][i]);
    }
    std::fprintf(out, "}");
    const double portable = gflops[ci][0];
    for (size_t i = 1; i < isas.size(); ++i) {
      const double speedup = gflops[ci][i] / portable;
      std::fprintf(out, ", \"%s_speedup_vs_portable\": %.2f",
                   KernelIsaName(isas[i]), speedup);
      if (c.conv_shape && isas[i] == KernelIsa::kAvx2) {
        min_conv_avx2 = std::min(min_conv_avx2, speedup);
        have_avx2 = true;
      }
      if (c.conv_shape && i == active_idx) {
        min_conv_active = std::min(min_conv_active, speedup);
      }
    }
    std::fprintf(out, "}%s\n", ci + 1 < std::size(kCases) ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  if (have_avx2) {
    std::fprintf(out, "  \"min_conv_avx2_speedup_vs_portable\": %.2f,\n",
                 min_conv_avx2);
  }
  if (active_idx > 0) {
    std::fprintf(out, "  \"min_conv_dispatched_speedup_vs_portable\": %.2f,\n",
                 min_conv_active);
  }
  // Note for readers of the ratios: when the portable baseline is compiled
  // with -march=native, on AVX-512 hosts it is itself 512-bit auto-vectorized
  // and the hand-written AVX2 arm's ceiling equals the portable arm's (2 ymm
  // FMA ports == 1 zmm FMA port); the dispatched arm is the ratio that
  // reflects what the binary gains. PortableArmCodegen() comes from the
  // library TU that actually carries the NEO_NATIVE_ARCH define.
  std::fprintf(out, "  \"portable_baseline\": \"%s\"\n}\n", PortableArmCodegen());
  std::fclose(out);
  std::printf("micro_gemm:");
  for (size_t ci = 0; ci < std::size(kCases); ++ci) {
    std::printf(" %s", kCases[ci].name);
    for (size_t i = 0; i < isas.size(); ++i) {
      std::printf(" %s=%.0f", KernelIsaName(isas[i]), gflops[ci][i]);
    }
    std::printf(";");
  }
  std::printf(" -> %s\n", path.c_str());
  return true;
}

/// google-benchmark arms: the forward row kernel per ISA on the first conv
/// shape (finer-grained interactive runs; the JSON covers the full matrix).
void BM_MatMulConvShape(benchmark::State& state) {
  const auto isa = static_cast<KernelIsa>(state.range(0));
  if (!KernelIsaAvailable(isa)) {
    state.SkipWithError("ISA unavailable on this machine");
    return;
  }
  KernelIsaScope scope(isa);
  neo::util::Rng rng(12);
  const Matrix a = RandomMatrix(384, 53, rng);
  const Matrix b = RandomMatrix(53, 64, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetLabel(KernelIsaName(isa));
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * 384 * 53 * 64,
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_MatMulConvShape)
    ->Arg(static_cast<int>(KernelIsa::kPortable))
    ->Arg(static_cast<int>(KernelIsa::kAvx2))
    ->Arg(static_cast<int>(KernelIsa::kAvx512));

}  // namespace

int main(int argc, char** argv) {
  return neo::bench::JsonBenchMain(
      argc, argv, "BENCH_gemm.json", /*count_flag=*/nullptr, /*count=*/0,
      [](const std::string& path, int) { return WriteGemmJson(path); });
}
