// Internal interface between the kernel dispatcher (matrix.cpp) and the
// per-ISA SIMD micro-kernel translation units (matrix_simd_avx2.cpp,
// matrix_simd_avx512.cpp). Nothing here is part of the public nn API —
// callers go through MatMul / MatMulPacked and the KernelIsa dispatch in
// matrix.h.
//
// Every SIMD arm shares one B layout: 16-float column panels (see
// PackBPanels below). A 16-float panel row is 64 bytes — two AVX2 ymm loads
// or exactly one AVX-512 zmm load — so the same packed buffer feeds both
// arms and PackedB never has to be rebuilt when the dispatch arm changes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace neo::nn::detail {

/// Width (floats) of one packed B column panel. Panel `j` carries columns
/// [16j, 16j+16) of B for every k row, k-major: float 16*p + jj of panel j is
/// B(p, 16j + jj). The last panel is zero-padded to the full width so the
/// micro-kernels always compute 16 lanes and mask only the store.
constexpr int kPanelWidth = 16;

inline int NumPanels(int m) { return (m + kPanelWidth - 1) / kPanelWidth; }
inline size_t PackedBSize(int k, int m) {
  return static_cast<size_t>(NumPanels(m)) * static_cast<size_t>(k) * kPanelWidth;
}

/// Blocking (floats) for the rank-1-update transpose-A kernels, shared by the
/// portable and SIMD arms so a retune cannot leave one arm behind: a
/// kTaBlockI x kTaBlockJ block of outputs stays well inside L2 while the
/// k-dim rows stream through L1.
constexpr int kTaBlockI = 64;
constexpr int kTaBlockJ = 128;

/// Packs b (k x m, row-major) into the panel layout above. Defined in
/// matrix.cpp (portable code; packing is pure data movement).
void PackBPanels(const float* b, int k, int m, float* packed);

/// Packs b^T where b is (m x k) row-major — i.e. the panel layout of the
/// (k x m) transpose — without materializing the transpose first.
void PackBTransposedPanels(const float* b, int k, int m, float* packed);

/// PackBPanels reading row p of b through brows[p] (nullptr = identity):
/// packs a row gather of b without materializing it.
void PackBPanelsGathered(const float* b, const int* brows, int k, int m,
                         float* packed);

/// Per-step Adam scalars shared by every dispatch arm's fused update kernel.
/// bc1/bc2 are the bias-correction denominators (1 - beta^t) for this step.
struct AdamScalars {
  float lr;
  float beta1;
  float beta2;
  float eps;
  float weight_decay;
  float bc1;
  float bc2;
};

/// One dispatch arm's micro-kernels. Every entry obeys the matrix.h
/// determinism contract: each output element's summation order is a fixed
/// function of the shape alone, so any partition of the output rows (row
/// subsets, tile boundaries) yields bit-identical values.
struct SimdGemmKernels {
  const char* name;

  /// Output rows [r0, r1) of a (n x k) times b (k x m), with b pre-packed
  /// into 16-float panels. Each output element is a single FMA chain over k
  /// in ascending order. `arows`, when non-null, maps GEMM row r to row
  /// arows[r] of `a` — the zero-copy gather the sparse training conv rides
  /// (output rows are never remapped). An indexed multiply is bit-identical
  /// to multiplying the materialized gather: the kernels read the same
  /// values in the same order.
  void (*gemm_rows)(const float* a, const int* arows, const float* packed_b,
                    float* o, int64_t r0, int64_t r1, int k, int m);

  /// Accumulating twin of gemm_rows: o += a * b, implemented by initializing
  /// each output element's FMA chain FROM the existing o value instead of
  /// zero, then chaining over k ascending exactly like gemm_rows. Because
  /// every k step is fma(a_p, b_p, acc) with a single rounding, a zero a
  /// entry is an exact no-op (see MatMulTransposeAInto's contract in
  /// matrix.h).
  void (*gemm_acc_rows)(const float* a, const int* arows, const float* packed_b,
                        float* o, int64_t r0, int64_t r1, int k, int m);

  /// Rank-1-update accumulation for a^T (a: n x k) times b (n x m): adds
  /// row r of a (x) row r of b into output rows [i0, i1) for r ascending, the
  /// same traversal as the portable MatMulTransposeARows (including the
  /// zero-skip on a's entries). Summation order per output element is
  /// ascending input row r. `arows`/`brows` optionally remap input row r to
  /// a[arows[r]] / b[brows[r]] (zero-copy gathered weight gradients).
  void (*ta_update_rows)(const float* a, const int* arows, const float* b,
                         const int* brows, float* o, int64_t i0, int64_t i1,
                         int n, int k, int m);

  /// Fused Adam update over elements [i0, i1): m/v/w are read, updated, and
  /// written back in one sweep with no temporaries. The per-element
  /// arithmetic is the exact correctly-rounded op sequence of
  /// detail::AdamUpdateScalar in matrix.cpp (explicit fma / mul / div / sqrt,
  /// never compiler-contracted), so every arm — and the scalar tail inside a
  /// vector arm — produces bit-identical parameters for any element
  /// partition.
  void (*adam_update)(float* w, float* m, float* v, const float* g,
                      int64_t i0, int64_t i1, const AdamScalars& s);
};

/// The canonical per-element Adam step (defined in matrix.cpp, declared here
/// so the SIMD TUs' scalar tails share it). Every operation is an explicit
/// single-rounding fmaf / mul / div / sqrt, mirroring the vector kernels
/// lane-for-lane.
void AdamUpdateScalarRange(float* w, float* m, float* v, const float* g,
                           int64_t i0, int64_t i1, const AdamScalars& s);

/// Arm accessors: non-null iff the TU was compiled with the ISA available to
/// the compiler. Whether the *CPU* supports the ISA is the dispatcher's
/// problem (KernelIsaAvailable checks cpuid as well).
const SimdGemmKernels* Avx2Kernels();
const SimdGemmKernels* Avx512Kernels();

}  // namespace neo::nn::detail
