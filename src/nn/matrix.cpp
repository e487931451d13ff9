#include "src/nn/matrix.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "src/nn/matrix_simd.h"

namespace neo::nn {

// Optimized GEMM kernels (this TU is compiled -O3; see CMakeLists.txt).
//
// MatMul — the inference hot path (tree-conv + FC forward) — uses a
// register-blocked kernel: outputs are produced in fixed 16-wide column
// chunks held in registers across the whole k sweep, with four interleaved
// k-chains per chunk so the FMA accumulation pipeline stays full even at the
// small output widths (16-64 channels) the value network uses.
//
// Numerical contract: each output element's summation order is a fixed
// function of (k, m) only — independent of the row's position and of how many
// rows the call carries. Scoring one plan or a packed batch of plans
// therefore yields bit-identical values, which keeps batched and per-
// candidate search decisions in lockstep. Results may differ from the
// reference kernels by accumulation-order ulps (tests allow 1e-5).
//
// The backward-only kernels (MatMulTransposeA/B) are built on the same row
// kernel where it wins: MatMulTransposeB always materializes b^T and uses
// it (so its outputs sum in the row kernel's interleaved-chain order, not
// the reference ascending-k order); MatMulTransposeA does the same for
// narrow outputs and otherwise keeps a rank-1-update kernel whose outputs
// sum in ascending input-row order. Both differ from the reference kernels
// by accumulation-order ulps; both are deterministic for a given shape.

namespace {

inline int MinInt(int a, int b) { return a < b ? a : b; }

// ---- Kernel dispatch state -------------------------------------------------

// -1 = not yet initialized; otherwise a KernelIsa value. Atomic (relaxed)
// so concurrent searches can read it while a bench/test thread switches arms
// without a data race; the arm itself is process-wide configuration.
std::atomic<int> g_kernel_isa{-1};
std::once_flag g_kernel_isa_once;

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports includes the OS XSAVE/ymm-state check.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool CpuSupportsAvx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

const detail::SimdGemmKernels* KernelsFor(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAvx2:
      return detail::Avx2Kernels();
    case KernelIsa::kAvx512:
      return detail::Avx512Kernels();
    default:
      return nullptr;
  }
}

KernelIsa DetectStartupIsa() {
  const char* force = std::getenv("NEO_FORCE_PORTABLE");
  if (force != nullptr && force[0] != '\0' && std::strcmp(force, "0") != 0) {
    return KernelIsa::kPortable;
  }
  if (const char* pick = std::getenv("NEO_KERNEL_ISA")) {
    for (KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
      if (std::strcmp(pick, KernelIsaName(isa)) == 0 && KernelIsaAvailable(isa)) {
        return isa;
      }
    }
    // Unknown or unavailable request: fall through to auto-detection rather
    // than crash a startup path that never calls back into user code.
  }
  return BestKernelIsa();
}

void EnsureKernelIsaInit() {
  std::call_once(g_kernel_isa_once, [] {
    g_kernel_isa.store(static_cast<int>(DetectStartupIsa()),
                       std::memory_order_relaxed);
  });
}

/// The active arm's SIMD kernels, or nullptr when the portable arm is active.
const detail::SimdGemmKernels* ActiveSimdKernels() {
  return KernelsFor(ActiveKernelIsa());
}

}  // namespace

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kAvx512:
      return "avx512";
    default:
      return "portable";
  }
}

bool KernelIsaAvailable(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAvx2:
      return detail::Avx2Kernels() != nullptr && CpuSupportsAvx2();
    case KernelIsa::kAvx512:
      return detail::Avx512Kernels() != nullptr && CpuSupportsAvx512();
    default:
      return true;
  }
}

KernelIsa BestKernelIsa() {
  if (KernelIsaAvailable(KernelIsa::kAvx512)) return KernelIsa::kAvx512;
  if (KernelIsaAvailable(KernelIsa::kAvx2)) return KernelIsa::kAvx2;
  return KernelIsa::kPortable;
}

std::vector<KernelIsa> AvailableKernelIsas() {
  std::vector<KernelIsa> isas = {KernelIsa::kPortable};
  for (KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (KernelIsaAvailable(isa)) isas.push_back(isa);
  }
  return isas;
}

KernelIsa ActiveKernelIsa() {
  EnsureKernelIsaInit();
  return static_cast<KernelIsa>(g_kernel_isa.load(std::memory_order_relaxed));
}

void SetKernelIsa(KernelIsa isa) {
  NEO_CHECK(KernelIsaAvailable(isa));
  EnsureKernelIsaInit();  // A later lazy init must not clobber the override.
  g_kernel_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

int DroppableKGroupWidth() {
  // MatMulRowChunk's four interleaved chains; the SIMD arms' single chain.
  return ActiveSimdKernels() != nullptr ? 1 : 4;
}

const char* KernelArchString() { return KernelIsaName(ActiveKernelIsa()); }

const char* PortableArmCodegen() {
#ifdef NEO_NATIVE_ARCH
  return "explicit avx2 autovec (NEO_NATIVE_ARCH)";
#else
  return "march=native autovec where available";
#endif
}

namespace {

/// One output row x one 16-wide (or `w`-wide tail) column chunk: four
/// interleaved k-chains c0..c3 (p % 4), folded as (c0+c1)+(c2+c3). The chunk
/// accumulators live in vector registers for the whole k sweep.
template <bool kFullWidth>
inline void MatMulRowChunk(const float* __restrict arow,
                           const float* __restrict bdata, float* __restrict orow,
                           int k, int m, int jc, int w) {
  constexpr int kW = 16;
  float c0[kW] = {0}, c1[kW] = {0}, c2[kW] = {0}, c3[kW] = {0};
  const int width = kFullWidth ? kW : w;
  int p = 0;
  for (; p + 3 < k; p += 4) {
    const float av0 = arow[p], av1 = arow[p + 1];
    const float av2 = arow[p + 2], av3 = arow[p + 3];
    const float* __restrict b0 = bdata + static_cast<size_t>(p) * m + jc;
    const float* __restrict b1 = b0 + m;
    const float* __restrict b2 = b1 + m;
    const float* __restrict b3 = b2 + m;
    for (int jj = 0; jj < width; ++jj) {
      c0[jj] += av0 * b0[jj];
      c1[jj] += av1 * b1[jj];
      c2[jj] += av2 * b2[jj];
      c3[jj] += av3 * b3[jj];
    }
  }
  for (; p < k; ++p) {
    const float av = arow[p];
    const float* __restrict bp = bdata + static_cast<size_t>(p) * m + jc;
    for (int jj = 0; jj < width; ++jj) c0[jj] += av * bp[jj];
  }
  for (int jj = 0; jj < width; ++jj) {
    orow[jc + jj] = (c0[jj] + c1[jj]) + (c2[jj] + c3[jj]);
  }
}

/// Output rows [r0, r1) of a * b. `arows` optionally remaps A rows (zero-copy
/// gather; output rows keep their positions) — the values, and hence the
/// bits, match multiplying the materialized gather.
void MatMulRows(const float* __restrict adata, const int* __restrict arows,
                const float* __restrict bdata, float* __restrict odata,
                int64_t r0, int64_t r1, int k, int m) {
  constexpr int kW = 16;
  for (int64_t i = r0; i < r1; ++i) {
    const float* __restrict arow =
        adata + static_cast<size_t>(arows != nullptr ? arows[i] : i) * k;
    float* __restrict orow = odata + static_cast<size_t>(i) * m;
    int jc = 0;
    for (; jc + kW <= m; jc += kW) {
      MatMulRowChunk<true>(arow, bdata, orow, k, m, jc, kW);
    }
    if (jc < m) MatMulRowChunk<false>(arow, bdata, orow, k, m, jc, m - jc);
  }
}

/// Accumulating portable row chunk for MatMulTransposeAInto's transposed-GEMM
/// strategy: orow[j] becomes a SINGLE ascending-k chain seeded from the
/// existing orow[j] — deliberately not the 4-interleaved-chain structure of
/// MatMulRowChunk. With one chain, a zero a entry contributes an exact no-op
/// at its own position, so inserting zero rows into the reduction cannot move
/// any product between chains or change any output bit. The jj lanes stay
/// independent, so the loop still vectorizes across the chunk width.
template <bool kFullWidth>
inline void MatMulAccRowChunk(const float* __restrict arow,
                              const float* __restrict bdata,
                              float* __restrict orow, int k, int m, int jc,
                              int w) {
  constexpr int kW = 16;
  float acc[kW];
  const int width = kFullWidth ? kW : w;
  for (int jj = 0; jj < width; ++jj) acc[jj] = orow[jc + jj];
  for (int p = 0; p < k; ++p) {
    const float av = arow[p];
    const float* __restrict bp = bdata + static_cast<size_t>(p) * m + jc;
    for (int jj = 0; jj < width; ++jj) acc[jj] += av * bp[jj];
  }
  for (int jj = 0; jj < width; ++jj) orow[jc + jj] = acc[jj];
}

/// Accumulating twin of MatMulRows (o += a * b); see MatMulAccRowChunk.
void MatMulAccRows(const float* __restrict adata, const int* __restrict arows,
                   const float* __restrict bdata, float* __restrict odata,
                   int64_t r0, int64_t r1, int k, int m) {
  constexpr int kW = 16;
  for (int64_t i = r0; i < r1; ++i) {
    const float* __restrict arow =
        adata + static_cast<size_t>(arows != nullptr ? arows[i] : i) * k;
    float* __restrict orow = odata + static_cast<size_t>(i) * m;
    int jc = 0;
    for (; jc + kW <= m; jc += kW) {
      MatMulAccRowChunk<true>(arow, bdata, orow, k, m, jc, kW);
    }
    if (jc < m) MatMulAccRowChunk<false>(arow, bdata, orow, k, m, jc, m - jc);
  }
}

// a * b^T has no dedicated row routine: at the backward's shapes (k of
// 32-64, m of 100-160) dot-product traversal of b is L1-bandwidth bound and
// an order of magnitude slower than the register-blocked row kernel, so
// MatMulTransposeB materializes b^T once (a (m x k) copy, trivial next to
// the product) and reuses MatMulRows.

/// Output rows [i0, i1) of a^T * b (a: n x k, out: k x m). Each output
/// accumulates a rank-1 update per input row r; r stays the outermost
/// accumulation dimension so every output sums in ascending-r order.
void MatMulTransposeARows(const float* __restrict adata,
                          const int* __restrict arows,
                          const float* __restrict bdata,
                          const int* __restrict brows, float* __restrict odata,
                          int64_t i0, int64_t i1, int n, int k, int m) {
  for (int jc = 0; jc < m; jc += detail::kTaBlockJ) {
    const int jend = MinInt(jc + detail::kTaBlockJ, m);
    const int jlen = jend - jc;
    for (int64_t icc = i0; icc < i1; icc += detail::kTaBlockI) {
      const int64_t icend = std::min<int64_t>(icc + detail::kTaBlockI, i1);
      for (int r = 0; r < n; ++r) {
        const float* __restrict arow =
            adata + static_cast<size_t>(arows != nullptr ? arows[r] : r) * k;
        const float* __restrict brow =
            bdata + static_cast<size_t>(brows != nullptr ? brows[r] : r) * m + jc;
        for (int64_t i = icc; i < icend; ++i) {
          const float av = arow[i];
          if (av == 0.0f) continue;
          float* __restrict orow = odata + static_cast<size_t>(i) * m + jc;
          for (int j = 0; j < jlen; ++j) orow[j] += av * brow[j];
        }
      }
    }
  }
}

}  // namespace

namespace detail {

void PackBPanels(const float* b, int k, int m, float* packed) {
  const int panels = NumPanels(m);
  for (int pj = 0; pj < panels; ++pj) {
    const int jc = pj * kPanelWidth;
    const int w = MinInt(kPanelWidth, m - jc);
    float* dst = packed + static_cast<size_t>(pj) * k * kPanelWidth;
    for (int p = 0; p < k; ++p, dst += kPanelWidth) {
      const float* src = b + static_cast<size_t>(p) * m + jc;
      for (int jj = 0; jj < w; ++jj) dst[jj] = src[jj];
      for (int jj = w; jj < kPanelWidth; ++jj) dst[jj] = 0.0f;
    }
  }
}

void PackBPanelsGathered(const float* b, const int* brows, int k, int m,
                         float* packed) {
  const int panels = NumPanels(m);
  for (int pj = 0; pj < panels; ++pj) {
    const int jc = pj * kPanelWidth;
    const int w = MinInt(kPanelWidth, m - jc);
    float* dst = packed + static_cast<size_t>(pj) * k * kPanelWidth;
    for (int p = 0; p < k; ++p, dst += kPanelWidth) {
      const float* src =
          b + static_cast<size_t>(brows != nullptr ? brows[p] : p) * m + jc;
      for (int jj = 0; jj < w; ++jj) dst[jj] = src[jj];
      for (int jj = w; jj < kPanelWidth; ++jj) dst[jj] = 0.0f;
    }
  }
}

void PackBTransposedPanels(const float* b, int k, int m, float* packed) {
  // b is (m x k) row-major; pack its transpose's panels (column panel jc of
  // b^T is rows [jc, jc+16) of b read column-wise).
  const int panels = NumPanels(m);
  for (int pj = 0; pj < panels; ++pj) {
    const int jc = pj * kPanelWidth;
    const int w = MinInt(kPanelWidth, m - jc);
    float* dst = packed + static_cast<size_t>(pj) * k * kPanelWidth;
    for (int p = 0; p < k; ++p, dst += kPanelWidth) {
      for (int jj = 0; jj < w; ++jj) {
        dst[jj] = b[static_cast<size_t>(jc + jj) * k + p];
      }
      for (int jj = w; jj < kPanelWidth; ++jj) dst[jj] = 0.0f;
    }
  }
}

}  // namespace detail

void PackedB::Assign(const Matrix& b) { Assign(b.data(), b.rows(), b.cols()); }

void PackedB::Assign(const float* b, int rows, int cols) {
  if (b_.rows() != rows || b_.cols() != cols) b_ = Matrix(rows, cols);
  std::copy(b, b + static_cast<size_t>(rows) * cols, b_.data());
  panels_.resize(detail::PackedBSize(rows, cols));
  detail::PackBPanels(b, rows, cols, panels_.data());
}

namespace {

/// Prepares a B-panel pack buffer: the caller's reusable GemmScratch when
/// provided (growth-only resize — no per-call realloc or re-zero), a local
/// otherwise.
float* PreparePack(GemmScratch* scratch, std::vector<float>* local, int k,
                   int m) {
  std::vector<float>* buf = scratch != nullptr ? &scratch->pack : local;
  if (buf->size() < detail::PackedBSize(k, m)) {
    buf->resize(detail::PackedBSize(k, m));
  }
  return buf->data();
}

/// Shared body of MatMul and MatMulBlock: out = a * b for a raw row-major
/// right-hand side of k rows of m floats (row p is row brows[p] of bdata;
/// nullptr: row p), written into the Reshape'd `out`.
void MatMulImplInto(const Matrix& a, const int* arows, int nrows,
                    const float* bdata, const int* brows, int k, int m,
                    Matrix* out, GemmScratch* scratch) {
  NEO_CHECK(a.cols() == k);
  const int n = arows != nullptr ? nrows : a.rows();
  out->Reshape(n, m);
  if (k == 0) {
    out->Zero();
    return;
  }
  const float* adata = a.data();
  float* odata = out->data();
  std::vector<float> local;
  if (const detail::SimdGemmKernels* simd = ActiveSimdKernels()) {
    float* packed = PreparePack(scratch, &local, k, m);
    detail::PackBPanelsGathered(bdata, brows, k, m, packed);
    simd->gemm_rows(adata, arows, packed, odata, 0, n, k, m);
    return;
  }
  if (brows != nullptr) {
    // The portable arm reads b in place, so a row gather is copied into the
    // pack buffer, which it otherwise never uses.
    float* gathered = PreparePack(scratch, &local, k, m);
    for (int p = 0; p < k; ++p) {
      const float* src = bdata + static_cast<size_t>(brows[p]) * m;
      std::copy(src, src + m, gathered + static_cast<size_t>(p) * m);
    }
    bdata = gathered;
  }
  MatMulRows(adata, arows, bdata, odata, 0, n, k, m);
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  NEO_CHECK(a.cols() == b.rows());
  Matrix out;
  MatMulImplInto(a, nullptr, 0, b.data(), nullptr, b.rows(), b.cols(), &out,
                 nullptr);
  return out;
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                GemmScratch* scratch) {
  NEO_CHECK(a.cols() == b.rows());
  MatMulImplInto(a, nullptr, 0, b.data(), nullptr, b.rows(), b.cols(), out,
                 scratch);
}

void MatMulGatherBInto(const Matrix& a, const Matrix& b, const int* brows,
                       Matrix* out, GemmScratch* scratch) {
  NEO_CHECK(brows != nullptr || a.cols() == b.rows());
  MatMulImplInto(a, nullptr, 0, b.data(), brows, a.cols(), b.cols(), out,
                 scratch);
}

Matrix MatMulBlock(const Matrix& a, const float* b, int k, int m) {
  Matrix out;
  MatMulImplInto(a, nullptr, 0, b, nullptr, k, m, &out, nullptr);
  return out;
}

void MatMulBlockInto(const Matrix& a, const float* b, int k, int m,
                     Matrix* out, GemmScratch* scratch) {
  MatMulImplInto(a, nullptr, 0, b, nullptr, k, m, out, scratch);
}

void MatMulGatherBlockInto(const Matrix& a, const int* rows, int nrows,
                           const float* b, int k, int m, Matrix* out,
                           GemmScratch* scratch) {
  MatMulImplInto(a, rows, nrows, b, nullptr, k, m, out, scratch);
}

Matrix MatMulPacked(const Matrix& a, const PackedB& b) {
  NEO_CHECK(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  const int n = a.rows(), k = a.cols(), m = b.cols();
  const float* adata = a.data();
  float* odata = out.data();
  if (const detail::SimdGemmKernels* simd = ActiveSimdKernels()) {
    simd->gemm_rows(adata, nullptr, b.panels(), odata, 0, n, k, m);
    return out;
  }
  MatMulRows(adata, nullptr, b.unpacked().data(), odata, 0, n, k, m);
  return out;
}

void MatMulPackedInto(const Matrix& a, const PackedB& b, Matrix* out) {
  NEO_CHECK(a.cols() == b.rows());
  const int n = a.rows(), k = a.cols(), m = b.cols();
  out->Reshape(n, m);
  const float* adata = a.data();
  float* odata = out->data();
  if (const detail::SimdGemmKernels* simd = ActiveSimdKernels()) {
    simd->gemm_rows(adata, nullptr, b.panels(), odata, 0, n, k, m);
    return;
  }
  MatMulRows(adata, nullptr, b.unpacked().data(), odata, 0, n, k, m);
}

namespace {

/// Shared body of MatMulTransposeB and MatMulTransposeBBlock: out = a * b^T
/// for a raw row-major (m x k) right-hand side, into the Reshape'd `out`.
void MatMulTransposeBImplInto(const Matrix& a, const int* arows, int nrows,
                              const float* bdata, int m, Matrix* out,
                              GemmScratch* scratch) {
  const int n = arows != nullptr ? nrows : a.rows();
  const int k = a.cols();
  out->Reshape(n, m);
  const float* adata = a.data();
  float* odata = out->data();
  if (const detail::SimdGemmKernels* simd = ActiveSimdKernels()) {
    // Pack b^T's panels straight from b — no intermediate transpose matrix.
    std::vector<float> local;
    const float* packed = PreparePack(scratch, &local, k, m);
    detail::PackBTransposedPanels(bdata, k, m, const_cast<float*>(packed));
    simd->gemm_rows(adata, arows, packed, odata, 0, n, k, m);
    return;
  }
  Matrix bt_local;
  Matrix& bt = scratch != nullptr ? scratch->staging : bt_local;
  bt.Reshape(k, m);  // Fully overwritten below.
  for (int r = 0; r < m; ++r) {
    const float* src = bdata + static_cast<size_t>(r) * k;
    for (int c = 0; c < k; ++c) bt.At(c, r) = src[c];
  }
  MatMulRows(adata, arows, bt.data(), odata, 0, n, k, m);
}

}  // namespace

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  NEO_CHECK(a.cols() == b.cols());
  Matrix out;
  MatMulTransposeBImplInto(a, nullptr, 0, b.data(), b.rows(), &out, nullptr);
  return out;
}

void MatMulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* out,
                          GemmScratch* scratch) {
  NEO_CHECK(a.cols() == b.cols());
  MatMulTransposeBImplInto(a, nullptr, 0, b.data(), b.rows(), out, scratch);
}

Matrix MatMulTransposeBBlock(const Matrix& a, const float* b, int m) {
  Matrix out;
  MatMulTransposeBImplInto(a, nullptr, 0, b, m, &out, nullptr);
  return out;
}

void MatMulTransposeBBlockInto(const Matrix& a, const float* b, int m,
                               Matrix* out, GemmScratch* scratch) {
  MatMulTransposeBImplInto(a, nullptr, 0, b, m, out, scratch);
}

void MatMulGatherTransposeBBlockInto(const Matrix& a, const int* rows,
                                     int nrows, const float* b, int m,
                                     Matrix* out, GemmScratch* scratch) {
  MatMulTransposeBImplInto(a, rows, nrows, b, m, out, scratch);
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  NEO_CHECK(a.rows() == b.rows());
  const int n = a.rows(), k = a.cols(), m = b.cols();
  // Narrow outputs starve the rank-1-update kernel (each input row touches
  // only m accumulators — and it moves an output cache line per vector FMA);
  // transposing a once and running the register-blocked row kernel is 2-4x
  // faster there. Under the SIMD arms the row kernel wins across the whole
  // backward m range, so those arms transpose for any backward-sized m,
  // while the portable arm keeps the m <= 48 condition it was tuned with
  // (wide outputs + short inputs keep the update kernel, which also skips
  // zero inputs). The branch is a fixed function of (shape, arm), so
  // within-arm results stay deterministic.
  const detail::SimdGemmKernels* simd = ActiveSimdKernels();
  const int m_transpose_max = simd != nullptr ? 160 : 48;
  if (n >= 64 && m <= m_transpose_max) {
    Matrix at(k, n);
    for (int r = 0; r < n; ++r) {
      const float* src = a.Row(r);
      for (int c = 0; c < k; ++c) at.At(c, r) = src[c];
    }
    Matrix out(k, m);
    const float* atdata = at.data();
    const float* bdata = b.data();
    float* odata = out.data();
    if (simd != nullptr) {
      std::vector<float> local;
      const float* packed = PreparePack(nullptr, &local, n, m);
      detail::PackBPanels(bdata, n, m, const_cast<float*>(packed));
      simd->gemm_rows(atdata, nullptr, packed, odata, 0, k, n, m);
      return out;
    }
    MatMulRows(atdata, nullptr, bdata, odata, 0, k, n, m);
    return out;
  }
  Matrix out(k, m);
  if (simd != nullptr) {
    simd->ta_update_rows(a.data(), nullptr, b.data(), nullptr, out.data(), 0, k,
                         n, k, m);
  } else {
    MatMulTransposeARows(a.data(), nullptr, b.data(), nullptr, out.data(), 0, k,
                         n, k, m);
  }
  return out;
}

namespace {

/// Shared body of MatMulTransposeAInto and its zero-copy-gather variant:
/// out += a[arows]^T b[brows] over `n` (possibly remapped) input rows.
void MatMulTransposeAIntoImpl(const Matrix& a, const int* arows,
                              const Matrix& b, const int* brows, int n,
                              float* out, GemmScratch* scratch) {
  const int k = a.cols(), m = b.cols();
  const float* adata = a.data();
  const float* bdata = b.data();
  // Strategy choice is a function of (k, m, arm) ONLY — unlike
  // MatMulTransposeA, n (the reduction length) does not participate, so a
  // gradient block's summation path never depends on how many rows the
  // caller gathers (see matrix.h). Both strategies sum ascending input rows
  // with exact-no-op zero rows: the transposed-GEMM path seeds a single
  // per-element chain from `out` (gemm_acc_rows / MatMulAccRows), the rank-1
  // path accumulates row-by-row with an explicit zero skip / no-op fma.
  //
  // Under the SIMD arms a SMALL output block (k*m floats within easy L1
  // reach — every tree-conv weight-gradient block qualifies) skips the
  // transpose + pack entirely: the 4-row-unrolled rank-1 kernel streams a
  // and b exactly once while the whole output stays L1-resident, which beats
  // the transposed GEMM's extra two passes at these shapes.
  const detail::SimdGemmKernels* simd = ActiveSimdKernels();
  const bool small_block =
      simd != nullptr && static_cast<int64_t>(k) * m <= 4096;
  const int m_transpose_max =
      small_block ? 0 : (simd != nullptr ? 160 : 48);
  if (m <= m_transpose_max) {
    Matrix local_at;
    Matrix* at = scratch != nullptr ? &scratch->staging : &local_at;
    at->Reshape(k, n);
    // Transpose in tiles of kTransposeTile source columns. Row by row, every
    // store lands on a different staging row (a stride of n floats), so a
    // wide input (the 711-wide query layer: 711 lines per source row) has
    // evicted those lines before the next source row writes its column.
    // A tile's staging rows stay in L1 across all n source rows. It is a
    // copy, so any tiling is bit-identical.
    constexpr int kTransposeTile = 16;
    float* atw = at->data();
    for (int c0 = 0; c0 < k; c0 += kTransposeTile) {
      const int c1 = std::min(k, c0 + kTransposeTile);
      for (int r = 0; r < n; ++r) {
        const float* src = a.Row(arows != nullptr ? arows[r] : r);
        for (int c = c0; c < c1; ++c) {
          atw[static_cast<size_t>(c) * n + r] = src[c];
        }
      }
    }
    const float* atdata = at->data();
    if (simd != nullptr) {
      std::vector<float> local;
      const float* packed = PreparePack(scratch, &local, n, m);
      detail::PackBPanelsGathered(bdata, brows, n, m, const_cast<float*>(packed));
      simd->gemm_acc_rows(atdata, nullptr, packed, out, 0, k, n, m);
      return;
    }
    // The portable arm gathers b's rows into the pack buffer, which it
    // otherwise never uses, so a warmed scratch allocates nothing here.
    const float* b_rows_data = bdata;
    std::vector<float> local;
    if (brows != nullptr) {
      float* gathered = PreparePack(scratch, &local, n, m);
      for (int r = 0; r < n; ++r) {
        std::copy(b.Row(brows[r]), b.Row(brows[r]) + m,
                  gathered + static_cast<size_t>(r) * m);
      }
      b_rows_data = gathered;
    }
    MatMulAccRows(atdata, nullptr, b_rows_data, out, 0, k, n, m);
    return;
  }
  if (simd != nullptr) {
    simd->ta_update_rows(adata, arows, bdata, brows, out, 0, k, n, k, m);
  } else {
    MatMulTransposeARows(adata, arows, bdata, brows, out, 0, k, n, k, m);
  }
}

}  // namespace

void MatMulTransposeAInto(const Matrix& a, const Matrix& b, float* out,
                          GemmScratch* scratch) {
  NEO_CHECK(a.rows() == b.rows());
  MatMulTransposeAIntoImpl(a, nullptr, b, nullptr, a.rows(), out, scratch);
}

void MatMulGatherTransposeAInto(const Matrix& a, const int* arows,
                                const Matrix& b, const int* brows, int nrows,
                                float* out, GemmScratch* scratch) {
  MatMulTransposeAIntoImpl(a, arows, b, brows, nrows, out, scratch);
}

// ---- Fused Adam update -----------------------------------------------------

namespace detail {

void AdamUpdateScalarRange(float* w, float* m, float* v, const float* g,
                           int64_t i0, int64_t i1, const AdamScalars& s) {
  const float one_minus_b1 = 1.0f - s.beta1;
  const float one_minus_b2 = 1.0f - s.beta2;
  for (int64_t i = i0; i < i1; ++i) {
    // Every step is an explicit single-rounding op (fmaf / * / / / sqrt) so
    // the vector arms can mirror it lane-for-lane; no adjacent mul+add pairs
    // are left for the compiler to contract differently per build.
    const float grad = std::fmaf(s.weight_decay, w[i], g[i]);
    m[i] = std::fmaf(s.beta1, m[i], one_minus_b1 * grad);
    v[i] = std::fmaf(s.beta2, v[i], one_minus_b2 * (grad * grad));
    const float m_hat = m[i] / s.bc1;
    const float v_hat = v[i] / s.bc2;
    const float denom = std::sqrt(v_hat) + s.eps;
    w[i] = w[i] - (s.lr * m_hat) / denom;
  }
}

}  // namespace detail

void AdamFusedUpdate(float* w, float* m, float* v, const float* g,
                     int64_t count, const detail::AdamScalars& s) {
  // The per-element arithmetic is identical in every arm and in the scalar
  // tails, so the update is bit-identical across arms.
  if (const detail::SimdGemmKernels* simd = ActiveSimdKernels()) {
    simd->adam_update(w, m, v, g, 0, count, s);
  } else {
    detail::AdamUpdateScalarRange(w, m, v, g, 0, count, s);
  }
}

}  // namespace neo::nn
