// Minimal dense float matrix used by the neural network layers. Row-major,
// contiguous; all shapes are (rows x cols).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace neo::nn {

class Matrix {
 public:
  Matrix() = default;
  /// Constructs zero-initialized (many callers accumulate into fresh
  /// matrices); use Reshape on a default-constructed Matrix to get
  /// uninitialized storage for fully-overwritten outputs.
  Matrix(int rows, int cols) : rows_(rows), cols_(cols) {
    capacity_ = Size();
    data_.reset(new float[capacity_]());  // ()-init: zeroed.
  }
  Matrix(const Matrix& other) : rows_(other.rows_), cols_(other.cols_) {
    capacity_ = Size();
    data_.reset(new float[capacity_]);
    std::copy(other.data(), other.data() + Size(), data_.get());
  }
  Matrix& operator=(const Matrix& other) {
    if (this == &other) return *this;
    if (capacity_ < other.Size()) {
      capacity_ = other.Size();
      data_.reset(new float[capacity_]);
    }
    rows_ = other.rows_;
    cols_ = other.cols_;
    std::copy(other.data(), other.data() + Size(), data_.get());
    return *this;
  }
  Matrix(Matrix&& other) noexcept { *this = std::move(other); }
  Matrix& operator=(Matrix&& other) noexcept {
    if (this == &other) return *this;
    rows_ = other.rows_;
    cols_ = other.cols_;
    capacity_ = other.capacity_;
    data_ = std::move(other.data_);
    other.rows_ = other.cols_ = 0;
    other.capacity_ = 0;
    return *this;
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t Size() const { return static_cast<size_t>(rows_) * static_cast<size_t>(cols_); }

  float& At(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  float At(int r, int c) const { return data_[static_cast<size_t>(r) * cols_ + c]; }

  float* Row(int r) { return data_.get() + static_cast<size_t>(r) * cols_; }
  const float* Row(int r) const { return data_.get() + static_cast<size_t>(r) * cols_; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  void Zero() { std::fill(data_.get(), data_.get() + Size(), 0.0f); }

  /// Kaiming-uniform initialization for a layer with `fan_in` inputs.
  void InitKaiming(util::Rng& rng, int fan_in) {
    const double bound = std::sqrt(6.0 / static_cast<double>(fan_in > 0 ? fan_in : 1));
    for (size_t i = 0; i < Size(); ++i) {
      data_[i] = static_cast<float>(rng.NextUniform(-bound, bound));
    }
  }

  /// this += other (same shape).
  void Add(const Matrix& other) {
    NEO_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
    for (size_t i = 0; i < Size(); ++i) data_[i] += other.data_[i];
  }

  /// this *= s.
  void Scale(float s) {
    for (size_t i = 0; i < Size(); ++i) data_[i] *= s;
  }

  /// Reshapes to (rows x cols) WITHOUT initializing: existing storage is
  /// reused when its capacity suffices (the fast path for per-step scratch
  /// and GEMM outputs that the caller fully overwrites — no malloc, no
  /// memset); on growth the new storage is left uninitialized. Callers that
  /// need zeros must call Zero() afterwards.
  void Reshape(int rows, int cols) {
    rows_ = rows;
    cols_ = cols;
    if (capacity_ < Size()) {
      capacity_ = Size();
      data_.reset(new float[capacity_]);
    }
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  size_t capacity_ = 0;
  std::unique_ptr<float[]> data_;
};

/// out = a (n x k) * b (k x m). Register-blocked kernel. Each output's
/// summation order is a fixed function of (k, m) alone — independent of the
/// row's position and of n — so a row multiplied alone or inside any batch
/// yields bit-identical results (batched plan scoring relies on this).
/// Results may differ from MatMulNaive by accumulation-order ulps.
Matrix MatMul(const Matrix& a, const Matrix& b);

struct GemmScratch;

/// MatMul into a caller-owned output (Reshape'd, fully overwritten).
/// Bit-identical to MatMul under every arm.
/// `scratch` reuses the B-panel pack buffer across calls (zero-alloc steady
/// state); results are bit-identical with or without it.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                GemmScratch* scratch = nullptr);

/// out = a (n x k) * b[brows[0..k)]: row p of the right-hand side is row
/// brows[p] of b (nullptr: b itself, and this is MatMulInto). The rows are
/// gathered while packing, never materialized by the caller. With the
/// columns of an input multiplied by the matching rows of a weight, this is
/// the input's product with the full weight minus the dropped columns' terms
/// — bit for bit when those terms are zero and the dropped columns respect
/// DroppableKGroupWidth(). k = 0 gives a +0 product.
void MatMulGatherBInto(const Matrix& a, const Matrix& b, const int* brows,
                       Matrix* out, GemmScratch* scratch = nullptr);

/// out = a (n x k) * b^T where b is (m x k). Blocked kernel.
Matrix MatMulTransposeB(const Matrix& a, const Matrix& b);

/// MatMulTransposeB into a caller-owned output (Reshape'd, fully
/// overwritten). Bit-identical to MatMulTransposeB under every arm.
void MatMulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* out,
                          GemmScratch* scratch = nullptr);

/// out = a^T (k x n -> n x k') ... computes a^T (a: k x n) times b (k x m).
/// Blocked kernel.
Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);

// ---- Raw-block variants (sparse training conv) -----------------------------
//
// TreeConv's training path multiplies against the three cin x cout blocks of
// its stacked (3*cin x cout) weight. Each block is a contiguous row range, so
// these overloads take a raw row-major pointer into the live parameter and
// never copy or cache weights — direct parameter pokes (numeric-gradient
// tests, Adam) are always visible. Same kernels, dispatch, and determinism
// contract as the Matrix-typed entry points.

/// Reusable cross-call scratch for the block/Into GEMM variants: the
/// per-call B-panel pack buffer and the transpose staging matrix. Passing
/// one (TreeConv's training scratch does) avoids re-allocating and
/// re-zeroing them for every block GEMM of a training step; results are
/// bit-identical with or without it. Not thread-safe — one per caller.
struct GemmScratch {
  std::vector<float> pack;
  Matrix staging;
};

/// out = a (n x k) * b where b is a raw row-major (k x m) block.
Matrix MatMulBlock(const Matrix& a, const float* b, int k, int m);

/// MatMulBlock into a caller-owned output (Reshape'd, fully overwritten).
void MatMulBlockInto(const Matrix& a, const float* b, int k, int m,
                     Matrix* out, GemmScratch* scratch = nullptr);

/// out = a (n x k) * b^T where b is a raw row-major (m x k) block
/// (k = a.cols()).
Matrix MatMulTransposeBBlock(const Matrix& a, const float* b, int m);

/// MatMulTransposeBBlock into a caller-owned output.
void MatMulTransposeBBlockInto(const Matrix& a, const float* b, int m,
                               Matrix* out, GemmScratch* scratch = nullptr);

/// Scatter-add transpose-A: out (k x m raw row-major, e.g. one block of a
/// weight gradient) += a^T * b (a: n x k, b: n x m). Accumulates directly
/// into `out` — no temporary product matrix.
///
/// Contract beyond MatMulTransposeA's: the summation strategy is chosen from
/// (k, m) ALONE — never from n — and every strategy sums ascending input
/// rows with exact-no-op zero rows (single fma chains / explicit zero skip).
/// Appending or interleaving all-zero rows of `a` (with arbitrary matching
/// `b` rows) therefore cannot change a single output bit, under every
/// dispatch arm.
void MatMulTransposeAInto(const Matrix& a, const Matrix& b, float* out,
                          GemmScratch* scratch = nullptr);

// ---- Zero-copy gather variants ---------------------------------------------
//
// The sparse training conv multiplies GATHERED row subsets (present children
// / their parents). These variants read A rows through an index list inside
// the kernels instead of materializing the gather — same values in the same
// order, so results are bit-identical to gathering first, with no copy, no
// scratch matrix, and no extra memory pass.

/// out = a[rows[0..nrows)] * b where b is a raw row-major (k x m) block.
void MatMulGatherBlockInto(const Matrix& a, const int* rows, int nrows,
                           const float* b, int k, int m, Matrix* out,
                           GemmScratch* scratch = nullptr);

/// out = a[rows[0..nrows)] * b^T where b is a raw row-major (m x k) block.
void MatMulGatherTransposeBBlockInto(const Matrix& a, const int* rows,
                                     int nrows, const float* b, int m,
                                     Matrix* out, GemmScratch* scratch = nullptr);

/// out (k x m raw) += a[arows]^T * b[brows] over nrows gathered row pairs.
/// Same strategy/summation contract as MatMulTransposeAInto.
void MatMulGatherTransposeAInto(const Matrix& a, const int* arows,
                                const Matrix& b, const int* brows, int nrows,
                                float* out, GemmScratch* scratch = nullptr);

/// Naive triple-loop kernels (matrix_reference.cpp): test oracles for the
/// blocked kernels on non-tile-multiple shapes, and micro_nn's naive GEMM
/// baseline. No production path calls them.
Matrix MatMulNaive(const Matrix& a, const Matrix& b);
Matrix MatMulTransposeBNaive(const Matrix& a, const Matrix& b);
Matrix MatMulTransposeANaive(const Matrix& a, const Matrix& b);
/// Reference for MatMulTransposeAInto: out += a^T b via the naive loop.
void MatMulTransposeAIntoNaive(const Matrix& a, const Matrix& b, float* out);

// ---- Fused Adam update -----------------------------------------------------

namespace detail {
struct AdamScalars;  // Per-step scalars; defined in matrix_simd.h.
}  // namespace detail

/// One fused Adam sweep over a parameter's `count` elements: m, v, and w are
/// each read and written exactly once, no temporaries, vectorized by the
/// active kernel dispatch arm. Every element's update is the identical
/// correctly-rounded op sequence in every arm (and in the scalar tails), so
/// the result is bit-identical across dispatch arms.
void AdamFusedUpdate(float* w, float* m, float* v, const float* g,
                     int64_t count, const detail::AdamScalars& s);

// ---- Kernel dispatch -------------------------------------------------------
//
// One binary carries several GEMM kernel arms and picks the best one the CPU
// supports at startup (cpuid). Design notes for the SIMD arms:
//
//  * Tiles. The AVX2+FMA arm computes 6x16 register tiles (6 output rows by
//    one 16-float column panel, 12 ymm accumulators); the AVX-512F arm
//    computes 6x32 tiles (two panels, 12 zmm accumulators). Row blocks sweep
//    the full k extent before moving on (i-row blocking over a k panel), so
//    the accumulators never leave registers and A rows stream through L1
//    exactly once per panel.
//
//  * Packing. B is packed into 16-float column panels, k-major within each
//    panel and zero-padded at the ragged edge (see matrix_simd.h). A panel
//    row is 64 bytes — two ymm or one zmm load — so both SIMD arms read the
//    same layout and a PackedB survives dispatch-arm changes. MatMul packs
//    per call; PackedB pre-packs weight matrices so the inference hot path
//    (TreeConv / Linear) multiplies without repacking.
//
//  * Determinism contract. Within one dispatch arm, every output element's
//    summation order is a fixed function of the shape (k, m) alone: in the
//    SIMD arms each element is a single FMA chain over ascending k, and in
//    the portable arm four interleaved chains folded in a fixed order. The
//    order never depends on the row's position, the number of rows in the
//    call, or tile boundaries — so batched, incremental, and row-subset
//    evaluations are all bit-identical within an arm. Across arms (SIMD vs
//    portable) results differ by accumulation-order/FMA-rounding ulps only;
//    tests assert parity at 1e-5 relative.
//
//  * Dropping zero k terms. Adding a +-0 product leaves a chain unchanged
//    unless it holds -0, which a chain seeded at +0 reaches only through a
//    product that underflows. Under the SIMD arms a k term whose A entries
//    are all zero can therefore be left out of the product with no output
//    bit changed, wherever it falls. The portable arm's chains
//    take term p in chain p % 4 (the k % 4 tail in chain 0), so leaving out
//    one term moves every later one into another chain; leaving out a whole
//    aligned group of four keeps every chain's sequence. DroppableKGroupWidth
//    reports the active arm's group. Either way the dropped rows of B must be
//    finite: 0 * inf is NaN, not 0.
//
//  * Adding an ISA. Provide a TU exposing a detail::SimdGemmKernels (see
//    matrix_simd.h) whose kernels read the shared panel layout and keep the
//    single-ascending-k-chain order, compile it with the ISA's flags in
//    CMakeLists.txt (stub out when the toolchain lacks them), add an enum
//    value plus cpuid check in matrix.cpp's KernelsFor/KernelIsaAvailable,
//    and extend BestKernelIsa's preference order. The dispatch tests in
//    nn_test.cpp pick up new arms automatically via AvailableKernelIsas().
//
// Startup override: NEO_FORCE_PORTABLE=1 in the environment pins the
// portable arm (the CI fallback matrix arm uses this); NEO_KERNEL_ISA=
// portable|avx2|avx512 picks a specific arm when available. SetKernelIsa
// overrides at runtime (benches sweep arms with it).

enum class KernelIsa { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

/// "portable", "avx2", or "avx512".
const char* KernelIsaName(KernelIsa isa);

/// True when the arm is compiled into this binary AND the CPU supports it.
/// kPortable is always available.
bool KernelIsaAvailable(KernelIsa isa);

/// The most capable available arm (avx512 > avx2 > portable).
KernelIsa BestKernelIsa();

/// Every available arm, portable first then ascending capability. Tests and
/// benches sweep this so a new ISA added to the dispatch table is covered
/// automatically.
std::vector<KernelIsa> AvailableKernelIsas();

/// The arm MatMul & friends currently dispatch to. Initialized on first use
/// from the environment (NEO_FORCE_PORTABLE / NEO_KERNEL_ISA) or
/// BestKernelIsa().
KernelIsa ActiveKernelIsa();

/// Width of the aligned k groups the active arm may drop from a product
/// when every A entry in the group is zero ("Dropping zero k terms" above):
/// 1 under the SIMD arms, 4 under the portable arm, where the partial last
/// group of a k that is not a multiple of 4 counts as one group. Groups start
/// at k index 0.
int DroppableKGroupWidth();

/// Switches the dispatch arm process-wide. NEO_CHECKs availability. Results
/// computed under different arms differ by ulps; per-search caches key on the
/// active arm, so switching mid-process is safe (benches and tests do).
void SetKernelIsa(KernelIsa isa);

/// RAII scope for SetKernelIsa (restores the previous arm).
class KernelIsaScope {
 public:
  explicit KernelIsaScope(KernelIsa isa) : prev_(ActiveKernelIsa()) {
    SetKernelIsa(isa);
  }
  ~KernelIsaScope() { SetKernelIsa(prev_); }
  KernelIsaScope(const KernelIsaScope&) = delete;
  KernelIsaScope& operator=(const KernelIsaScope&) = delete;

 private:
  KernelIsa prev_;
};

/// A right-hand-side matrix pre-packed into the SIMD arms' shared panel
/// layout (plus a plain copy for the portable arm). Pack once
/// per weight update, multiply many times: MatMulPacked(a, pb) is bit-
/// identical to MatMul(a, pb.unpacked()) under every dispatch arm, it just
/// skips the per-call pack.
class PackedB {
 public:
  PackedB() = default;
  explicit PackedB(const Matrix& b) { Assign(b); }

  void Assign(const Matrix& b);
  /// Copies the (rows x cols) row-major block at `b` (need not be a Matrix;
  /// TreeConv packs row ranges of its stacked weight directly).
  void Assign(const float* b, int rows, int cols);

  int rows() const { return b_.rows(); }
  int cols() const { return b_.cols(); }
  const Matrix& unpacked() const { return b_; }
  const float* panels() const { return panels_.data(); }

 private:
  Matrix b_;
  std::vector<float> panels_;
};

/// out = a (n x k) * b (k x m) with b pre-packed. Same kernels, contract,
/// and bit-exact results as MatMul under the active dispatch arm.
Matrix MatMulPacked(const Matrix& a, const PackedB& b);

/// MatMulPacked into a caller-owned output (Reshape'd, fully overwritten).
/// Bit-identical to MatMulPacked; the zero-steady-state-allocation form the
/// inference hot path uses with capacity-reused scratch matrices.
void MatMulPackedInto(const Matrix& a, const PackedB& b, Matrix* out);

/// Name of the runtime-dispatched kernel arm (KernelIsaName(ActiveKernelIsa())).
/// Recorded as "kernel_arch" in the BENCH_*.json files so perf numbers are
/// attributable to the arm that actually ran, not just the compile flags.
const char* KernelArchString();

/// How the portable arm's TU was compiled — "explicit avx2 autovec
/// (NEO_NATIVE_ARCH)" or "march=native autovec where available". Bench
/// metadata: the portable baseline's throughput depends on this, so
/// BENCH_gemm.json records it next to the per-arm ratios. Lives here because
/// only the hot NN TUs see the NEO_NATIVE_ARCH define.
const char* PortableArmCodegen();

}  // namespace neo::nn
