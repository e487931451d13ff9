// Neural network library tests: numerical gradient checks for every layer
// (Linear, LayerNorm, TreeConv), the paper's Figure 6 tree-convolution
// examples, Adam convergence, and value-network overfitting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "src/nn/matrix_simd.h"
#include "src/nn/value_network.h"
#include "src/util/alloc_counter.h"

namespace neo::nn {
namespace {

Matrix RandomMatrix(int rows, int cols, util::Rng& rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.Size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextUniform(-scale, scale));
  }
  return m;
}

/// Index of the first element whose bits differ (+0 and -0 differ), or -1;
/// 0 when the shapes differ.
int64_t FirstBitDifference(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return 0;
  for (size_t i = 0; i < a.Size(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

/// Weighted-sum loss of a layer output: L = sum(out .* weights). Its exact
/// output gradient is `weights`, enabling simple numeric checks.
double WeightedLoss(const Matrix& out, const Matrix& weights) {
  double loss = 0;
  for (size_t i = 0; i < out.Size(); ++i) {
    loss += static_cast<double>(out.data()[i]) * weights.data()[i];
  }
  return loss;
}

/// Checks analytic parameter gradients against central differences.
void CheckParamGradients(Layer& layer, const Matrix& input, double tol = 2e-2) {
  util::Rng rng(99);
  Matrix out = layer.Forward(input);
  const Matrix loss_w = RandomMatrix(out.rows(), out.cols(), rng);

  std::vector<Param*> params;
  layer.CollectParams(&params);
  for (Param* p : params) p->ZeroGrad();
  layer.Forward(input);
  layer.Backward(loss_w);

  const float eps = 1e-3f;
  for (Param* p : params) {
    for (size_t i = 0; i < p->value.Size(); i += std::max<size_t>(1, p->value.Size() / 17)) {
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      const double lp = WeightedLoss(layer.Forward(input), loss_w);
      p->value.data()[i] = orig - eps;
      const double lm = WeightedLoss(layer.Forward(input), loss_w);
      p->value.data()[i] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double analytic = p->grad.data()[i];
      EXPECT_NEAR(analytic, numeric, tol * std::max(1.0, std::fabs(numeric)))
          << "param index " << i;
    }
  }
}

/// Checks analytic input gradients against central differences.
void CheckInputGradients(Layer& layer, Matrix input, double tol = 2e-2) {
  util::Rng rng(98);
  Matrix out = layer.Forward(input);
  const Matrix loss_w = RandomMatrix(out.rows(), out.cols(), rng);
  std::vector<Param*> params;
  layer.CollectParams(&params);
  for (Param* p : params) p->ZeroGrad();
  layer.Forward(input);
  const Matrix grad_in = layer.Backward(loss_w);

  const float eps = 1e-3f;
  for (size_t i = 0; i < input.Size(); i += std::max<size_t>(1, input.Size() / 13)) {
    const float orig = input.data()[i];
    input.data()[i] = orig + eps;
    const double lp = WeightedLoss(layer.Forward(input), loss_w);
    input.data()[i] = orig - eps;
    const double lm = WeightedLoss(layer.Forward(input), loss_w);
    input.data()[i] = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(grad_in.data()[i], numeric, tol * std::max(1.0, std::fabs(numeric)));
  }
}

TEST(MatrixTest, MatMulHandChecked) {
  Matrix a(2, 3), b(3, 2);
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  Matrix c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154);
}

TEST(MatrixTest, TransposedVariantsAgree) {
  util::Rng rng(1);
  Matrix a = RandomMatrix(4, 5, rng);
  Matrix b = RandomMatrix(5, 3, rng);
  const Matrix ref = MatMul(a, b);
  // MatMulTransposeB(a, b^T) == a b.
  Matrix bt(3, 5);
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 3; ++c) bt.At(c, r) = b.At(r, c);
  }
  const Matrix viaB = MatMulTransposeB(a, bt);
  for (size_t i = 0; i < ref.Size(); ++i) {
    EXPECT_NEAR(ref.data()[i], viaB.data()[i], 1e-5);
  }
  // MatMulTransposeA(a^T, b) == a b.
  Matrix at(5, 4);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 5; ++c) at.At(c, r) = a.At(r, c);
  }
  const Matrix viaA = MatMulTransposeA(at, b);
  for (size_t i = 0; i < ref.Size(); ++i) {
    EXPECT_NEAR(ref.data()[i], viaA.data()[i], 1e-5);
  }
}

TEST(MatrixTest, BlockedKernelsMatchNaiveOnOddShapes) {
  // Shapes straddle the kernel chunk boundaries (non-multiples of the 16-wide
  // column chunks and 4-way k-chains, degenerate dims). The optimized kernels
  // use a fixed internal summation order that may differ from the reference
  // triple loop by accumulation-order ulps, hence the relative tolerance.
  const int shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {17, 129, 31},
                           {65, 64, 130}, {127, 1, 63}, {2, 200, 2},
                           {130, 131, 129}};
  util::Rng rng(42);
  const auto expect_close = [](const Matrix& ref, const Matrix& fast, int n,
                               int k, int m) {
    ASSERT_EQ(ref.rows(), fast.rows());
    ASSERT_EQ(ref.cols(), fast.cols());
    for (size_t i = 0; i < ref.Size(); ++i) {
      const double tol =
          1e-5 * std::max(1.0, static_cast<double>(std::fabs(ref.data()[i])));
      ASSERT_NEAR(ref.data()[i], fast.data()[i], tol) << n << "x" << k << "x" << m;
    }
  };
  for (const auto& s : shapes) {
    const int n = s[0], k = s[1], m = s[2];
    const Matrix a = RandomMatrix(n, k, rng);
    const Matrix b = RandomMatrix(k, m, rng);
    expect_close(MatMulNaive(a, b), MatMul(a, b), n, k, m);
    const Matrix bt = RandomMatrix(m, k, rng);
    expect_close(MatMulTransposeBNaive(a, bt), MatMulTransposeB(a, bt), n, k, m);
    const Matrix at = RandomMatrix(k, n, rng);
    const Matrix bA = RandomMatrix(k, m, rng);
    expect_close(MatMulTransposeANaive(at, bA), MatMulTransposeA(at, bA), n, k, m);
  }
}

TEST(MatrixTest, MatMulRowResultsIndependentOfBatchRows) {
  // The kernel's summation order is a function of (k, m) only: a given input
  // row must produce bit-identical outputs whether it is multiplied alone or
  // stacked with other rows. Batched plan scoring relies on this.
  util::Rng rng(43);
  const int k = 159, m = 32;
  const Matrix big = RandomMatrix(37, k, rng);
  const Matrix w = RandomMatrix(k, m, rng);
  const Matrix all = MatMul(big, w);
  for (int r = 0; r < big.rows(); r += 7) {
    Matrix row(1, k);
    std::copy(big.Row(r), big.Row(r) + k, row.Row(0));
    const Matrix single = MatMul(row, w);
    for (int c = 0; c < m; ++c) {
      ASSERT_EQ(all.At(r, c), single.At(0, c)) << "row " << r;
    }
  }
}

TEST(MatrixSimdTest, DispatchReportsValidArm) {
  EXPECT_TRUE(KernelIsaAvailable(KernelIsa::kPortable));
  EXPECT_TRUE(KernelIsaAvailable(ActiveKernelIsa()));
  EXPECT_TRUE(KernelIsaAvailable(BestKernelIsa()));
  EXPECT_STREQ(KernelArchString(), KernelIsaName(ActiveKernelIsa()));
  const KernelIsa before = ActiveKernelIsa();
  {
    KernelIsaScope scope(KernelIsa::kPortable);
    EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kPortable);
    EXPECT_STREQ(KernelArchString(), "portable");
  }
  EXPECT_EQ(ActiveKernelIsa(), before);
}

TEST(MatrixSimdTest, SimdKernelsMatchPortableOnOddShapes) {
  // SIMD arms use fused multiply-add and a different (single-chain) summation
  // order than the portable kernel, so cross-arm parity is at relative
  // tolerance, not bitwise. Shapes cover every panel-tail width class
  // (m % 16 in {0,1,15}), row-tile tails (n % 6), tiny and degenerate dims,
  // and the conv/backward shapes the network actually runs.
  const int shapes[][3] = {{1, 1, 1},     {5, 3, 15},    {6, 53, 64},
                           {7, 21, 64},   {13, 64, 32},  {19, 32, 16},
                           {37, 159, 64}, {64, 64, 33},  {65, 31, 17},
                           {127, 2, 16},  {130, 131, 129}, {2, 200, 47}};
  util::Rng rng(47);
  const auto expect_close = [](const Matrix& ref, const Matrix& got,
                               const char* what, int n, int k, int m) {
    ASSERT_EQ(ref.rows(), got.rows());
    ASSERT_EQ(ref.cols(), got.cols());
    for (size_t i = 0; i < ref.Size(); ++i) {
      const double tol =
          1e-5 * std::max(1.0, static_cast<double>(std::fabs(ref.data()[i])));
      ASSERT_NEAR(ref.data()[i], got.data()[i], tol)
          << what << " " << n << "x" << k << "x" << m;
    }
  };
  for (const auto& s : shapes) {
    const int n = s[0], k = s[1], m = s[2];
    const Matrix a = RandomMatrix(n, k, rng);
    const Matrix b = RandomMatrix(k, m, rng);
    const Matrix bt = RandomMatrix(m, k, rng);
    const Matrix at = RandomMatrix(k, n, rng);
    const Matrix bA = RandomMatrix(k, m, rng);
    Matrix ref, ref_tb, ref_ta;
    {
      KernelIsaScope scope(KernelIsa::kPortable);
      ref = MatMul(a, b);
      ref_tb = MatMulTransposeB(a, bt);
      ref_ta = MatMulTransposeA(at, bA);
    }
    for (KernelIsa isa : AvailableKernelIsas()) {
      if (isa == KernelIsa::kPortable) continue;
      KernelIsaScope scope(isa);
      expect_close(ref, MatMul(a, b), KernelIsaName(isa), n, k, m);
      expect_close(ref_tb, MatMulTransposeB(a, bt), KernelIsaName(isa), n, k, m);
      expect_close(ref_ta, MatMulTransposeA(at, bA), KernelIsaName(isa), n, k, m);
    }
  }
}

TEST(MatrixSimdTest, RowSubsetsBitIdenticalPerArm) {
  // Arbitrary row subsets must reproduce the full product's rows bitwise in
  // every arm: the incremental search path multiplies gathered row subsets
  // (dirty spines) and relies on position-independence regardless of where a
  // row lands relative to the 6-row register tiles.
  util::Rng rng(49);
  const int n = 45, k = 53, m = 64;
  const Matrix a = RandomMatrix(n, k, rng);
  const Matrix b = RandomMatrix(k, m, rng);
  const std::vector<std::vector<int>> subsets = {
      {0}, {44}, {3, 7, 11}, {0, 1, 2, 3, 4, 5, 6}, {5, 12, 19, 26, 33, 40},
      {44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34}};
  for (KernelIsa isa : AvailableKernelIsas()) {
    KernelIsaScope scope(isa);
    const Matrix full = MatMul(a, b);
    for (const auto& subset : subsets) {
      Matrix gathered(static_cast<int>(subset.size()), k);
      for (size_t r = 0; r < subset.size(); ++r) {
        std::copy(a.Row(subset[r]), a.Row(subset[r]) + k,
                  gathered.Row(static_cast<int>(r)));
      }
      const Matrix partial = MatMul(gathered, b);
      for (size_t r = 0; r < subset.size(); ++r) {
        for (int c = 0; c < m; ++c) {
          ASSERT_EQ(full.At(subset[r], c), partial.At(static_cast<int>(r), c))
              << KernelIsaName(isa) << " row " << subset[r];
        }
      }
    }
  }
}

TEST(MatrixSimdTest, PackedMatMulBitIdenticalToUnpacked) {
  // PackedB only pre-computes the panel layout MatMul builds per call, so
  // MatMulPacked must be bit-identical to MatMul under every arm (TreeConv
  // and Linear inference weights depend on this being a pure perf change).
  util::Rng rng(50);
  const int shapes[][3] = {{1, 32, 64}, {9, 21, 64}, {45, 53, 64}, {33, 64, 17}};
  for (const auto& s : shapes) {
    const int n = s[0], k = s[1], m = s[2];
    const Matrix a = RandomMatrix(n, k, rng);
    const Matrix b = RandomMatrix(k, m, rng);
    const PackedB packed(b);
    EXPECT_EQ(packed.rows(), k);
    EXPECT_EQ(packed.cols(), m);
    for (KernelIsa isa : AvailableKernelIsas()) {
      KernelIsaScope scope(isa);
      const Matrix plain = MatMul(a, b);
      const Matrix via_packed = MatMulPacked(a, packed);
      for (size_t i = 0; i < plain.Size(); ++i) {
        ASSERT_EQ(plain.data()[i], via_packed.data()[i]) << KernelIsaName(isa);
      }
    }
    // And the packed product agrees with the naive oracle up to
    // accumulation-order ulps.
    const Matrix naive = MatMulNaive(a, b);
    const Matrix via_packed = MatMulPacked(a, packed);
    for (size_t i = 0; i < naive.Size(); ++i) {
      const double tol =
          1e-5 * std::max(1.0, static_cast<double>(std::fabs(naive.data()[i])));
      ASSERT_NEAR(naive.data()[i], via_packed.data()[i], tol);
    }
  }
}

TEST(MatrixSimdTest, TransposeAIntoMatchesNaiveOnOddShapes) {
  // The scatter-add transpose-A variant accumulates into a pre-filled raw
  // block; out must equal init + a^T b within accumulation-order ulps under
  // every arm. Shapes straddle both internal strategies (m below/above the
  // per-arm transpose thresholds of 48 and 160) plus ragged/degenerate dims.
  const int shapes[][3] = {{1, 1, 1},    {7, 3, 5},     {40, 5, 33},
                           {70, 53, 64}, {100, 31, 17}, {65, 7, 200},
                           {33, 129, 48}, {13, 64, 161}};
  util::Rng rng(51);
  for (const auto& s : shapes) {
    const int n = s[0], k = s[1], m = s[2];
    const Matrix a = RandomMatrix(n, k, rng);
    const Matrix b = RandomMatrix(n, m, rng);
    const Matrix init = RandomMatrix(k, m, rng);
    Matrix expect = init;
    MatMulTransposeAIntoNaive(a, b, expect.data());
    for (KernelIsa isa : AvailableKernelIsas()) {
      KernelIsaScope scope(isa);
      Matrix out = init;
      MatMulTransposeAInto(a, b, out.data());
      for (size_t i = 0; i < expect.Size(); ++i) {
        const double tol = 1e-4 * std::max(1.0, static_cast<double>(
                                                    std::fabs(expect.data()[i])));
        ASSERT_NEAR(expect.data()[i], out.data()[i], tol)
            << KernelIsaName(isa) << " " << n << "x" << k << "x" << m;
      }
    }
  }
}

TEST(MatrixSimdTest, TransposeAIntoZeroRowsAreExactNoOps) {
  // The contract the sparse training conv is built on: interleaving all-zero
  // `a` rows (with arbitrary matching `b` rows) into the reduction must not
  // change a single output bit, in any arm, for either internal strategy.
  // This is why the strategy choice ignores n and why the portable
  // accumulate path uses a single summation chain.
  util::Rng rng(52);
  for (const int m : {5, 17, 48, 64, 160, 200}) {
    const int k = 21, n = 47;
    std::vector<int> keep;
    for (int r = 0; r < n; ++r) {
      // Rows 0, 5, 10, ... and the last few stay zero.
      const bool zero_row = (r % 5 == 0) || r >= n - 3;
      if (!zero_row) keep.push_back(r);
    }
    const int present = static_cast<int>(keep.size());
    // Dense operands with zero a-rows scattered at the front/middle/end.
    Matrix a_dense(n, k), b_dense = RandomMatrix(n, m, rng);
    Matrix a_sparse(present, k), b_sparse(present, m);
    for (size_t t = 0; t < keep.size(); ++t) {
      const Matrix row = RandomMatrix(1, k, rng);
      std::copy(row.data(), row.data() + k, a_dense.Row(keep[t]));
      std::copy(row.data(), row.data() + k, a_sparse.Row(static_cast<int>(t)));
      std::copy(b_dense.Row(keep[t]), b_dense.Row(keep[t]) + m,
                b_sparse.Row(static_cast<int>(t)));
    }
    const Matrix init = RandomMatrix(k, m, rng);
    for (KernelIsa isa : AvailableKernelIsas()) {
      KernelIsaScope scope(isa);
      Matrix dense = init, sparse = init;
      MatMulTransposeAInto(a_dense, b_dense, dense.data());
      MatMulTransposeAInto(a_sparse, b_sparse, sparse.data());
      for (size_t i = 0; i < dense.Size(); ++i) {
        ASSERT_EQ(dense.data()[i], sparse.data()[i])
            << KernelIsaName(isa) << " m=" << m;
      }
    }
  }
}

TEST(MatrixSimdTest, GatherVariantsBitIdenticalToMaterialized) {
  // The zero-copy gather GEMMs read A (and the TA variant's B) rows through
  // an index list inside the kernels; they must match multiplying the
  // materialized gather BITWISE under every arm (the sparse training conv's
  // results may not depend on which mechanism gathered the rows).
  util::Rng rng(54);
  const int n = 61, k = 21, m = 34;
  const Matrix a = RandomMatrix(n, k, rng);
  const Matrix b = RandomMatrix(n, m, rng);
  const Matrix w = RandomMatrix(k, m, rng);
  const Matrix wt = RandomMatrix(17, m, rng);  // (17 x m) block for b^T.
  // Index lists with repeats, out-of-order entries, and a singleton.
  const std::vector<std::vector<int>> row_sets = {
      {0}, {5, 3, 3, 60, 17}, {7, 7, 7, 7, 7, 7, 7},
      {60, 59, 58, 0, 1, 2, 30, 31, 32, 33, 34, 35, 36}};
  for (KernelIsa isa : AvailableKernelIsas()) {
    KernelIsaScope scope(isa);
    for (const auto& rows : row_sets) {
      const int nr = static_cast<int>(rows.size());
      Matrix ga(nr, k), gb(nr, m);
      for (int r = 0; r < nr; ++r) {
        std::copy(a.Row(rows[r]), a.Row(rows[r]) + k, ga.Row(r));
        std::copy(b.Row(rows[r]), b.Row(rows[r]) + m, gb.Row(r));
      }
      Matrix want, got;
      MatMulBlockInto(ga, w.data(), k, m, &want);
      MatMulGatherBlockInto(a, rows.data(), nr, w.data(), k, m, &got);
      ASSERT_EQ(want.rows(), got.rows());
      for (size_t i = 0; i < want.Size(); ++i) {
        ASSERT_EQ(want.data()[i], got.data()[i]) << KernelIsaName(isa);
      }
      // a = gathered b rows (nr x m); wt is a (17 x m) block -> out (nr x 17).
      Matrix want_tb, got_tb;
      MatMulTransposeBBlockInto(gb, wt.data(), 17, &want_tb);
      ASSERT_EQ(want_tb.rows(), nr);
      MatMulGatherTransposeBBlockInto(b, rows.data(), nr, wt.data(), 17, &got_tb);
      for (size_t i = 0; i < want_tb.Size(); ++i) {
        ASSERT_EQ(want_tb.data()[i], got_tb.data()[i]) << KernelIsaName(isa);
      }
      const Matrix init = RandomMatrix(k, m, rng);
      Matrix want_ta = init, got_ta = init;
      MatMulTransposeAInto(ga, gb, want_ta.data());
      MatMulGatherTransposeAInto(a, rows.data(), b, rows.data(), nr,
                                 got_ta.data());
      for (size_t i = 0; i < want_ta.Size(); ++i) {
        ASSERT_EQ(want_ta.data()[i], got_ta.data()[i]) << KernelIsaName(isa);
      }
    }
  }
}

TEST(MatrixSimdTest, BlockVariantsBitIdenticalToMatrixEntryPoints) {
  // MatMulBlock / MatMulTransposeBBlock take raw pointers into a larger
  // stacked weight; multiplying a row range through them must equal the
  // Matrix-typed entry points bitwise (same kernels, same packing).
  util::Rng rng(53);
  const int n = 23, k = 19, m = 34;
  const Matrix a = RandomMatrix(n, k, rng);
  const Matrix stacked = RandomMatrix(3 * k, m, rng);  // Three (k x m) blocks.
  const Matrix at = RandomMatrix(n, m, rng);           // For the b^T variant.
  const Matrix stacked_t = RandomMatrix(3 * k, m, rng);
  for (KernelIsa isa : AvailableKernelIsas()) {
    KernelIsaScope scope(isa);
    for (int blk = 0; blk < 3; ++blk) {
      Matrix block(k, m), block_t(k, m);
      for (int r = 0; r < k; ++r) {
        std::copy(stacked.Row(blk * k + r), stacked.Row(blk * k + r) + m, block.Row(r));
        std::copy(stacked_t.Row(blk * k + r), stacked_t.Row(blk * k + r) + m,
                  block_t.Row(r));
      }
      const Matrix want = MatMul(a, block);
      const Matrix got = MatMulBlock(a, stacked.Row(blk * k), k, m);
      ASSERT_EQ(want.rows(), got.rows());
      for (size_t i = 0; i < want.Size(); ++i) {
        ASSERT_EQ(want.data()[i], got.data()[i]) << KernelIsaName(isa);
      }
      const Matrix want_tb = MatMulTransposeB(at, block_t);
      const Matrix got_tb = MatMulTransposeBBlock(at, stacked_t.Row(blk * k), k);
      for (size_t i = 0; i < want_tb.Size(); ++i) {
        ASSERT_EQ(want_tb.data()[i], got_tb.data()[i]) << KernelIsaName(isa);
      }
    }
  }
}

TEST(LinearTest, GradientsMatchNumeric) {
  util::Rng rng(2);
  Linear layer(6, 4, rng);
  const Matrix x = RandomMatrix(5, 6, rng);
  CheckParamGradients(layer, x);
  CheckInputGradients(layer, x);
}

TEST(LinearTest, TrainingPassDropsZeroColumnsBitExactPerArm) {
  // The training pass multiplies only the input columns with a non-zero
  // entry, in aligned groups of DroppableKGroupWidth(). Per arm, its forward
  // must equal ForwardInference (the full GEMM), its weight gradient the
  // full-input MatMulTransposeAInto, bit for bit, and every all-zero
  // column's gradient row must stay +0. Width 43 (tail group 40-42): column
  // 5 is zero alone (a -0 in one row), 8-11 are a whole zero group, 13-15
  // share a group with column 12, non-zero in one row; the tail group holds
  // one non-zero in the first input and none in the second; the third input
  // is all zero, so y must be the bias.
  constexpr int kIn = 43, kOut = 37, kRows = 9;
  util::Rng rng(61);
  Matrix x1 = RandomMatrix(kRows, kIn, rng);
  for (int r = 0; r < kRows; ++r) {
    for (const int c : {5, 8, 9, 10, 11, 13, 14, 15, 40, 42}) x1.At(r, c) = 0.0f;
    if (r != 4) x1.At(r, 12) = 0.0f;
  }
  x1.At(3, 5) = -0.0f;
  Matrix x2 = x1;
  for (int r = 0; r < kRows; ++r) x2.At(r, 41) = 0.0f;
  const Matrix x3(kRows, kIn);
  const Matrix g = RandomMatrix(kRows, kOut, rng);
  for (KernelIsa isa : AvailableKernelIsas()) {
    KernelIsaScope scope(isa);
    util::Rng layer_rng(62);
    Linear layer(kIn, kOut, layer_rng);
    std::vector<Param*> params;
    layer.CollectParams(&params);
    Matrix& weight = params[0]->value;
    Matrix& bias = params[1]->value;
    bias = RandomMatrix(1, kOut, layer_rng);
    for (const Matrix* x : std::initializer_list<const Matrix*>{&x1, &x2, &x3}) {
      const char* which = x == &x1 ? "x1" : x == &x2 ? "x2" : "x3";
      for (Param* p : params) p->ZeroGrad();
      const Matrix y = layer.Forward(*x);
      EXPECT_EQ(FirstBitDifference(y, layer.ForwardInference(*x)), -1)
          << KernelIsaName(isa) << " " << which;
      Matrix dx;
      layer.BackwardInto(g, &dx);
      Matrix dw_full(kIn, kOut);
      MatMulTransposeAInto(*x, g, dw_full.data());
      EXPECT_EQ(FirstBitDifference(params[0]->grad, dw_full), -1)
          << KernelIsaName(isa) << " " << which;
      EXPECT_EQ(FirstBitDifference(dx, MatMulTransposeB(g, weight)), -1)
          << KernelIsaName(isa) << " " << which;
      for (int c = 0; c < kIn; ++c) {
        bool zero_column = true;
        for (int r = 0; r < kRows; ++r) zero_column &= x->At(r, c) == 0.0f;
        if (!zero_column) continue;
        for (int j = 0; j < kOut; ++j) {
          const float dw = params[0]->grad.At(c, j);
          ASSERT_TRUE(dw == 0.0f && !std::signbit(dw))
              << KernelIsaName(isa) << " " << which << " column " << c;
        }
      }
      if (x == &x3) {  // +0 + b: the full GEMM's +0 sums plus the bias.
        Matrix expect(kRows, kOut);
        for (int r = 0; r < kRows; ++r) {
          for (int j = 0; j < kOut; ++j) expect.At(r, j) += bias.At(0, j);
        }
        EXPECT_EQ(FirstBitDifference(y, expect), -1) << KernelIsaName(isa);
      }
    }
  }
}

TEST(LeakyReLUTest, ForwardAndGradient) {
  LeakyReLU layer(0.1f);
  Matrix x(1, 4);
  x.At(0, 0) = -2;
  x.At(0, 1) = 3;
  x.At(0, 2) = 0;
  x.At(0, 3) = -0.5;
  Matrix y = layer.Forward(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), -0.2f);
  EXPECT_FLOAT_EQ(y.At(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(y.At(0, 3), -0.05f);
  util::Rng rng(3);
  CheckInputGradients(layer, RandomMatrix(3, 7, rng));
}

TEST(LayerNormTest, NormalizesAndGradients) {
  LayerNorm layer(8);
  util::Rng rng(4);
  Matrix x = RandomMatrix(3, 8, rng, 5.0);
  Matrix y = layer.Forward(x);
  // With unit gain and zero bias, each row has ~zero mean / unit variance.
  for (int r = 0; r < y.rows(); ++r) {
    float mean = 0, var = 0;
    for (int c = 0; c < 8; ++c) mean += y.At(r, c);
    mean /= 8;
    for (int c = 0; c < 8; ++c) var += (y.At(r, c) - mean) * (y.At(r, c) - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
  CheckParamGradients(layer, x);
  CheckInputGradients(layer, x);
}

TEST(SequentialTest, ComposesAndBackprops) {
  util::Rng rng(5);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(5, 8, rng));
  seq.Add(std::make_unique<LeakyReLU>());
  seq.Add(std::make_unique<Linear>(8, 2, rng));
  const Matrix x = RandomMatrix(4, 5, rng);
  CheckParamGradients(seq, x);
  CheckInputGradients(seq, x);

  // A null grad_in (a leaf input) skips the first Linear's input-gradient
  // GEMM; every parameter gradient stays bit-identical to the call with one.
  std::vector<Param*> params;
  seq.CollectParams(&params);
  const Matrix g = RandomMatrix(4, 2, rng);
  PipelineScratch scratch;
  Matrix y;
  auto param_grads = [&](Matrix* grad_in) {
    for (Param* p : params) p->ZeroGrad();
    seq.ForwardInto(x, &scratch, &y);
    seq.BackwardInto(g, &scratch, grad_in);
    std::vector<Matrix> grads;
    for (const Param* p : params) grads.push_back(p->grad);
    return grads;
  };
  Matrix grad_in;
  const std::vector<Matrix> with_input = param_grads(&grad_in);
  ASSERT_EQ(grad_in.rows(), 4);
  ASSERT_EQ(grad_in.cols(), 5);
  const std::vector<Matrix> without_input = param_grads(nullptr);
  for (size_t k = 0; k < params.size(); ++k) {
    for (size_t i = 0; i < with_input[k].Size(); ++i) {
      ASSERT_EQ(with_input[k].data()[i], without_input[k].data()[i])
          << "param " << k << " elem " << i;
    }
  }
  // Only a Linear knows how to skip its input gradient.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Sequential relu_first;
  relu_first.Add(std::make_unique<LeakyReLU>());
  relu_first.Add(std::make_unique<Linear>(5, 2, rng));
  relu_first.ForwardInto(x, &scratch, &y);
  EXPECT_DEATH(relu_first.BackwardInto(g, &scratch, nullptr),
               "NEO_CHECK failed");
}

// ---- Tree convolution ----------------------------------------------------

/// Pre-activation training forward (TreeConv::ForwardTrain) into a fresh
/// matrix. `suffixes` is the (B x s) suffix stack of a suffixed layer;
/// `node_seg` maps node -> suffix row (nullptr: every node reads row 0).
Matrix TrainForward(TreeConv& conv, const TreeStructure& t, const Matrix& x,
                    const Matrix* suffixes = nullptr,
                    const int* node_seg = nullptr) {
  const TreeGather g = TreeGather::Build(t);
  TreeConv::TrainScratch scratch;
  Matrix y;
  conv.ForwardTrain(t, x, suffixes, node_seg, g, &scratch,
                    /*leaky_alpha=*/-1.0f, &y);
  return y;
}

/// Pre-activation inference forward (TreeConv::ForwardInferenceInto).
Matrix InferForward(const TreeConv& conv, const TreeStructure& t,
                    const Matrix& x, const Matrix* suffix = nullptr) {
  Matrix y;
  conv.ForwardInferenceInto(t, x, suffix, nullptr, /*leaky_alpha=*/-1.0f, &y);
  return y;
}

/// Central-difference check of every entry of `values` against `analytic`:
/// each entry is nudged by +/-eps and `loss` re-evaluated.
void CheckNumeric(Matrix* values, const Matrix& analytic,
                  const std::function<double()>& loss, const char* what) {
  ASSERT_EQ(values->rows(), analytic.rows()) << what;
  ASSERT_EQ(values->cols(), analytic.cols()) << what;
  const float eps = 1e-3f;
  for (size_t i = 0; i < values->Size(); ++i) {
    const float orig = values->data()[i];
    values->data()[i] = orig + eps;
    const double lp = loss();
    values->data()[i] = orig - eps;
    const double lm = loss();
    values->data()[i] = orig;
    EXPECT_NEAR(analytic.data()[i], (lp - lm) / (2 * eps), 2e-3)
        << what << " index " << i;
  }
}

/// Two-sample forest covering every child shape: sample 0 is a tree with a
/// both-children root, a left-only and a right-only node, and leaves;
/// sample 1 is a three-node tree plus a lone single-node tree.
TreeStructure TwoSampleForest(std::vector<int>* node_seg) {
  TreeStructure t;
  t.left = {1, 3, -1, -1, -1, 6, -1, -1, -1};
  t.right = {2, -1, 4, -1, -1, 7, -1, -1, -1};
  *node_seg = {0, 0, 0, 0, 0, 1, 1, 1, 1};
  return t;
}

/// Paper Figure 6, Example 1: a filter with {1,-1} in the first two feature
/// positions of all three weight vectors detects "merge join on top of merge
/// join". Features: [is_merge, is_hash, A, B, C].
TEST(TreeConvTest, PaperFigure6Example1) {
  util::Rng rng(6);
  TreeConv conv(5, 1, rng);
  std::vector<Param*> params;
  conv.CollectParams(&params);
  // Set e_p = e_l = e_r = [1,-1,0,0,0], bias 0.
  params[0]->value.Zero();
  for (int part = 0; part < 3; ++part) {
    params[0]->value.At(part * 5 + 0, 0) = 1.0f;
    params[0]->value.At(part * 5 + 1, 0) = -1.0f;
  }
  params[1]->value.Zero();

  // Tree 1: MJ(MJ(A,B), C) -- nodes: 0=root MJ, 1=inner MJ, 2=A, 3=B, 4=C.
  TreeStructure t;
  t.left = {1, 2, -1, -1, -1};
  t.right = {4, 3, -1, -1, -1};
  Matrix x(5, 5);
  auto set_node = [&](int i, float mj, float hj, float a, float b, float c) {
    x.At(i, 0) = mj; x.At(i, 1) = hj; x.At(i, 2) = a; x.At(i, 3) = b; x.At(i, 4) = c;
  };
  set_node(0, 1, 0, 1, 1, 1);  // root merge join
  set_node(1, 1, 0, 1, 1, 0);  // inner merge join
  set_node(2, 0, 0, 1, 0, 0);  // A
  set_node(3, 0, 0, 0, 1, 0);  // B
  set_node(4, 0, 0, 0, 0, 1);  // C
  Matrix y = TrainForward(conv, t, x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 2.0f);  // MJ over MJ -> output 2 (paper value).

  // Tree 2: HJ(MJ(A,B), C): root becomes hash join.
  set_node(0, 0, 1, 1, 1, 1);
  y = TrainForward(conv, t, x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 0.0f);  // paper value: 0.
}

TEST(TreeConvTest, OutputStructureIsomorphic) {
  util::Rng rng(7);
  TreeConv conv(4, 6, rng);
  TreeStructure t;
  t.left = {1, -1, -1};
  t.right = {2, -1, -1};
  const Matrix x = RandomMatrix(3, 4, rng);
  const Matrix y = TrainForward(conv, t, x);
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 6);
}

TEST(TreeConvTest, TrainGradientsMatchNumericWithSharedSuffix) {
  // BackwardTrain (the backward every TrainBatch runs) against central
  // differences of ForwardTrain on a layer with a per-sample shared suffix:
  // every row of all three weight blocks (the varying-channel top rows and
  // the suffix rows), the bias, and each sample's suffix gradient.
  util::Rng rng(13);
  const int top = 3, s = 2, cout = 4;
  TreeConv conv(top + s, cout, rng, s);
  std::vector<int> node_seg;
  const TreeStructure t = TwoSampleForest(&node_seg);
  Matrix x = RandomMatrix(9, top, rng);
  Matrix suffixes = RandomMatrix(2, s, rng);
  const Matrix loss_w = RandomMatrix(9, cout, rng);
  const TreeGather g = TreeGather::Build(t);
  TreeConv::TrainScratch scratch;
  const auto loss = [&] {
    Matrix y;
    conv.ForwardTrain(t, x, &suffixes, node_seg.data(), g, &scratch,
                      /*leaky_alpha=*/-1.0f, &y);
    return WeightedLoss(y, loss_w);
  };

  std::vector<Param*> params;
  conv.CollectParams(&params);
  for (Param* p : params) p->ZeroGrad();
  loss();
  Matrix grad_suffix;
  conv.BackwardTrain(t, x, &suffixes, node_seg.data(), loss_w, g, &scratch,
                     /*grad_in=*/nullptr, &grad_suffix);
  EXPECT_GT(conv.train_stats().rows_skipped, 0u);  // Absent children skipped.
  CheckNumeric(&params[0]->value, params[0]->grad, loss, "weight");
  CheckNumeric(&params[1]->value, params[1]->grad, loss, "bias");
  CheckNumeric(&suffixes, grad_suffix, loss, "grad_suffix");
}

TEST(TreeConvTest, TrainGradientsMatchNumericWithInputGradient) {
  // A suffix-free layer (every conv past the first): the input gradient —
  // a child row feeds its parent's triangle as well as its own — plus the
  // weight and bias gradients.
  util::Rng rng(8);
  TreeConv conv(3, 4, rng);
  std::vector<int> node_seg;
  const TreeStructure t = TwoSampleForest(&node_seg);
  Matrix x = RandomMatrix(9, 3, rng);
  const Matrix loss_w = RandomMatrix(9, 4, rng);
  const TreeGather g = TreeGather::Build(t);
  TreeConv::TrainScratch scratch;
  const auto loss = [&] {
    Matrix y;
    conv.ForwardTrain(t, x, nullptr, nullptr, g, &scratch,
                      /*leaky_alpha=*/-1.0f, &y);
    return WeightedLoss(y, loss_w);
  };

  std::vector<Param*> params;
  conv.CollectParams(&params);
  for (Param* p : params) p->ZeroGrad();
  loss();
  Matrix grad_in;
  conv.BackwardTrain(t, x, nullptr, nullptr, loss_w, g, &scratch, &grad_in,
                     /*grad_suffix=*/nullptr);
  CheckNumeric(&params[0]->value, params[0]->grad, loss, "weight");
  CheckNumeric(&params[1]->value, params[1]->grad, loss, "bias");
  CheckNumeric(&x, grad_in, loss, "grad_in");
}

TEST(TreeConvTest, SharedSuffixMatchesConcatenatedInput) {
  // A layer declared with a 3-channel shared suffix must compute what a
  // suffix-free layer with the same weights computes over the concatenated
  // [varying ; suffix] input (spatial replication) — in both the training
  // and the inference forward.
  util::Rng rng(10), twin_rng(10);
  const int varying = 4, suffix_dim = 3, cin = varying + suffix_dim;
  TreeConv conv(cin, 6, rng, suffix_dim);
  TreeConv plain(cin, 6, twin_rng);  // Same weights, no suffix split.
  conv.RefreshInferenceWeights();
  TreeStructure t;
  t.left = {1, 3, -1, -1, -1};
  t.right = {2, -1, -1, -1, -1};
  const Matrix x = RandomMatrix(5, varying, rng);
  const Matrix suffix = RandomMatrix(1, suffix_dim, rng);
  Matrix full(5, cin);
  for (int i = 0; i < 5; ++i) {
    std::copy(x.Row(i), x.Row(i) + varying, full.Row(i));
    std::copy(suffix.Row(0), suffix.Row(0) + suffix_dim, full.Row(i) + varying);
  }
  const Matrix expect = TrainForward(plain, t, full);
  const Matrix infer = InferForward(conv, t, x, &suffix);
  const Matrix train = TrainForward(conv, t, x, &suffix);
  ASSERT_EQ(expect.rows(), infer.rows());
  ASSERT_EQ(expect.cols(), infer.cols());
  ASSERT_EQ(expect.rows(), train.rows());
  for (size_t i = 0; i < expect.Size(); ++i) {
    EXPECT_NEAR(expect.data()[i], infer.data()[i], 1e-5);
    EXPECT_NEAR(expect.data()[i], train.data()[i], 1e-5);
  }
}

TEST(TreeConvTest, ForwardInferenceRowsBitIdenticalToFullPass) {
  // The row-set path computes a subset of output rows; they must equal the
  // full inference pass's rows BITWISE (the search's subtree table computes
  // each row once, and the full pass is the scoring oracle).
  util::Rng rng(11);
  TreeConv conv(5, 8, rng);
  conv.RefreshInferenceWeights();
  TreeStructure t;
  t.left = {1, 3, -1, -1, -1, -1};
  t.right = {2, -1, -1, -1, 5, -1};
  const Matrix x = RandomMatrix(6, 5, rng);
  const Matrix full = InferForward(conv, t, x);
  for (const std::vector<int>& rows :
       {std::vector<int>{0}, std::vector<int>{0, 1, 4}, std::vector<int>{2, 3, 5},
        std::vector<int>{0, 1, 2, 3, 4, 5}, std::vector<int>{}}) {
    Matrix y(6, 8);
    for (int i = 0; i < 6; ++i) {
      std::copy(full.Row(i), full.Row(i) + 8, y.Row(i));  // "Cached" rows.
    }
    for (const int r : rows) std::fill(y.Row(r), y.Row(r) + 8, -123.0f);
    conv.ForwardInferenceRows(t, x, rows, nullptr, nullptr, &y);
    for (size_t i = 0; i < full.Size(); ++i) {
      ASSERT_EQ(full.data()[i], y.data()[i]) << "rows subset size " << rows.size();
    }
  }
}

TEST(TreeConvTest, ForwardInferenceRowsSharedSuffixBitIdentical) {
  util::Rng rng(12);
  const int varying = 4, suffix_dim = 3;
  TreeConv conv(varying + suffix_dim, 6, rng, suffix_dim);
  conv.RefreshInferenceWeights();
  TreeStructure t;
  t.left = {1, 3, -1, -1, -1};
  t.right = {2, -1, -1, 4, -1};
  const Matrix x = RandomMatrix(5, varying, rng);
  const Matrix suffix = RandomMatrix(1, suffix_dim, rng);
  const Matrix full = InferForward(conv, t, x, &suffix);
  Matrix y(5, 6);
  for (int i = 0; i < 5; ++i) std::copy(full.Row(i), full.Row(i) + 6, y.Row(i));
  const std::vector<int> rows = {0, 3};
  for (const int r : rows) std::fill(y.Row(r), y.Row(r) + 6, -123.0f);
  TreeConv::SuffixProjection proj;
  conv.ProjectSuffixInto(suffix, &proj);
  conv.ForwardInferenceRows(t, x, rows, &proj, nullptr, &y);
  for (size_t i = 0; i < full.Size(); ++i) ASSERT_EQ(full.data()[i], y.data()[i]);
}

TEST(TreeConvTest, TrainingForwardMatchesInferenceForward) {
  // ForwardTrain and ForwardInferenceInto compute the same math over the
  // same blocks (training from live weights through index-list gathers,
  // inference from the packed split through materialized gathers); packed
  // vs per-call packing and indexed vs materialized gathers are all
  // bit-identical, so the outputs must agree bitwise. The forest covers
  // every child shape: full node, left-only, right-only, leaves, and a lone
  // single-node tree.
  util::Rng rng(16);
  TreeConv conv(5, 8, rng);
  conv.RefreshInferenceWeights();
  TreeStructure t;
  t.left = {1, 3, -1, -1, -1, -1};
  t.right = {2, -1, -1, -1, 5, -1};
  const Matrix x = RandomMatrix(6, 5, rng);
  const Matrix train = TrainForward(conv, t, x);
  const Matrix infer = InferForward(conv, t, x);
  ASSERT_EQ(train.rows(), infer.rows());
  ASSERT_EQ(train.cols(), infer.cols());
  for (size_t i = 0; i < train.Size(); ++i) {
    ASSERT_EQ(train.data()[i], infer.data()[i]) << i;
  }
}

TEST(TreeConvTest, FusedEpilogueBitIdenticalToUnfusedReference) {
  // The fused scatter epilogue (bias + suffix projections + side
  // contributions + leaky-ReLU written in ONE pass) must be bitwise equal to
  // an unfused reference that runs the same GEMMs as separate passes and then
  // applies the adds element-by-element in the documented order: GEMM value,
  // + bias, + self suffix, [+ left contrib, + left suffix], [+ right contrib,
  // + right suffix], activation last. Swept over every dispatch arm — the
  // epilogue contains only adds, so no arm may contract any step into an
  // FMA — and over every case the epilogue picks addends for: a suffixed and
  // a suffix-free layer, with and without the activation, through all three
  // forward passes (ForwardInferenceInto; ForwardInferenceRows on a subset
  // and on every row; ForwardTrain on two samples with different suffixes).
  const int varying = 4, cout = 6;
  // Forest covering every child shape: both children, left-only,
  // right-only, leaves, and a lone single-node tree, in two samples.
  std::vector<int> node_seg;
  const TreeStructure t = TwoSampleForest(&node_seg);
  const int n = static_cast<int>(t.NumNodes());
  const std::vector<int> inference_seg(static_cast<size_t>(n), 0);
  util::Rng rng_x(41);
  const Matrix x = RandomMatrix(n, varying, rng_x);
  const Matrix suffixes = RandomMatrix(2, 3, rng_x);  // One row per sample.
  Matrix suffix(1, 3);  // The inference passes' shared suffix: sample 0's.
  std::copy(suffixes.Row(0), suffixes.Row(0) + 3, suffix.Row(0));
  std::vector<int> lpar, lch, rpar, rch;
  for (int i = 0; i < n; ++i) {
    if (t.left[i] >= 0) { lpar.push_back(i); lch.push_back(t.left[i]); }
    if (t.right[i] >= 0) { rpar.push_back(i); rch.push_back(t.right[i]); }
  }
  auto gather = [&](const std::vector<int>& ch) {
    Matrix g(static_cast<int>(ch.size()), varying);
    for (size_t r = 0; r < ch.size(); ++r) {
      std::copy(x.Row(ch[r]), x.Row(ch[r]) + varying,
                g.Row(static_cast<int>(r)));
    }
    return g;
  };
  const TreeGather tg = TreeGather::Build(t);

  for (KernelIsa isa : AvailableKernelIsas()) {
    KernelIsaScope isa_scope(isa);
    for (const int s : {3, 0}) {
      const int cin = varying + s;
      util::Rng rng(42);
      TreeConv conv(cin, cout, rng, s);
      conv.RefreshInferenceWeights();

      std::vector<Param*> params;
      conv.CollectParams(&params);
      const Matrix& W = params[0]->value;  // (3*cin x cout) stacked blocks.
      const float* bias = params[1]->value.Row(0);
      auto block = [&](int blk, int row0, int nrows) {
        Matrix m(nrows, cout);
        for (int r = 0; r < nrows; ++r) {
          std::copy(W.Row(blk * cin + row0 + r),
                    W.Row(blk * cin + row0 + r) + cout, m.Row(r));
        }
        return m;
      };
      // Unfused passes. MatMul rows are position-independent and the packed
      // / block / gather GEMM variants are bit-identical to these entry
      // points, so any difference below can only come from the epilogue
      // fusion.
      const Matrix self = MatMul(x, block(0, 0, varying));
      const Matrix lcontrib = MatMul(gather(lch), block(1, 0, varying));
      const Matrix rcontrib = MatMul(gather(rch), block(2, 0, varying));
      Matrix ps, pl, pr;  // Per-sample suffix projections (s > 0 only).
      if (s > 0) {
        ps = MatMul(suffixes, block(0, varying, s));
        pl = MatMul(suffixes, block(1, varying, s));
        pr = MatMul(suffixes, block(2, varying, s));
      }
      // Node i reads suffix projection row seg[i].
      auto reference = [&](const std::vector<int>& seg, float alpha) {
        Matrix ref(n, cout);
        size_t lc = 0, rc = 0;
        for (int i = 0; i < n; ++i) {
          const bool has_l = lc < lpar.size() && lpar[lc] == i;
          const bool has_r = rc < rpar.size() && rpar[rc] == i;
          const int k = seg[static_cast<size_t>(i)];
          for (int c = 0; c < cout; ++c) {
            float v = self.At(i, c) + bias[c];
            if (s > 0) v += ps.At(k, c);
            if (has_l) {
              v += lcontrib.At(static_cast<int>(lc), c);
              if (s > 0) v += pl.At(k, c);
            }
            if (has_r) {
              v += rcontrib.At(static_cast<int>(rc), c);
              if (s > 0) v += pr.At(k, c);
            }
            if (alpha >= 0.0f && v < 0.0f) v *= alpha;
            ref.At(i, c) = v;
          }
          if (has_l) ++lc;
          if (has_r) ++rc;
        }
        return ref;
      };
      auto expect_equal = [&](const Matrix& ref, const Matrix& got,
                              const char* pass, float alpha) {
        ASSERT_EQ(got.rows(), n);
        ASSERT_EQ(got.cols(), cout);
        for (size_t i = 0; i < ref.Size(); ++i) {
          ASSERT_EQ(ref.data()[i], got.data()[i])
              << KernelIsaName(isa) << " s " << s << " alpha " << alpha
              << " " << pass << " elt " << i;
        }
      };

      for (const float alpha : {0.01f, -1.0f}) {
        const Matrix ref = reference(inference_seg, alpha);
        TreeConv::Scratch scratch;
        Matrix y;
        conv.ForwardInferenceInto(t, x, s > 0 ? &suffix : nullptr, &scratch,
                                  alpha, &y);
        expect_equal(ref, y, "infer", alpha);

        // Listed rows over every child shape (left-only, right-only, both,
        // lone leaf), then every row; the other rows hold the reference.
        TreeConv::SuffixProjection proj;
        if (s > 0) conv.ProjectSuffixInto(suffix, &proj);
        for (const std::vector<int>& rows :
             {std::vector<int>{1, 2, 5, 8},
              std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}}) {
          Matrix yr = ref;
          for (const int r : rows) {
            std::fill(yr.Row(r), yr.Row(r) + cout, -123.0f);
          }
          conv.ForwardInferenceRows(t, x, rows, s > 0 ? &proj : nullptr,
                                    &scratch, &yr, alpha);
          expect_equal(ref, yr, "rows", alpha);
        }

        // The training forward shares the fused-epilogue contract (same op
        // order, live weights instead of the packed split), with each
        // sample's nodes reading that sample's suffix projections.
        TreeConv::TrainScratch ts;
        Matrix yt;
        conv.ForwardTrain(t, x, s > 0 ? &suffixes : nullptr, node_seg.data(),
                          tg, &ts, alpha, &yt);
        expect_equal(reference(node_seg, alpha), yt, "train", alpha);
      }
    }
  }
}

TEST(SequentialTest, FusedTripleInferenceBitIdenticalToUnfusedLayers) {
  // Sequential::ForwardInferenceInto collapses every (Linear, LayerNorm,
  // LeakyReLU) triple into GEMM + one per-row epilogue; the results must be
  // bitwise equal to running the three layers' own inference passes
  // separately, under every dispatch arm — both with the
  // Linear weights pre-packed (the head) and unpacked (the query stack,
  // whose GEMMs pack into the caller's PipelineScratch).
  const int in = 9, hidden = 12, out = 5, batch = 7;
  for (KernelIsa isa : AvailableKernelIsas()) {
    KernelIsaScope isa_scope(isa);
    util::Rng rng(43);
    auto l1 = std::make_unique<Linear>(in, hidden, rng);
    auto l2 = std::make_unique<LayerNorm>(hidden);
    auto l3 = std::make_unique<LeakyReLU>();
    auto l4 = std::make_unique<Linear>(hidden, out, rng);
    Linear* l1p = l1.get();
    LayerNorm* l2p = l2.get();
    LeakyReLU* l3p = l3.get();
    Linear* l4p = l4.get();
    // Randomize the norm's gain/bias so the normalize/scale/shift step has
    // teeth (the defaults are identity-ish).
    std::vector<Param*> norm_params;
    l2p->CollectParams(&norm_params);
    for (Param* p : norm_params) {
      for (size_t i = 0; i < p->value.Size(); ++i) {
        p->value.data()[i] = static_cast<float>(rng.NextUniform(-1, 1));
      }
    }
    Sequential seq;
    seq.Add(std::move(l1));
    seq.Add(std::move(l2));
    seq.Add(std::move(l3));
    seq.Add(std::move(l4));

    const Matrix x = RandomMatrix(batch, in, rng);
    for (const bool packed : {false, true}) {
      if (packed) seq.RefreshInferenceWeights();
      const Matrix ref = l4p->ForwardInference(l3p->ForwardInference(
          l2p->ForwardInference(l1p->ForwardInference(x))));
      PipelineScratch scratch;
      Matrix y;
      seq.ForwardInferenceInto(x, &scratch, &y);
      ASSERT_EQ(y.rows(), ref.rows());
      ASSERT_EQ(y.cols(), ref.cols());
      for (size_t i = 0; i < ref.Size(); ++i) {
        ASSERT_EQ(ref.data()[i], y.data()[i])
            << KernelIsaName(isa) << " packed " << packed << " elt " << i;
      }
    }
  }
}

TEST(DynamicPoolingTest, MaxAndGradRouting) {
  DynamicPooling pool;
  Matrix x(3, 2);
  x.At(0, 0) = 1; x.At(0, 1) = 9;
  x.At(1, 0) = 5; x.At(1, 1) = 2;
  x.At(2, 0) = 3; x.At(2, 1) = 4;
  Matrix y = pool.Forward(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 5);
  EXPECT_FLOAT_EQ(y.At(0, 1), 9);
  Matrix g(1, 2);
  g.At(0, 0) = 0.5f;
  g.At(0, 1) = -2.0f;
  Matrix gi = pool.Backward(g);
  EXPECT_FLOAT_EQ(gi.At(1, 0), 0.5f);
  EXPECT_FLOAT_EQ(gi.At(0, 1), -2.0f);
  EXPECT_FLOAT_EQ(gi.At(2, 0), 0.0f);
  EXPECT_FLOAT_EQ(gi.At(2, 1), 0.0f);
}

TEST(DynamicPoolingTest, SegmentedMatchesPerSegment) {
  util::Rng rng(77);
  const Matrix x = RandomMatrix(10, 6, rng);
  const std::vector<int> offsets = {0, 1, 4, 10};  // Segments of 1, 3, 6 rows.
  DynamicPooling pool;
  const Matrix y = pool.Forward(x, offsets);
  ASSERT_EQ(y.rows(), 3);
  ASSERT_EQ(y.cols(), 6);
  for (int s = 0; s < 3; ++s) {
    DynamicPooling single;
    Matrix seg(offsets[s + 1] - offsets[s], 6);
    for (int r = 0; r < seg.rows(); ++r) {
      std::copy(x.Row(offsets[s] + r), x.Row(offsets[s] + r) + 6, seg.Row(r));
    }
    const Matrix expect = single.Forward(seg);
    for (int c = 0; c < 6; ++c) EXPECT_EQ(y.At(s, c), expect.At(0, c));
  }
  // Backward routes each segment's gradient to that segment's argmax rows.
  Matrix g(3, 6);
  for (size_t i = 0; i < g.Size(); ++i) g.data()[i] = static_cast<float>(i + 1);
  const Matrix gi = pool.Backward(g);
  ASSERT_EQ(gi.rows(), 10);
  for (int c = 0; c < 6; ++c) {
    // Segment 0 has a single row; its gradient lands on row 0.
    EXPECT_EQ(gi.At(0, c), g.At(0, c));
  }
  double total_in = 0, total_out = 0;
  for (size_t i = 0; i < g.Size(); ++i) total_in += g.data()[i];
  for (size_t i = 0; i < gi.Size(); ++i) total_out += gi.data()[i];
  EXPECT_DOUBLE_EQ(total_in, total_out);  // Max-pool backward conserves mass.
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize ||w - target||^2 with gradients fed manually.
  Param w;
  w.value = Matrix(1, 4);
  w.grad = Matrix(1, 4);
  const float target[] = {1.0f, -2.0f, 0.5f, 3.0f};
  AdamOptions opt;
  opt.lr = 0.05f;
  Adam adam({&w}, opt);
  for (int step = 0; step < 500; ++step) {
    for (int i = 0; i < 4; ++i) {
      w.grad.At(0, i) = 2.0f * (w.value.At(0, i) - target[i]);
    }
    adam.Step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(w.value.At(0, i), target[i], 1e-2);
  EXPECT_EQ(adam.steps(), 500);
}

/// Adam's step over every element, with nothing skipped: the clip norm in
/// the lane order Adam documents (element i of each parameter into lane
/// i % 16, lanes summed in order) and detail::AdamUpdateScalarRange, which
/// every dispatch arm matches bit for bit. The oracle for the row-skipping
/// Adam.
struct ReferenceAdam {
  AdamOptions opt;
  std::vector<Matrix> w, m, v;
  int64_t t = 0;

  ReferenceAdam(const std::vector<Matrix>& values, AdamOptions options)
      : opt(options), w(values) {
    for (const Matrix& x : values) {
      m.emplace_back(x.rows(), x.cols());
      v.emplace_back(x.rows(), x.cols());
    }
  }

  /// Steps on `grads` (clipped in place); returns the norm's scale.
  double Step(std::vector<Matrix>* grads) {
    ++t;
    double scale = 1.0;
    if (opt.grad_clip > 0.0f) {
      double lanes[16] = {};
      for (const Matrix& g : *grads) {
        for (size_t i = 0; i < g.Size(); ++i) {
          const double x = g.data()[i];
          lanes[i % 16] += x * x;
        }
      }
      double sum = 0.0;
      for (const double lane : lanes) sum += lane;
      const double norm = std::sqrt(sum);
      if (norm > opt.grad_clip) {
        scale = opt.grad_clip / norm;
        for (Matrix& g : *grads) g.Scale(static_cast<float>(scale));
      }
    }
    detail::AdamScalars s;
    s.lr = opt.lr;
    s.beta1 = opt.beta1;
    s.beta2 = opt.beta2;
    s.eps = opt.eps;
    s.weight_decay = opt.weight_decay;
    s.bc1 = 1.0f - std::pow(opt.beta1, static_cast<float>(t));
    s.bc2 = 1.0f - std::pow(opt.beta2, static_cast<float>(t));
    for (size_t k = 0; k < w.size(); ++k) {
      detail::AdamUpdateScalarRange(w[k].data(), m[k].data(), v[k].data(),
                                    (*grads)[k].data(), 0,
                                    static_cast<int64_t>(w[k].Size()), s);
    }
    return scale;
  }
};

TEST(AdamTest, GradClipBoundsUpdate) {
  // The global-norm clip scales every gradient by clip / ||g|| when ||g||
  // exceeds clip, and Adam skips rows whose gradient and moments are all
  // zero; neither may change a bit against ReferenceAdam, which clips and
  // updates every element. The parameter sizes (1, 7, 9, 9 x 7 and
  // 711 x 64) put elements in every lane of the norm's lane sum, some
  // parameters ending mid-lane-row and the 9 x 7 rows starting mid-lane. In
  // the two multi-row parameters, rows r % 3 == 0 have a gradient at steps 0
  // and 1 only, rows r % 3 == 1 from step 2 on, and rows r % 3 == 2 never.
  // Adam's first step moves a weight by lr * sign(g) whatever the gradient's
  // scale, so the first moment shows the clip: after one step from zero
  // state, m = (1 - beta1) * g', where g' is the clipped gradient.
  const int shapes[][2] = {{1, 1}, {1, 7}, {3, 3}, {9, 7}, {711, 64}};
  constexpr int kSteps = 4;
  util::Rng rng(27);
  std::vector<Matrix> values;
  std::vector<std::vector<Matrix>> grads(kSteps);
  for (const auto& shape : shapes) {
    values.push_back(RandomMatrix(shape[0], shape[1], rng));
    const bool row_pattern = shape[0] > 3;
    for (int step = 0; step < kSteps; ++step) {
      Matrix g = RandomMatrix(shape[0], shape[1], rng);
      for (int r = 0; row_pattern && r < g.rows(); ++r) {
        const bool live = r % 3 == 0 ? step < 2 : r % 3 == 1 ? step >= 2 : false;
        if (!live) std::fill(g.Row(r), g.Row(r) + g.cols(), 0.0f);
      }
      grads[static_cast<size_t>(step)].push_back(std::move(g));
    }
  }
  double first_norm_sq = 0.0;
  for (const Matrix& g : grads[0]) {
    for (size_t i = 0; i < g.Size(); ++i) {
      first_norm_sq += static_cast<double>(g.data()[i]) * g.data()[i];
    }
  }
  const double first_norm = std::sqrt(first_norm_sq);
  ASSERT_GT(first_norm, 2.0);
  // One clip below every step's norm (scales) and one above (leaves g alone).
  for (const float clip : {1.0f, static_cast<float>(1e3 * first_norm)}) {
    std::vector<Param> params(values.size());
    std::vector<Param*> ptrs;
    for (size_t k = 0; k < values.size(); ++k) {
      params[k].value = values[k];
      params[k].grad = Matrix(values[k].rows(), values[k].cols());
      ptrs.push_back(&params[k]);
    }
    AdamOptions opt;
    opt.grad_clip = clip;
    Adam adam(ptrs, opt);
    ReferenceAdam ref(values, opt);
    for (int step = 0; step < kSteps; ++step) {
      std::vector<Matrix> ref_grads = grads[static_cast<size_t>(step)];
      for (size_t k = 0; k < params.size(); ++k) params[k].grad = ref_grads[k];
      adam.Step();
      const double scale = ref.Step(&ref_grads);
      EXPECT_EQ(scale < 1.0, clip == 1.0f) << "step " << step;
      std::vector<Matrix> m, v;
      int64_t steps = 0;
      adam.CaptureState(&m, &v, &steps);
      ASSERT_EQ(m.size(), values.size());
      for (size_t k = 0; k < params.size(); ++k) {
        EXPECT_EQ(FirstBitDifference(params[k].value, ref.w[k]), -1)
            << "clip " << clip << " step " << step << " param " << k;
        EXPECT_EQ(FirstBitDifference(m[k], ref.m[k]), -1)
            << "clip " << clip << " step " << step << " param " << k;
        EXPECT_EQ(FirstBitDifference(v[k], ref.v[k]), -1)
            << "clip " << clip << " step " << step << " param " << k;
        const Matrix zero(values[k].rows(), values[k].cols());
        EXPECT_EQ(FirstBitDifference(params[k].grad, zero), -1)
            << "gradient not reset, step " << step << " param " << k;
        if (step > 0) continue;
        const Matrix& g = grads[0][k];
        for (size_t i = 0; i < g.Size(); ++i) {
          const double expect = (1.0 - opt.beta1) * g.data()[i] * scale;
          ASSERT_NEAR(m[k].data()[i], expect, 1e-5 * std::fabs(expect) + 1e-12)
              << "clip " << clip << " param " << k << " elem " << i;
        }
      }
    }
  }
}

TEST(AdamTest, GradClipNormFollowsDocumentedLaneOrder) {
  // A lane order that moved only the last bits of the clip norm would vanish
  // in the float cast of the clip's scale, so this case puts that cast on a
  // rounding boundary. Lane 0 gets B^2 from a 1 x 1 parameter; a 1024 x 1
  // parameter has t in its odd rows and zeros in its even rows, so each t is
  // a live span of its own at an odd offset. t^2 is under half an ulp of B^2:
  // in the documented order (element i in lane i % 16) the t^2 add up in
  // lanes 1..15 before the lanes combine, while a span-relative order
  // ((i - begin) % 16) puts each span's first element, here every t, in lane
  // 0, where it vanishes into B^2. The clip (found by a search over floats)
  // makes float(clip / norm) differ between those two sums, so the first
  // moment after one step shows which order ran.
  constexpr int kRows = 1024;
  const float b = 1.3f;
  const float t = std::ldexp(0.7f, -26);
  AdamOptions opt;
  opt.grad_clip = 0.731250167f;
  std::vector<Matrix> grads = {Matrix(1, 1), Matrix(kRows, 1)};
  grads[0].At(0, 0) = b;
  for (int r = 1; r < kRows; r += 2) grads[1].At(r, 0) = t;

  double lanes[16] = {};
  double lane_zero = 0.0;  // Every element in lane 0, in order.
  for (const Matrix& g : grads) {
    for (size_t i = 0; i < g.Size(); ++i) {
      const double x = g.data()[i];
      lanes[i % 16] += x * x;
      lane_zero += x * x;
    }
  }
  double documented = 0.0;
  for (const double lane : lanes) documented += lane;
  ASSERT_NE(static_cast<float>(opt.grad_clip / std::sqrt(documented)),
            static_cast<float>(opt.grad_clip / std::sqrt(lane_zero)));

  const std::vector<Matrix> values = {Matrix(1, 1), Matrix(kRows, 1)};
  std::vector<Param> params(values.size());
  std::vector<Param*> ptrs;
  for (size_t k = 0; k < values.size(); ++k) {
    params[k].value = values[k];
    params[k].grad = grads[k];
    ptrs.push_back(&params[k]);
  }
  Adam adam(ptrs, opt);
  ReferenceAdam ref(values, opt);
  adam.Step();
  EXPECT_LT(ref.Step(&grads), 1.0);
  std::vector<Matrix> m, v;
  int64_t steps = 0;
  adam.CaptureState(&m, &v, &steps);
  for (size_t k = 0; k < values.size(); ++k) {
    EXPECT_EQ(FirstBitDifference(m[k], ref.m[k]), -1) << "param " << k;
  }
}

TEST(AdamTest, WeightDecayMovesZeroGradientRows) {
  // With weight_decay > 0 a row's effective gradient is wd * w, so a row
  // with a zero gradient and zero moments still moves: Adam must not skip
  // it.
  util::Rng rng(28);
  Param p;
  p.value = RandomMatrix(4, 8, rng);
  const Matrix w0 = p.value;
  AdamOptions opt;
  opt.weight_decay = 0.1f;
  Adam adam({&p}, opt);
  ReferenceAdam ref({w0}, opt);
  Matrix g = RandomMatrix(4, 8, rng);
  for (const int r : {1, 3}) std::fill(g.Row(r), g.Row(r) + 8, 0.0f);
  p.grad = g;
  std::vector<Matrix> ref_grads = {g};
  adam.Step();
  ref.Step(&ref_grads);
  EXPECT_EQ(FirstBitDifference(p.value, ref.w[0]), -1);
  for (const int r : {1, 3}) {
    for (int c = 0; c < 8; ++c) EXPECT_NE(p.value.At(r, c), w0.At(r, c));
  }
}

TEST(AdamTest, RestoreStateContinuesBitIdentically) {
  // Capture at step 2, step on, restore, step again: the weights and
  // moments must repeat the first continuation bit for bit, into the same
  // optimizer and into a fresh one. Rows 0-1 have a gradient only before the
  // capture, rows 2-3 only after it, and rows 4-5 never, so the rows Adam
  // steps after a restore must follow the restored moments, not the
  // optimizer's history.
  util::Rng rng(29);
  constexpr int kRows = 6, kCols = 20, kSteps = 5, kCapture = 2;
  const Matrix w0 = RandomMatrix(kRows, kCols, rng);
  std::vector<Matrix> grads;
  for (int step = 0; step < kSteps; ++step) {
    Matrix g = RandomMatrix(kRows, kCols, rng);
    for (int r = 0; r < kRows; ++r) {
      const bool live = r < 2 ? step < kCapture : r < 4 && step >= kCapture;
      if (!live) std::fill(g.Row(r), g.Row(r) + kCols, 0.0f);
    }
    grads.push_back(std::move(g));
  }
  Param p;
  p.value = w0;
  p.grad = Matrix(kRows, kCols);
  Adam adam({&p});
  std::vector<Matrix> m, v;
  int64_t steps = 0;
  Matrix captured_w;
  for (int step = 0; step < kSteps; ++step) {
    if (step == kCapture) {
      adam.CaptureState(&m, &v, &steps);
      captured_w = p.value;
    }
    p.grad = grads[static_cast<size_t>(step)];
    adam.Step();
  }
  std::vector<Matrix> first_m, first_v;
  adam.CaptureState(&first_m, &first_v, &steps);
  const Matrix first_w = p.value;

  Param fresh_p;
  fresh_p.value = Matrix(kRows, kCols);
  fresh_p.grad = Matrix(kRows, kCols);
  Adam fresh({&fresh_p});
  for (auto [opt, param] : {std::pair<Adam*, Param*>{&adam, &p},
                            std::pair<Adam*, Param*>{&fresh, &fresh_p}}) {
    const char* which = opt == &adam ? "same optimizer" : "fresh optimizer";
    opt->RestoreState(m, v, kCapture);
    param->value = captured_w;
    for (int step = kCapture; step < kSteps; ++step) {
      param->grad = grads[static_cast<size_t>(step)];
      opt->Step();
    }
    std::vector<Matrix> again_m, again_v;
    opt->CaptureState(&again_m, &again_v, &steps);
    EXPECT_EQ(steps, kSteps) << which;
    EXPECT_EQ(FirstBitDifference(param->value, first_w), -1) << which;
    EXPECT_EQ(FirstBitDifference(again_m[0], first_m[0]), -1) << which;
    EXPECT_EQ(FirstBitDifference(again_v[0], first_v[0]), -1) << which;
  }
}

// ---- Value network -------------------------------------------------------

PlanSample MakeSample(util::Rng& rng, int query_dim, int plan_dim, int nodes) {
  PlanSample s;
  s.query_vec = RandomMatrix(1, query_dim, rng);
  s.node_features = RandomMatrix(nodes, plan_dim, rng);
  // Left-deep chain structure.
  s.tree.left.assign(static_cast<size_t>(nodes), -1);
  s.tree.right.assign(static_cast<size_t>(nodes), -1);
  for (int i = 0; i + 2 < nodes; i += 2) {
    s.tree.left[static_cast<size_t>(i)] = i + 1;
    s.tree.right[static_cast<size_t>(i)] = i + 2;
  }
  return s;
}

ValueNetConfig SmallConfig() {
  ValueNetConfig cfg;
  cfg.query_dim = 10;
  cfg.plan_dim = 7;
  cfg.query_fc = {16, 8};
  cfg.tree_channels = {12, 8};
  cfg.head_fc = {8};
  cfg.adam.lr = 3e-3f;
  return cfg;
}

TEST(ValueNetworkTest, PredictConsistentWithEmbeddingPath) {
  ValueNetwork net(SmallConfig());
  util::Rng rng(11);
  const PlanSample s = MakeSample(rng, 10, 7, 5);
  const float direct = net.Predict(s);
  const Matrix embed = net.EmbedQuery(s.query_vec);
  const float via_embed = net.PredictWithEmbedding(embed, s.tree, s.node_features);
  EXPECT_FLOAT_EQ(direct, via_embed);
}

TEST(ValueNetworkTest, DeterministicInit) {
  ValueNetwork a(SmallConfig()), b(SmallConfig());
  util::Rng rng(12);
  const PlanSample s = MakeSample(rng, 10, 7, 7);
  EXPECT_FLOAT_EQ(a.Predict(s), b.Predict(s));
}

TEST(ValueNetworkTest, OverfitsTinyDataset) {
  ValueNetwork net(SmallConfig());
  util::Rng rng(13);
  std::vector<PlanSample> samples;
  std::vector<float> targets;
  for (int i = 0; i < 8; ++i) {
    samples.push_back(MakeSample(rng, 10, 7, 3 + i % 4));
    targets.push_back(static_cast<float>(rng.NextUniform(-1, 1)));
  }
  std::vector<const PlanSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  float first_loss = 0, last_loss = 0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    const float loss = net.TrainBatch(ptrs, targets);
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.05f);
  EXPECT_LT(last_loss, 0.02f);
}

TEST(ValueNetworkTest, VersionBumpsOnTraining) {
  ValueNetwork net(SmallConfig());
  util::Rng rng(14);
  const PlanSample s = MakeSample(rng, 10, 7, 3);
  EXPECT_EQ(net.version(), 0u);
  net.TrainBatch({&s}, {0.5f});
  EXPECT_EQ(net.version(), 1u);
}

TEST(ValueNetworkTest, HandlesSingleNodeForest) {
  ValueNetwork net(SmallConfig());
  util::Rng rng(15);
  PlanSample s = MakeSample(rng, 10, 7, 1);
  EXPECT_TRUE(std::isfinite(net.Predict(s)));
}

/// Random tree over `nodes` nodes: each node past the root attaches to a
/// random earlier node with a free child slot, so the batch contains nodes
/// with zero, one (left-only or right-only), and two children.
PlanSample MakeRandomTreeSample(util::Rng& rng, int query_dim, int plan_dim,
                                int nodes) {
  PlanSample s;
  s.query_vec = RandomMatrix(1, query_dim, rng);
  s.node_features = RandomMatrix(nodes, plan_dim, rng);
  s.tree.left.assign(static_cast<size_t>(nodes), -1);
  s.tree.right.assign(static_cast<size_t>(nodes), -1);
  for (int i = 1; i < nodes; ++i) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const int parent = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(i)));
      const bool go_left = rng.NextBool();
      int& slot = go_left ? s.tree.left[static_cast<size_t>(parent)]
                          : s.tree.right[static_cast<size_t>(parent)];
      if (slot == -1) {
        slot = i;
        break;
      }
    }
  }
  return s;
}

TEST(ValueNetworkTest, PredictBatchMatchesPerSamplePrediction) {
  ValueNetwork net(SmallConfig());
  util::Rng rng(16);
  // Mixed forest sizes: single-node trees, a two-node tree (one empty child
  // slot on the root), random shapes, and a larger chain.
  std::vector<PlanSample> samples;
  for (int nodes : {1, 2, 5, 1, 9, 17, 3}) {
    samples.push_back(MakeRandomTreeSample(rng, 10, 7, nodes));
  }
  std::vector<const PlanSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  const Matrix embed = net.EmbedQuery(samples[0].query_vec);
  const std::vector<float> batched = net.PredictBatch(embed, ptrs);
  ASSERT_EQ(batched.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    const float single =
        net.PredictWithEmbedding(embed, samples[i].tree, samples[i].node_features);
    EXPECT_NEAR(batched[i], single, 1e-5) << "sample " << i;
    const float direct = net.Predict(samples[i]);  // Per-sample query stack.
    // Same query vector for all samples would be the search scenario; here
    // each sample has its own query_vec, so only compare the shared-embedding
    // paths. Predict must stay consistent with itself.
    EXPECT_TRUE(std::isfinite(direct));
  }
}

TEST(ValueNetworkTest, PackedTrainingFirstLossMatchesPerSampleInference) {
  // Packing the minibatch into one forest must not change the forward pass:
  // every kernel is row-independent and the training and inference passes
  // share their per-element op order, so the first TrainBatch loss is
  // bit-identical to the mean squared error of per-sample Predict calls on
  // an identically-seeded twin — and training then keeps learning. The
  // 43-wide query vectors have zero columns, which the training pass leaves
  // out of the query stack's first GEMM and inference does not: every
  // c % 7 == 1 (alone in its aligned group of four, or not), the groups 4-7
  // and 24-27, and column 42 of the tail group 40-42. Dropping a column
  // alone reorders the portable arm's chains, which changes this loss, so
  // it runs per arm.
  ValueNetConfig cfg = SmallConfig();
  cfg.query_dim = 43;
  util::Rng rng(18);
  std::vector<PlanSample> samples;
  std::vector<float> targets;
  for (int i = 0; i < 12; ++i) {
    samples.push_back(MakeRandomTreeSample(rng, cfg.query_dim, 7, 1 + i % 7));
    for (int c = 0; c < cfg.query_dim; ++c) {
      if (c % 7 == 1 || (c >= 4 && c < 8) || (c >= 24 && c < 28) || c == 42) {
        samples.back().query_vec.At(0, c) = 0.0f;
      }
    }
    targets.push_back(static_cast<float>(rng.NextUniform(-1, 1)));
  }
  std::vector<const PlanSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  for (KernelIsa isa : AvailableKernelIsas()) {
    KernelIsaScope scope(isa);
    ValueNetwork packed_net(cfg);
    ValueNetwork twin(cfg);
    double total = 0.0;
    for (size_t i = 0; i < samples.size(); ++i) {
      const float err = twin.Predict(samples[i]) - targets[i];
      total += static_cast<double>(err) * err;
    }
    const float expected_first =
        static_cast<float>(total / static_cast<double>(samples.size()));

    const float packed_first = packed_net.TrainBatch(ptrs, targets);
    EXPECT_EQ(packed_first, expected_first) << KernelIsaName(isa);

    float packed_last = packed_first;
    for (int step = 0; step < 200; ++step) {
      packed_last = packed_net.TrainBatch(ptrs, targets);
    }
    EXPECT_LT(packed_last, packed_first * 0.5f) << KernelIsaName(isa);
  }
}

TEST(ValueNetworkTest, TrainBatchLossCurveRepeatsPerArm) {
  // The training determinism contract: per dispatch arm, two identically-
  // seeded nets trained on the same minibatch produce bit-equal losses at
  // every step, and the loss still falls.
  util::Rng rng(19);
  std::vector<PlanSample> samples;
  std::vector<float> targets;
  for (int i = 0; i < 16; ++i) {
    samples.push_back(MakeRandomTreeSample(rng, 10, 7, 2 + i % 6));
    targets.push_back(static_cast<float>(rng.NextUniform(-1, 1)));
  }
  std::vector<const PlanSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  for (KernelIsa isa : AvailableKernelIsas()) {
    KernelIsaScope isa_scope(isa);
    std::vector<std::vector<float>> curves;
    for (int run = 0; run < 2; ++run) {
      ValueNetwork net(SmallConfig());
      std::vector<float> curve;
      for (int step = 0; step < 8; ++step) {
        curve.push_back(net.TrainBatch(ptrs, targets));
      }
      curves.push_back(std::move(curve));
    }
    for (size_t t = 1; t < curves.size(); ++t) {
      for (size_t s = 0; s < curves[0].size(); ++s) {
        ASSERT_EQ(curves[0][s], curves[t][s])
            << KernelIsaName(isa) << " run " << t << " step " << s;
      }
    }
    EXPECT_LT(curves[0].back(), curves[0].front());  // Still learning.
  }
}

TEST(ValueNetworkTest, TrainBatchSteadyStateAllocatesNothing) {
  // Once its buffers are at capacity, a training step makes no heap
  // allocation (TrainBatch counts its whole step as one alloc region). Two
  // inputs, micro_nn's two training arms: default ValueNetConfig widths on
  // 64 trees of 9-17 nodes with dense query vectors (sparse_train), and the
  // shapes the repository benchmark's train workload retrains at — 711-wide
  // query vectors about 10% non-zero, the quick config's widths, 32 trees of
  // about 9 nodes (neobench_train). Each alternates two minibatches whose
  // query vectors keep different columns (neobench_train: columns 0-359 and
  // 300-710), so the query stack's first Linear gathers a different K each
  // step; once both are warm, neither step allocates. SmallConfig's shapes
  // are too small to prove it.
  if (!util::AllocCounterActive()) {
    GTEST_SKIP() << "allocation counter compiled out (sanitizer build)";
  }
  struct Shapes {
    ValueNetConfig cfg;
    int batch;
    int min_nodes;
    bool sparse_queries;
  };
  Shapes sparse_train{ValueNetConfig(), 64, 9, false};
  sparse_train.cfg.query_dim = 66;
  sparse_train.cfg.plan_dim = 21;
  Shapes neobench_train{ValueNetConfig(), 32, 5, true};
  neobench_train.cfg.query_dim = 711;
  neobench_train.cfg.plan_dim = 21;
  neobench_train.cfg.query_fc = {64, 32};
  neobench_train.cfg.tree_channels = {32, 16};
  neobench_train.cfg.head_fc = {16};
  for (const Shapes& shapes : {sparse_train, neobench_train}) {
    ValueNetwork net(shapes.cfg);
    util::Rng rng(5);
    std::vector<PlanSample> samples[2];
    std::vector<float> targets[2];
    std::vector<const PlanSample*> ptrs[2];
    for (int mb = 0; mb < 2; ++mb) {
      const int lo = mb == 0 ? 0 : 300;
      const int hi = mb == 0 ? 360 : shapes.cfg.query_dim;
      for (int i = 0; i < shapes.batch; ++i) {
        const int nodes = shapes.min_nodes + static_cast<int>(rng.NextBounded(9));
        samples[mb].push_back(
            MakeSample(rng, shapes.cfg.query_dim, shapes.cfg.plan_dim, nodes));
        targets[mb].push_back(static_cast<float>(rng.NextUniform(-1, 1)));
        if (!shapes.sparse_queries) continue;
        float* q = samples[mb].back().query_vec.Row(0);
        for (int c = 0; c < shapes.cfg.query_dim; ++c) {
          if (c < lo || c >= hi || rng.NextBounded(10) != 0) q[c] = 0.0f;
        }
      }
      for (const auto& s : samples[mb]) ptrs[mb].push_back(&s);
    }
    for (int warm = 0; warm < 4; ++warm) net.TrainBatch(ptrs[warm % 2], targets[warm % 2]);
    for (int mb = 0; mb < 2; ++mb) {
      util::ArmAllocCounter(true);
      util::ResetRegionAllocs();
      net.TrainBatch(ptrs[mb], targets[mb]);
      const uint64_t allocs = util::RegionAllocs();
      util::ArmAllocCounter(false);
      EXPECT_EQ(allocs, 0u) << "query_dim " << shapes.cfg.query_dim
                            << " minibatch " << mb;
    }
  }
}

TEST(ValueNetworkTest, TrainingTracksPeakScratchAndConvStats) {
  // The peak accounting observes the forward's activations, and the
  // per-layer conv counters accumulate and reset cleanly.
  ValueNetwork net(SmallConfig());
  util::Rng rng(25);
  std::vector<PlanSample> samples;
  std::vector<float> targets;
  for (int i = 0; i < 8; ++i) {
    samples.push_back(MakeRandomTreeSample(rng, 10, 7, 3 + i % 5));
    targets.push_back(0.25f);
  }
  std::vector<const PlanSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);
  EXPECT_EQ(net.peak_training_scratch_bytes(), 0u);
  net.TrainBatch(ptrs, targets);
  EXPECT_GT(net.peak_training_scratch_bytes(), 0u);
  // Conv train stats accumulated and reset cleanly.
  const auto stats = net.ConvTrainStats();
  ASSERT_EQ(stats.size(), SmallConfig().tree_channels.size());
  EXPECT_GT(stats[0].forward_madds, 0u);
  EXPECT_GT(stats[0].backward_madds, 0u);
  net.ResetConvTrainStats();
  EXPECT_EQ(net.ConvTrainStats()[0].forward_madds, 0u);
}

TEST(AdamTest, FusedUpdateBitIdenticalAcrossArms) {
  // The fused kernel's per-element op sequence is the same correctly-rounded
  // fma/mul/div/sqrt chain in every arm and in the scalar tails, so the
  // updated parameters must match bitwise across dispatch arms and (via odd
  // sizes) vector/tail splits.
  util::Rng rng(26);
  const int count = 10007;  // Odd: exercises every tail path.
  const Matrix w0 = RandomMatrix(1, count, rng);
  const Matrix g0 = RandomMatrix(1, count, rng);
  AdamOptions opt;
  opt.weight_decay = 0.01f;
  opt.grad_clip = 0.0f;  // Isolate the fused update from the clip reduction.

  const auto run = [&](KernelIsa isa) {
    KernelIsaScope isa_scope(isa);
    Param p;
    p.value = w0;
    p.grad = g0;
    Adam adam({&p}, opt);
    adam.Step();
    // Second step exercises nonzero m/v state.
    p.grad = g0;
    adam.Step();
    return p.value;
  };
  const Matrix ref = run(KernelIsa::kPortable);
  for (KernelIsa isa : AvailableKernelIsas()) {
    const Matrix got = run(isa);
    for (size_t i = 0; i < ref.Size(); ++i) {
      ASSERT_EQ(ref.data()[i], got.data()[i])
          << KernelIsaName(isa) << " elem " << i;
    }
  }
}

TEST(ValueNetworkTest, TrainBatchSpanOverloadMatchesVector) {
  ValueNetwork a(SmallConfig()), b(SmallConfig());
  util::Rng rng(20);
  std::vector<PlanSample> samples;
  std::vector<float> targets;
  for (int i = 0; i < 6; ++i) {
    samples.push_back(MakeSample(rng, 10, 7, 3 + i));
    targets.push_back(static_cast<float>(rng.NextUniform(-1, 1)));
  }
  std::vector<const PlanSample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);
  const float via_vector = a.TrainBatch(ptrs, targets);
  const float via_span = b.TrainBatch(ptrs.data(), targets.data(), ptrs.size());
  EXPECT_EQ(via_vector, via_span);
}

TEST(ValueNetworkTest, ConcurrentPredictionMatchesSerial) {
  // Thread-safety of the inference path: N threads scoring with their own
  // InferenceContext against one shared network must reproduce the serial
  // scores exactly (the episode planner relies on this).
  ValueNetwork net(SmallConfig());
  util::Rng rng(22);
  std::vector<PlanSample> samples;
  for (int i = 0; i < 24; ++i) {
    samples.push_back(MakeRandomTreeSample(rng, 10, 7, 1 + i % 9));
  }
  const Matrix embed = net.EmbedQuery(samples[0].query_vec);
  std::vector<float> serial;
  for (const auto& s : samples) {
    serial.push_back(net.PredictWithEmbedding(embed, s.tree, s.node_features));
  }
  std::vector<float> parallel(samples.size(), 0.0f);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ValueNetwork::InferenceContext ctx;
      for (size_t i = static_cast<size_t>(t); i < samples.size(); i += 4) {
        parallel[i] = net.PredictWithEmbedding(embed, samples[i].tree,
                                               samples[i].node_features, &ctx);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < samples.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "sample " << i;
  }
}

TEST(ValueNetworkTest, RowSetEntriesBitIdenticalToPredictBatch) {
  // The plan search's scoring path through the network: the query
  // projection once, ForwardRows over a row table in two calls (tree a's
  // rows, then tree b's, as two scoring rounds would add them), the
  // max-pool, then PredictPooledInto. Every score must equal the full pass
  // (PredictBatch) bitwise.
  ValueNetwork net(SmallConfig());
  util::Rng rng(23);
  PlanSample a = MakeRandomTreeSample(rng, 10, 7, 9);
  PlanSample b = MakeRandomTreeSample(rng, 10, 7, 13);
  const Matrix embed = net.EmbedQuery(a.query_vec);
  const std::vector<float> ref = net.PredictBatch(embed, {&a, &b});

  const PlanBatch ab = PackPlanBatch({&a, &b});
  const int n = ab.node_features.rows();
  TreeConv::SuffixProjection proj;
  net.ProjectQueryInto(embed, &proj);
  std::vector<Matrix> layers;
  for (const int width : net.config().tree_channels) layers.emplace_back(n, width);
  std::vector<int> first, second;
  for (int i = 0; i < n; ++i) (i < ab.tree_offsets[1] ? first : second).push_back(i);
  ValueNetwork::InferenceContext ctx;
  net.ForwardRows(ab.forest, ab.node_features, first, proj, &ctx, &layers);
  net.ForwardRows(ab.forest, ab.node_features, second, proj, &ctx, &layers);
  const Matrix pooled =
      DynamicPooling().ForwardInference(layers.back(), ab.tree_offsets);
  std::vector<float> scores;
  net.PredictPooledInto(pooled, &ctx, &scores);
  ASSERT_EQ(scores.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(scores[i], ref[i]) << "plan " << i;
}

TEST(ValueNetworkTest, PredictBatchEmptyAndSingleton) {
  ValueNetwork net(SmallConfig());
  util::Rng rng(17);
  const PlanSample s = MakeSample(rng, 10, 7, 5);
  const Matrix embed = net.EmbedQuery(s.query_vec);
  EXPECT_TRUE(net.PredictBatch(embed, std::vector<const PlanSample*>{}).empty());
  const std::vector<float> one = net.PredictBatch(embed, {&s});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_NEAR(one[0], net.PredictWithEmbedding(embed, s.tree, s.node_features), 1e-5);
}

}  // namespace
}  // namespace neo::nn
