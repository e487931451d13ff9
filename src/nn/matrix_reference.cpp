// Naive triple-loop GEMM kernels, in their own translation unit kept at the
// build's default -O2 (no vectorization override). They are test oracles —
// the ground truth the blocked kernels are checked against — and micro_nn's
// naive GEMM baseline. No library path calls them, and no switch routes
// production GEMMs through them.
//
// Not to be confused with the "portable" kernel dispatch arm
// (NEO_FORCE_PORTABLE / KernelIsa::kPortable): that arm is the register-
// blocked -O3 kernel in matrix.cpp — the fallback when no SIMD arm fits the
// CPU.
#include "src/nn/matrix.h"

namespace neo::nn {

Matrix MatMulNaive(const Matrix& a, const Matrix& b) {
  NEO_CHECK(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  const int n = a.rows(), k = a.cols(), m = b.cols();
  for (int i = 0; i < n; ++i) {
    const float* arow = a.Row(i);
    float* orow = out.Row(i);
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;  // Sparse skip (one-hot inputs).
      const float* brow = b.Row(p);
      for (int j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Matrix MatMulTransposeBNaive(const Matrix& a, const Matrix& b) {
  NEO_CHECK(a.cols() == b.cols());
  Matrix out(a.rows(), b.rows());
  const int n = a.rows(), k = a.cols(), m = b.rows();
  for (int i = 0; i < n; ++i) {
    const float* arow = a.Row(i);
    float* orow = out.Row(i);
    for (int j = 0; j < m; ++j) {
      const float* brow = b.Row(j);
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      orow[j] = acc;
    }
  }
  return out;
}

Matrix MatMulTransposeANaive(const Matrix& a, const Matrix& b) {
  NEO_CHECK(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  const int n = a.rows(), k = a.cols(), m = b.cols();
  for (int r = 0; r < n; ++r) {
    const float* arow = a.Row(r);
    const float* brow = b.Row(r);
    for (int i = 0; i < k; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;  // Sparse skip.
      float* orow = out.Row(i);
      for (int j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

void MatMulTransposeAIntoNaive(const Matrix& a, const Matrix& b, float* out) {
  NEO_CHECK(a.rows() == b.rows());
  const int n = a.rows(), k = a.cols(), m = b.cols();
  for (int r = 0; r < n; ++r) {
    const float* arow = a.Row(r);
    const float* brow = b.Row(r);
    for (int i = 0; i < k; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;  // Zero rows contribute nothing.
      float* orow = out + static_cast<size_t>(i) * m;
      for (int j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
}

}  // namespace neo::nn
