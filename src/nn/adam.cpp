#include "src/nn/adam.h"

#include <cmath>

#include "src/nn/matrix_simd.h"

namespace neo::nn {

Adam::Adam(std::vector<Param*> params, AdamOptions options)
    : params_(std::move(params)), options_(options) {
  for (Param* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

namespace {

/// Lanes of the clip norm's squared sum.
constexpr size_t kNormLanes = 16;

/// Sum of squares of every gradient element, in double. One serial chain of
/// double adds over every element (about 55k per step at the benchmark's
/// shapes) costs more than any GEMM of the step, so the sum runs in
/// kNormLanes independent lanes: element i of each parameter matrix adds
/// into lane i % kNormLanes, parameters in CollectParams order, elements
/// ascending; the lanes then combine in ascending lane order. The order is
/// fixed C++ (no dispatch arm), so the sum is the same on every arm and
/// every run. A float times a float is exact in double, so contracting a
/// square and its add into an FMA cannot change a bit either.
double GradSumSquares(const std::vector<Param*>& params) {
  double lanes[kNormLanes] = {};
  for (const Param* p : params) {
    const float* g = p->grad.data();
    const size_t n = p->grad.Size();
    const size_t body = n - n % kNormLanes;
    size_t i = 0;
    for (; i < body; i += kNormLanes) {
      for (size_t l = 0; l < kNormLanes; ++l) {
        const double v = g[i + l];
        lanes[l] += v * v;
      }
    }
    for (size_t l = 0; i < n; ++i, ++l) {
      const double v = g[i];
      lanes[l] += v * v;
    }
  }
  double sum = 0.0;
  for (const double lane : lanes) sum += lane;
  return sum;
}

}  // namespace

void Adam::Step() {
  ++t_;
  // Optional global-norm gradient clipping (the norm's lane order is
  // documented at GradSumSquares).
  if (options_.grad_clip > 0.0f) {
    const double norm = std::sqrt(GradSumSquares(params_));
    if (norm > options_.grad_clip) {
      const float scale = static_cast<float>(options_.grad_clip / norm);
      for (Param* p : params_) p->grad.Scale(scale);
    }
  }

  // Fused m/v/w sweep per parameter matrix, routed through the kernel
  // dispatch table (SIMD-vectorized div/sqrt under the AVX arms). The
  // per-element op sequence is identical in every arm and scalar tail, so
  // the update is bit-identical across dispatch arms (see AdamFusedUpdate in
  // matrix.h).
  detail::AdamScalars scalars;
  scalars.lr = options_.lr;
  scalars.beta1 = options_.beta1;
  scalars.beta2 = options_.beta2;
  scalars.eps = options_.eps;
  scalars.weight_decay = options_.weight_decay;
  scalars.bc1 = 1.0f - std::pow(options_.beta1, static_cast<float>(t_));
  scalars.bc2 = 1.0f - std::pow(options_.beta2, static_cast<float>(t_));
  for (size_t k = 0; k < params_.size(); ++k) {
    Param* p = params_[k];
    AdamFusedUpdate(p->value.data(), m_[k].data(), v_[k].data(), p->grad.data(),
                    static_cast<int64_t>(p->value.Size()), scalars);
  }
  ZeroGrad();
}

void Adam::ZeroGrad() {
  for (Param* p : params_) p->ZeroGrad();
}

void Adam::CaptureState(std::vector<Matrix>* m, std::vector<Matrix>* v,
                        int64_t* steps) const {
  m->assign(m_.begin(), m_.end());
  v->assign(v_.begin(), v_.end());
  *steps = t_;
}

void Adam::RestoreState(const std::vector<Matrix>& m, const std::vector<Matrix>& v,
                        int64_t steps) {
  NEO_CHECK(m.size() == m_.size() && v.size() == v_.size());
  for (size_t k = 0; k < m_.size(); ++k) {
    m_[k] = m[k];
    v_[k] = v[k];
  }
  t_ = steps;
}

}  // namespace neo::nn
