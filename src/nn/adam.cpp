#include "src/nn/adam.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/nn/matrix_simd.h"

namespace neo::nn {

namespace {

/// True iff every element of x[0..n) is +0 (bitwise, so -0 and NaN count as
/// non-zero). A word-wise OR, which vectorizes.
bool AllPlusZero(const float* x, int64_t n) {
  uint32_t bits = 0;
  for (int64_t i = 0; i < n; ++i) {
    uint32_t u;
    std::memcpy(&u, &x[i], sizeof u);
    bits |= u;
  }
  return bits == 0;
}

}  // namespace

Adam::Adam(std::vector<Param*> params, AdamOptions options)
    : params_(std::move(params)), options_(options) {
  for (Param* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
    row_begin_.push_back(live_.size());
    live_.resize(live_.size() + static_cast<size_t>(p->value.rows()), 0);
  }
  spans_.reserve(live_.size());
}

namespace {

/// Lanes of the clip norm's squared sum.
constexpr int64_t kNormLanes = 16;

/// Adds the squares of g[begin, end) into `lanes`, element i into lane
/// i % kNormLanes.
void AddSquares(const float* g, int64_t begin, int64_t end, double* lanes) {
  int64_t i = begin;
  for (; i < end && i % kNormLanes != 0; ++i) {
    const double v = g[i];
    lanes[i % kNormLanes] += v * v;
  }
  for (; i + kNormLanes <= end; i += kNormLanes) {
    for (int64_t l = 0; l < kNormLanes; ++l) {
      const double v = g[i + l];
      lanes[l] += v * v;
    }
  }
  for (; i < end; ++i) {
    const double v = g[i];
    lanes[i % kNormLanes] += v * v;
  }
}

}  // namespace

void Adam::CollectLiveSpans() {
  spans_.clear();
  const bool decay = options_.weight_decay != 0.0f;
  for (size_t k = 0; k < params_.size(); ++k) {
    const Matrix& grad = params_[k]->grad;
    const int rows = grad.rows();
    const int64_t cols = grad.cols();
    uint8_t* live = live_.data() + row_begin_[k];
    int open = -1;  // First row of the run being built.
    for (int r = 0; r <= rows; ++r) {
      if (r < rows && live[r] == 0) {
        live[r] = decay || !AllPlusZero(grad.Row(r), cols);
      }
      if (r < rows && live[r] != 0) {
        if (open < 0) open = r;
      } else if (open >= 0) {
        spans_.push_back({k, open * cols, r * cols});
        open = -1;
      }
    }
  }
}

void Adam::Step() {
  ++t_;
  CollectLiveSpans();
  // Optional global-norm gradient clipping. The squared sum runs in
  // kNormLanes independent lanes (one serial chain of double adds over the
  // ~55k elements of the benchmark's network costs more than any GEMM of the
  // step): element i of each parameter adds into lane i % kNormLanes,
  // parameters in order, elements ascending; the lanes then combine in
  // ascending lane order. The order is fixed C++ (no dispatch arm), so the
  // sum is the same on every arm and every run. A skipped row's +0 squares
  // would leave their lanes unchanged, and no element changes lanes. A float
  // times a float is exact in double, so contracting a square and its add
  // into an FMA cannot change a bit either.
  if (options_.grad_clip > 0.0f) {
    double lanes[kNormLanes] = {};
    for (const Span& s : spans_) {
      AddSquares(params_[s.param]->grad.data(), s.begin, s.end, lanes);
    }
    double sum = 0.0;
    for (const double lane : lanes) sum += lane;
    const double norm = std::sqrt(sum);
    if (norm > options_.grad_clip) {
      const float scale = static_cast<float>(options_.grad_clip / norm);
      for (const Span& s : spans_) {
        float* g = params_[s.param]->grad.data();
        for (int64_t i = s.begin; i < s.end; ++i) g[i] *= scale;
      }
    }
  }

  // Fused m/v/w sweep per live span, routed through the kernel dispatch
  // table (SIMD-vectorized div/sqrt under the AVX arms). The per-element op
  // sequence is identical in every arm and scalar tail, so the update is
  // bit-identical across dispatch arms and span boundaries (see
  // AdamFusedUpdate in matrix.h).
  detail::AdamScalars scalars;
  scalars.lr = options_.lr;
  scalars.beta1 = options_.beta1;
  scalars.beta2 = options_.beta2;
  scalars.eps = options_.eps;
  scalars.weight_decay = options_.weight_decay;
  scalars.bc1 = 1.0f - std::pow(options_.beta1, static_cast<float>(t_));
  scalars.bc2 = 1.0f - std::pow(options_.beta2, static_cast<float>(t_));
  for (const Span& s : spans_) {
    Param* p = params_[s.param];
    AdamFusedUpdate(p->value.data() + s.begin, m_[s.param].data() + s.begin,
                    v_[s.param].data() + s.begin, p->grad.data() + s.begin,
                    s.end - s.begin, scalars);
    std::fill(p->grad.data() + s.begin, p->grad.data() + s.end, 0.0f);
  }
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
    NEO_CHECK(m[k].rows() == m_[k].rows() && m[k].cols() == m_[k].cols() &&
              v[k].rows() == v_[k].rows() && v[k].cols() == v_[k].cols());
    m_[k] = m[k];
    v_[k] = v[k];
    uint8_t* live = live_.data() + row_begin_[k];
    const int64_t cols = m_[k].cols();
    for (int r = 0; r < m_[k].rows(); ++r) {
      live[r] = !AllPlusZero(m_[k].Row(r), cols) || !AllPlusZero(v_[k].Row(r), cols);
    }
  }
  t_ = steps;
}

}  // namespace neo::nn
