#include "src/nn/layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace neo::nn {

Linear::Linear(int in_dim, int out_dim, util::Rng& rng) {
  weight_.value = Matrix(in_dim, out_dim);
  weight_.value.InitKaiming(rng, in_dim);
  weight_.grad = Matrix(in_dim, out_dim);
  bias_.value = Matrix(1, out_dim);
  bias_.grad = Matrix(1, out_dim);
}

Matrix Linear::Forward(const Matrix& x) {
  Matrix y;
  ForwardInto(x, &y);
  return y;
}

Matrix Linear::ForwardInference(const Matrix& x) const {
  Matrix y;
  ForwardInferenceInto(x, &y);
  return y;
}

void Linear::ForwardInto(const Matrix& x, Matrix* y) {
  NEO_CHECK(x.cols() == in_dim());
  const int n = x.rows(), in = x.cols();
  // K: every aligned group of `group` columns with a non-zero entry. A
  // column's OR of bits, sign bit aside, is non-zero iff some entry is.
  column_bits_.assign(static_cast<size_t>(in), 0u);
  uint32_t* bits = column_bits_.data();
  for (int r = 0; r < n; ++r) {
    const float* row = x.Row(r);
    for (int c = 0; c < in; ++c) {
      uint32_t u;
      std::memcpy(&u, &row[c], sizeof u);
      bits[c] |= u << 1;
    }
  }
  const int group = DroppableKGroupWidth();
  kept_.reserve(static_cast<size_t>(in));  // Once: K never outgrows it.
  kept_.clear();
  for (int c0 = 0; c0 < in; c0 += group) {
    const int c1 = std::min(in, c0 + group);
    uint32_t any = 0;
    for (int c = c0; c < c1; ++c) any |= bits[c];
    if (any == 0) continue;
    for (int c = c0; c < c1; ++c) kept_.push_back(c);
  }
  // Every column kept: x itself, and the full GEMM (a null row list).
  const bool all = static_cast<int>(kept_.size()) == in;
  if (all) {
    last_input_ = x;  // Copy-assign: reuses capacity once warm.
  } else {
    const int k = static_cast<int>(kept_.size());
    last_input_.Reshape(n, k);
    for (int r = 0; r < n; ++r) {
      const float* src = x.Row(r);
      float* dst = last_input_.Row(r);
      for (int j = 0; j < k; ++j) dst[j] = src[kept_[static_cast<size_t>(j)]];
    }
  }
  MatMulGatherBInto(last_input_, weight_.value, all ? nullptr : kept_.data(),
                    y, &gemm_scratch_);
  AddBias(y);
}

void Linear::ForwardInferenceInto(const Matrix& x, Matrix* y) const {
  if (packed_fresh_) {
    MatMulPackedInto(x, packed_weight_, y);
  } else {
    MatMulInto(x, weight_.value, y);
  }
  AddBias(y);
}

void Linear::GemmInto(const Matrix& x, GemmScratch* scratch, Matrix* y) const {
  if (packed_fresh_) {
    MatMulPackedInto(x, packed_weight_, y);
  } else {
    MatMulInto(x, weight_.value, y, scratch);
  }
}

void Linear::AddBias(Matrix* y) const {
  const float* b = bias_.value.Row(0);
  const int cols = y->cols();
  for (int r = 0; r < y->rows(); ++r) {
    float* row = y->Row(r);
    for (int c = 0; c < cols; ++c) row[c] += b[c];
  }
}

void Linear::RefreshInferenceWeights() {
  packed_weight_.Assign(weight_.value);
  packed_fresh_ = true;
}

Matrix Linear::Backward(const Matrix& grad_out) {
  Matrix grad_in;
  BackwardInto(grad_out, &grad_in);
  return grad_in;
}

void Linear::BackwardInto(const Matrix& grad_out, Matrix* grad_in) {
  // Training implies an imminent weight update: invalidate the packed copy so
  // ForwardInference cannot silently multiply stale weights (same discipline
  // as TreeConv::BackwardTrain and its split blocks).
  packed_fresh_ = false;
  // dW[K] += x[:, K]^T g (accumulated in place — no product temporary); db +=
  // sum_rows(g) ; dx = g W^T, skipped when grad_in is null. Each weight-
  // gradient element is one chain over the batch rows seeded from dW, so
  // rows K accumulate in a compact copy exactly as they would in place.
  const int k = last_input_.cols();
  const int m = out_dim();
  if (k == in_dim()) {
    MatMulTransposeAInto(last_input_, grad_out, weight_.grad.data(),
                         &gemm_scratch_);
  } else if (k > 0) {
    grad_rows_.Reshape(k, m);
    for (int j = 0; j < k; ++j) {
      const float* src = weight_.grad.Row(kept_[static_cast<size_t>(j)]);
      std::copy(src, src + m, grad_rows_.Row(j));
    }
    MatMulTransposeAInto(last_input_, grad_out, grad_rows_.data(),
                         &gemm_scratch_);
    for (int j = 0; j < k; ++j) {
      const float* src = grad_rows_.Row(j);
      std::copy(src, src + m, weight_.grad.Row(kept_[static_cast<size_t>(j)]));
    }
  }
  for (int r = 0; r < grad_out.rows(); ++r) {
    const float* g = grad_out.Row(r);
    float* b = bias_.grad.Row(0);
    for (int c = 0; c < grad_out.cols(); ++c) b[c] += g[c];
  }
  if (grad_in != nullptr) {
    MatMulTransposeBInto(grad_out, weight_.value, grad_in, &gemm_scratch_);
  }
}

Matrix LeakyReLU::Forward(const Matrix& x) {
  last_input_ = x;
  return ForwardInference(x);
}

Matrix LeakyReLU::ForwardInference(const Matrix& x) const {
  Matrix y = x;
  for (size_t i = 0; i < y.Size(); ++i) {
    if (y.data()[i] < 0.0f) y.data()[i] *= alpha_;
  }
  return y;
}

void LeakyReLU::ForwardInto(const Matrix& x, Matrix* y) {
  last_input_ = x;  // Copy-assign: reuses capacity once warm.
  ForwardInferenceInto(x, y);
}

void LeakyReLU::ForwardInferenceInto(const Matrix& x, Matrix* y) const {
  y->Reshape(x.rows(), x.cols());
  const float* src = x.data();
  float* dst = y->data();
  for (size_t i = 0; i < x.Size(); ++i) {
    const float v = src[i];
    dst[i] = v < 0.0f ? v * alpha_ : v;
  }
}

Matrix LeakyReLU::Backward(const Matrix& grad_out) {
  Matrix g;
  BackwardInto(grad_out, &g);
  return g;
}

void LeakyReLU::BackwardInto(const Matrix& grad_out, Matrix* grad_in) {
  grad_in->Reshape(grad_out.rows(), grad_out.cols());
  const float* g = grad_out.data();
  const float* x = last_input_.data();
  float* dst = grad_in->data();
  for (size_t i = 0; i < grad_out.Size(); ++i) {
    dst[i] = x[i] < 0.0f ? g[i] * alpha_ : g[i];
  }
}

LayerNorm::LayerNorm(int dim) {
  gain_.value = Matrix(1, dim);
  for (size_t i = 0; i < gain_.value.Size(); ++i) gain_.value.data()[i] = 1.0f;
  gain_.grad = Matrix(1, dim);
  bias_.value = Matrix(1, dim);
  bias_.grad = Matrix(1, dim);
}

namespace {

/// Normalizes one row and applies gain/bias. `norm_out` (the cached x-hat
/// row) is optional so the inference path can skip the write entirely.
inline void LayerNormRow(const float* row, int d, const float* gain,
                         const float* bias, float eps, float* yrow,
                         float* norm_out, float* inv_std_out) {
  float mean = 0.0f;
  for (int c = 0; c < d; ++c) mean += row[c];
  mean /= static_cast<float>(d);
  float var = 0.0f;
  for (int c = 0; c < d; ++c) {
    const float dv = row[c] - mean;
    var += dv * dv;
  }
  var /= static_cast<float>(d);
  const float inv_std = 1.0f / std::sqrt(var + eps);
  if (inv_std_out != nullptr) *inv_std_out = inv_std;
  for (int c = 0; c < d; ++c) {
    const float norm = (row[c] - mean) * inv_std;
    if (norm_out != nullptr) norm_out[c] = norm;
    yrow[c] = norm * gain[c] + bias[c];
  }
}

}  // namespace

Matrix LayerNorm::Forward(const Matrix& x) {
  Matrix y;
  ForwardInto(x, &y);
  return y;
}

void LayerNorm::ForwardInto(const Matrix& x, Matrix* y) {
  const int n = x.rows(), d = x.cols();
  last_norm_.Reshape(n, d);  // Fully overwritten below.
  last_inv_std_.resize(static_cast<size_t>(n));
  y->Reshape(n, d);
  const float* gain = gain_.value.Row(0);
  const float* bias = bias_.value.Row(0);
  for (int r = 0; r < n; ++r) {
    LayerNormRow(x.Row(r), d, gain, bias, kEps, y->Row(r), last_norm_.Row(r),
                 &last_inv_std_[static_cast<size_t>(r)]);
  }
}

Matrix LayerNorm::ForwardInference(const Matrix& x) const {
  Matrix y;
  ForwardInferenceInto(x, &y);
  return y;
}

void LayerNorm::ForwardInferenceInto(const Matrix& x, Matrix* y) const {
  const int n = x.rows(), d = x.cols();
  y->Reshape(n, d);
  const float* gain = gain_.value.Row(0);
  const float* bias = bias_.value.Row(0);
  for (int r = 0; r < n; ++r) {
    LayerNormRow(x.Row(r), d, gain, bias, kEps, y->Row(r), nullptr, nullptr);
  }
}

Matrix LayerNorm::Backward(const Matrix& grad_out) {
  Matrix grad_in;
  BackwardInto(grad_out, &grad_in);
  return grad_in;
}

void LayerNorm::BackwardInto(const Matrix& grad_out, Matrix* grad_in_out) {
  const int n = grad_out.rows(), d = grad_out.cols();
  grad_in_out->Reshape(n, d);  // Fully overwritten below.
  Matrix& grad_in = *grad_in_out;
  dxhat_scratch_.resize(static_cast<size_t>(d));  // One buffer for all rows.
  float* dxhat = dxhat_scratch_.data();
  for (int r = 0; r < n; ++r) {
    const float* g = grad_out.Row(r);
    const float* x_hat = last_norm_.Row(r);
    const float inv_std = last_inv_std_[static_cast<size_t>(r)];
    // Param grads.
    for (int c = 0; c < d; ++c) {
      gain_.grad.At(0, c) += g[c] * x_hat[c];
      bias_.grad.At(0, c) += g[c];
    }
    // dx = (1/std) * (dxhat - mean(dxhat) - xhat * mean(dxhat*xhat))
    float mean_dxhat = 0.0f, mean_dxhat_xhat = 0.0f;
    for (int c = 0; c < d; ++c) {
      dxhat[c] = g[c] * gain_.value.At(0, c);
      mean_dxhat += dxhat[c];
      mean_dxhat_xhat += dxhat[c] * x_hat[c];
    }
    mean_dxhat /= static_cast<float>(d);
    mean_dxhat_xhat /= static_cast<float>(d);
    float* out = grad_in.Row(r);
    for (int c = 0; c < d; ++c) {
      out[c] = inv_std * (dxhat[c] - mean_dxhat - x_hat[c] * mean_dxhat_xhat);
    }
  }
}

Matrix Sequential::Forward(const Matrix& x) {
  Matrix cur = x;
  for (auto& layer : layers_) cur = layer->Forward(cur);
  return cur;
}

Matrix Sequential::ForwardInference(const Matrix& x) const {
  Matrix cur = x;
  for (const auto& layer : layers_) cur = layer->ForwardInference(cur);
  return cur;
}

Matrix Sequential::Backward(const Matrix& grad_out) {
  Matrix cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->Backward(cur);
  }
  return cur;
}

void Sequential::ForwardInto(const Matrix& x, PipelineScratch* scratch,
                             Matrix* y) {
  if (layers_.empty()) {
    *y = x;
    return;
  }
  const Matrix* cur = &x;
  Matrix* bufs[2] = {&scratch->a, &scratch->b};
  int which = 0;
  for (size_t i = 0; i < layers_.size(); ++i) {
    Matrix* out = (i + 1 == layers_.size()) ? y : bufs[which];
    layers_[i]->ForwardInto(*cur, out);
    cur = out;
    which ^= 1;
  }
}

void Sequential::BackwardInto(const Matrix& grad_out, PipelineScratch* scratch,
                              Matrix* grad_in) {
  NEO_CHECK(grad_in != nullptr ||
            (!layers_.empty() && layers_[0]->kind() == LayerKind::kLinear));
  if (layers_.empty()) {
    *grad_in = grad_out;
    return;
  }
  const Matrix* cur = &grad_out;
  Matrix* bufs[2] = {&scratch->a, &scratch->b};
  int which = 0;
  for (size_t i = layers_.size(); i-- > 0;) {
    Matrix* out = (i == 0) ? grad_in : bufs[which];
    layers_[i]->BackwardInto(*cur, out);
    cur = out;
    which ^= 1;
  }
}

void Sequential::ForwardInferenceInto(const Matrix& x, PipelineScratch* scratch,
                                      Matrix* y) const {
  if (layers_.empty()) {
    *y = x;
    return;
  }
  const Matrix* cur = &x;
  Matrix* bufs[2] = {&scratch->a, &scratch->b};
  int which = 0;
  size_t i = 0;
  while (i < layers_.size()) {
    const bool triple = i + 2 < layers_.size() &&
                        layers_[i]->kind() == LayerKind::kLinear &&
                        layers_[i + 1]->kind() == LayerKind::kLayerNorm &&
                        layers_[i + 2]->kind() == LayerKind::kLeakyReLU;
    const size_t last = triple ? i + 2 : i;
    Matrix* out = (last + 1 == layers_.size()) ? y : bufs[which];
    if (triple) {
      // Fused (Linear, LayerNorm, LeakyReLU): GEMM into the staging buffer
      // (never a ping-pong target, so it cannot alias `cur`), then one
      // per-row pass applies bias, normalization, and the leak in the exact
      // per-element op order of the three unfused layers — bit-identical,
      // with the two intermediate activations never written to memory.
      const auto* lin = static_cast<const Linear*>(layers_[i].get());
      const auto* ln = static_cast<const LayerNorm*>(layers_[i + 1].get());
      const auto* relu = static_cast<const LeakyReLU*>(layers_[i + 2].get());
      Matrix& t = scratch->fused;
      lin->GemmInto(*cur, &scratch->gemm, &t);
      const int n = t.rows(), d = t.cols();
      out->Reshape(n, d);
      const float* lb = lin->bias_row();
      const float* gain = ln->gain_row();
      const float* lnb = ln->bias_row();
      const float alpha = relu->alpha();
      for (int r = 0; r < n; ++r) {
        float* trow = t.Row(r);
        for (int c = 0; c < d; ++c) trow[c] += lb[c];
        float* orow = out->Row(r);
        LayerNormRow(trow, d, gain, lnb, LayerNorm::kEps, orow, nullptr,
                     nullptr);
        for (int c = 0; c < d; ++c) {
          if (orow[c] < 0.0f) orow[c] *= alpha;
        }
      }
    } else {
      layers_[i]->ForwardInferenceInto(*cur, out);
    }
    cur = out;
    which ^= 1;
    i = last + 1;
  }
}

void Sequential::CollectParams(std::vector<Param*>* out) {
  for (auto& layer : layers_) layer->CollectParams(out);
}

void Sequential::RefreshInferenceWeights() {
  for (auto& layer : layers_) layer->RefreshInferenceWeights();
}

void Sequential::InvalidateInferenceWeights() {
  for (auto& layer : layers_) layer->InvalidateInferenceWeights();
}

size_t Sequential::TrainingScratchBytes() const {
  size_t total = 0;
  for (const auto& layer : layers_) total += layer->TrainingScratchBytes();
  return total;
}

}  // namespace neo::nn
