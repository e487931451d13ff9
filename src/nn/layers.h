// Neural network layers with explicit forward/backward passes. The batch
// dimension is the matrix row dimension; every layer caches what it needs
// from the last Forward call for the matching Backward call.
#pragma once

#include <memory>
#include <vector>

#include "src/nn/matrix.h"

namespace neo::nn {

/// A trainable parameter: value + gradient accumulator.
struct Param {
  Matrix value;
  Matrix grad;

  void ZeroGrad() { grad.Zero(); }
};

/// Concrete layer type, for the pipeline-level fusion in Sequential (a
/// (Linear, LayerNorm, LeakyReLU) triple collapses into GEMM + one per-row
/// epilogue pass). Types not participating in fusion report kOther.
enum class LayerKind { kLinear, kLayerNorm, kLeakyReLU, kOther };

class Layer {
 public:
  virtual ~Layer() = default;

  /// x: (batch x in_dim) -> (batch x out_dim).
  virtual Matrix Forward(const Matrix& x) = 0;

  /// Same math as Forward but caches nothing and writes no layer state, so
  /// it is const and safe to call concurrently from many threads (provided
  /// no concurrent training mutates the parameters). Cannot be followed by
  /// Backward.
  virtual Matrix ForwardInference(const Matrix& x) const = 0;

  /// grad_out: (batch x out_dim) -> grad_in (batch x in_dim); accumulates
  /// parameter gradients.
  virtual Matrix Backward(const Matrix& grad_out) = 0;

  /// Into-forms of the three passes above, bit-identical to them, writing a
  /// caller-owned output (Reshape'd: capacity-reused, so a warmed output
  /// makes the steady state allocation-free). The output must not alias the
  /// input. The base fallbacks allocate via the Matrix-returning forms; the
  /// concrete layers all override with true in-place-capacity versions.
  virtual void ForwardInto(const Matrix& x, Matrix* y) { *y = Forward(x); }
  virtual void ForwardInferenceInto(const Matrix& x, Matrix* y) const {
    *y = ForwardInference(x);
  }
  virtual void BackwardInto(const Matrix& grad_out, Matrix* grad_in) {
    *grad_in = Backward(grad_out);
  }

  virtual LayerKind kind() const { return LayerKind::kOther; }

  /// Appends this layer's trainable parameters.
  virtual void CollectParams(std::vector<Param*>* /*out*/) {}

  /// Rebuilds any inference-only weight copies (e.g. Linear's dispatch-packed
  /// weight) from the live parameters. ValueNetwork::SyncInferenceWeights
  /// calls this once per weight version; layers without such copies no-op.
  virtual void RefreshInferenceWeights() {}

  /// Marks inference-only weight copies stale after the live parameters were
  /// mutated outside Backward (weight loading). ForwardInference then falls
  /// back to the live parameters until the next refresh — same results,
  /// without the pre-packed fast path.
  virtual void InvalidateInferenceWeights() {}

  /// Bytes of training scratch currently held (batch-sized activations
  /// cached by Forward for Backward), for the peak-scratch accounting
  /// ValueNetwork reports.
  virtual size_t TrainingScratchBytes() const { return 0; }
};

/// Fully connected: y = x W + b.
///
/// The training pass multiplies only the input columns it needs. Forward
/// keeps K, the ascending columns of every aligned group of
/// DroppableKGroupWidth() columns that holds a non-zero entry in some row
/// of x, and computes y = x[:, K] W[K, :] + b; Backward adds
/// x[:, K]^T g into rows K of the weight gradient. Every term left out is a
/// zero input times a weight, so both are bit-identical to the full GEMMs
/// (see "Dropping zero k terms" in matrix.h), and the gradient rows outside
/// K receive nothing, as the full GEMM would add only +-0 to them. A
/// query vector (about 10% non-zero) keeps a few hundred of its 711
/// columns; a dense activation keeps them all, and the pass is then the full
/// GEMM with no gather. An input with no non-zero column gives y = b and
/// adds nothing to the weight gradient. The input-gradient GEMM
/// (dx = g W^T) uses all of W. The one visible difference: a non-finite
/// weight in a row outside K cannot reach y through 0 * inf.
class Linear : public Layer {
 public:
  Linear(int in_dim, int out_dim, util::Rng& rng);

  Matrix Forward(const Matrix& x) override;
  Matrix ForwardInference(const Matrix& x) const override;
  Matrix Backward(const Matrix& grad_out) override;
  void ForwardInto(const Matrix& x, Matrix* y) override;
  void ForwardInferenceInto(const Matrix& x, Matrix* y) const override;
  /// A null `grad_in` skips the input-gradient GEMM (dx = g W^T); the
  /// parameter gradients are unchanged.
  void BackwardInto(const Matrix& grad_out, Matrix* grad_in) override;
  void CollectParams(std::vector<Param*>* out) override {
    out->push_back(&weight_);
    out->push_back(&bias_);
  }
  void RefreshInferenceWeights() override;
  void InvalidateInferenceWeights() override { packed_fresh_ = false; }
  size_t TrainingScratchBytes() const override {
    return last_input_.Size() * sizeof(float);
  }
  LayerKind kind() const override { return LayerKind::kLinear; }

  int in_dim() const { return weight_.value.rows(); }
  int out_dim() const { return weight_.value.cols(); }

  /// The bare GEMM (no bias), packed copy when fresh, else the live weights
  /// through the caller's `scratch` pack buffer. Building block for the fused
  /// (Linear, LayerNorm, LeakyReLU) inference pass in Sequential.
  void GemmInto(const Matrix& x, GemmScratch* scratch, Matrix* y) const;
  const float* bias_row() const { return bias_.value.Row(0); }

 private:
  /// y += b, row by row.
  void AddBias(Matrix* y) const;

  Param weight_;  ///< (in x out)
  Param bias_;    ///< (1 x out)
  /// weight_.value pre-packed for the GEMM dispatch arms; stale (and unused)
  /// whenever packed_fresh_ is false. Forward always uses the live weights so
  /// direct parameter pokes (numeric gradient checks, Adam) stay visible.
  PackedB packed_weight_;
  bool packed_fresh_ = false;
  /// K of the last training Forward, and x[:, K] (x itself when K holds
  /// every column) for Backward's weight gradient.
  std::vector<int> kept_;
  Matrix last_input_;
  /// Per-column OR of the input's bits (Forward's K scan), and rows K of
  /// the weight gradient while Backward accumulates into them.
  std::vector<uint32_t> column_bits_;
  Matrix grad_rows_;
  /// Cross-call GEMM pack/staging buffers (growth-only) for the training
  /// forward/backward, so steady-state steps make no heap allocations. The
  /// const inference paths never touch it: they pack through caller-owned
  /// scratch (PipelineScratch::gemm), which keeps concurrent inference on
  /// one network race-free.
  GemmScratch gemm_scratch_;
};

/// Leaky rectified linear unit (paper §6.1 uses the leaky variant).
class LeakyReLU : public Layer {
 public:
  explicit LeakyReLU(float alpha = 0.01f) : alpha_(alpha) {}

  Matrix Forward(const Matrix& x) override;
  Matrix ForwardInference(const Matrix& x) const override;
  Matrix Backward(const Matrix& grad_out) override;
  void ForwardInto(const Matrix& x, Matrix* y) override;
  void ForwardInferenceInto(const Matrix& x, Matrix* y) const override;
  void BackwardInto(const Matrix& grad_out, Matrix* grad_in) override;
  size_t TrainingScratchBytes() const override {
    return last_input_.Size() * sizeof(float);
  }
  LayerKind kind() const override { return LayerKind::kLeakyReLU; }

  float alpha() const { return alpha_; }

 private:
  float alpha_;
  Matrix last_input_;
};

/// Layer normalization over the feature dimension with learned gain/bias
/// (paper §6.1 uses layer norm to stabilize training).
class LayerNorm : public Layer {
 public:
  explicit LayerNorm(int dim);

  Matrix Forward(const Matrix& x) override;
  Matrix ForwardInference(const Matrix& x) const override;
  Matrix Backward(const Matrix& grad_out) override;
  void ForwardInto(const Matrix& x, Matrix* y) override;
  void ForwardInferenceInto(const Matrix& x, Matrix* y) const override;
  void BackwardInto(const Matrix& grad_out, Matrix* grad_in) override;
  LayerKind kind() const override { return LayerKind::kLayerNorm; }
  void CollectParams(std::vector<Param*>* out) override {
    out->push_back(&gain_);
    out->push_back(&bias_);
  }
  size_t TrainingScratchBytes() const override {
    return last_norm_.Size() * sizeof(float) +
           (last_inv_std_.size() + dxhat_scratch_.size()) * sizeof(float);
  }

  static constexpr float kEps = 1e-5f;

  const float* gain_row() const { return gain_.value.Row(0); }
  const float* bias_row() const { return bias_.value.Row(0); }

 private:
  Param gain_;
  Param bias_;
  Matrix last_norm_;  ///< Normalized activations.
  std::vector<float> last_inv_std_;
  std::vector<float> dxhat_scratch_;  ///< Backward row buffer (hoisted alloc).
};

/// Ping-pong buffers threading activations through a Sequential's layers,
/// the fused-triple GEMM staging buffer, and the pack buffer for GEMMs
/// against unpacked weights. Caller-owned and capacity-reused: after one
/// warm pass, pipeline forwards allocate nothing. Not thread-safe — one per
/// caller (concurrent inference passes each bring their own).
struct PipelineScratch {
  Matrix a;
  Matrix b;
  Matrix fused;
  GemmScratch gemm;
};

/// Layer pipeline.
class Sequential : public Layer {
 public:
  void Add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  Matrix Forward(const Matrix& x) override;
  Matrix ForwardInference(const Matrix& x) const override;
  Matrix Backward(const Matrix& grad_out) override;
  using Layer::BackwardInto;
  using Layer::ForwardInferenceInto;
  using Layer::ForwardInto;
  void CollectParams(std::vector<Param*>* out) override;
  void RefreshInferenceWeights() override;
  void InvalidateInferenceWeights() override;
  size_t TrainingScratchBytes() const override;

  /// Pipeline Into-forms: bit-identical to the Matrix-returning passes,
  /// threading activations through the caller's scratch so a warmed
  /// (scratch, output) pair makes the whole pass allocation-free. The output
  /// must alias neither the input nor the scratch.
  ///
  /// ForwardInferenceInto additionally fuses every (Linear, LayerNorm,
  /// LeakyReLU) triple into GEMM + ONE per-row epilogue pass — the
  /// per-element op sequence (bias add, then normalize/scale/shift, then
  /// leak) is exactly the unfused layers', so results stay bit-identical;
  /// the intermediate activations just never round-trip through memory.
  ///
  /// BackwardInto accepts a null `grad_in` when the first layer is a Linear
  /// (and only then; anything else fails a NEO_CHECK): that Linear skips its
  /// input-gradient GEMM, and every parameter gradient is bit-identical to a
  /// call with an output. For a stack whose input is a leaf (the value
  /// network's query vectors).
  void ForwardInto(const Matrix& x, PipelineScratch* scratch, Matrix* y);
  void ForwardInferenceInto(const Matrix& x, PipelineScratch* scratch,
                            Matrix* y) const;
  void BackwardInto(const Matrix& grad_out, PipelineScratch* scratch,
                    Matrix* grad_in);

  size_t size() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace neo::nn
