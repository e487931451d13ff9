// Tree convolution (Mou et al. [40], paper §4.1) over binary plan trees.
//
// A tree sample is a flattened node array with child indices; filters are
// triples of weight vectors (e_p, e_l, e_r) applied to each (node, left
// child, right child) triangle. Missing children behave as zero vectors
// (the paper attaches all-zero leaves). The output is a tree with identical
// structure and `out_channels` features per node.
//
// DynamicPooling flattens a tree into a single vector via per-channel max
// (paper §4 / Appendix A).
//
// ---- Training-path design (sparse split-weight conv) -----------------------
//
// Block layout. The stacked (3*cin x cout) weight is three contiguous
// (cin x cout) blocks — W_p (self), W_l (left), W_r (right), rows
// [b*cin, (b+1)*cin). Training (ForwardTrain/BackwardTrain) and inference
// (ForwardInferenceInto/ForwardInferenceRows) both compute per block:
//
//   y = x W_p + bias + gather_l(x) W_l + gather_r(x) W_r
//
// where gather_s(x) collects the side-s child feature rows. Nothing ever
// materializes the (n x 3*cin) [self ; left ; right] concatenation, and the
// gathers carry ONLY rows whose child exists. Training never even copies
// them: the GEMM/gradient kernels read the rows through the per-forest index
// lists (MatMulGather* in matrix.h), so a training step does one pass over
// the child features per block with zero gather materialization.
//
// Why absent-child blocks are skippable. An absent child contributes a zero
// feature row (the paper's all-zero leaves); a zero row's products are exact
// no-ops in every kernel's summation (single-fma-chain / explicit-zero-skip
// — see matrix.h's MatMulTransposeAInto contract). Leaves dominate plan
// forests, so skipping them cuts the training conv's flops by ~1/3 and
// halves the gather traffic.
//
// Summation-order contract. Every output element of the forward and of each
// gradient is computed in an order that is a fixed function of (k, m) within
// its block — never of the gather-row count or of row positions. Hence
//  (a) within a kernel dispatch arm, a repeated forward or backward is
//      bit-identical (arms differ from each other by ulps only);
//  (b) a node's forward value does not depend on which other trees share
//      its packed forest (rows are position-independent), so a sample's
//      prediction is the same in every minibatch that contains it.
// Backward accumulates each weight-gradient block in place via the
// scatter-add MatMulTransposeAInto (no (3*cin x cout) temporary, no
// grad_concat): input gradients come from one MatMulTransposeBBlock per
// block, scattered to child rows (each node has at most one parent, so the
// scatter is race- and order-free).
#pragma once

#include <cstdint>
#include <vector>

#include "src/nn/layers.h"

namespace neo::nn {

/// Flattened forest structure shared by all tree-conv layers of one forward
/// pass. Node features live in a (num_nodes x channels) matrix; `left` /
/// `right` give child row indices or -1.
struct TreeStructure {
  std::vector<int> left;
  std::vector<int> right;

  size_t NumNodes() const { return left.size(); }
};

/// Present-child gather list for one side of a forest: child[i] is the
/// side-child row of node parent[i]; parent indices ascend. Built once per
/// forest (PackPlanBatch) and shared by every conv layer's forward AND
/// backward — the structure never changes across layers.
struct SideGather {
  std::vector<int> parent;
  std::vector<int> child;
};

/// Both sides' gather lists.
struct TreeGather {
  SideGather left;
  SideGather right;

  static TreeGather Build(const TreeStructure& tree);
  /// Build into an existing TreeGather, reusing its vectors' capacity (the
  /// zero-steady-state-allocation form).
  static void BuildInto(const TreeStructure& tree, TreeGather* out);
};

/// One tree convolution layer: out[i] = x_i W_p + x_l W_l + x_r W_r + b.
///
/// `shared_suffix_dim` (s) declares that the last s input channels of every
/// node of a tree carry the same vector (Neo's spatially-replicated query
/// embedding): both passes take the (n x (in-s)) varying features plus the
/// suffix and project the suffix through each weight block once per tree
/// (training: once per sample of the forest) instead of once per node.
class TreeConv {
 public:
  TreeConv(int in_channels, int out_channels, util::Rng& rng,
           int shared_suffix_dim = 0);

  /// Shared suffixes projected through the three suffix weight blocks: row
  /// k of each matrix is what every node of suffix k's tree adds for its
  /// self block and, when the child is present, its left and right blocks.
  /// Inference projects one (1 x s) suffix; training one per sample.
  struct SuffixProjection {
    Matrix self, left, right;
  };

  /// Reusable inference scratch: gather buffers, per-side GEMM outputs, and
  /// the full pass's per-call suffix projection. Every buffer is capacity-
  /// reused (Reshape, fully overwritten), so a warmed Scratch makes repeated
  /// inference forwards heap-allocation-free. The layer itself holds no
  /// inference scratch, so concurrent callers (parallel plan searches) stay
  /// race-free by each owning one Scratch per layer.
  struct Scratch {
    Matrix gather;              ///< Child-feature gather buffer (per side).
    Matrix self;                ///< Row-set self GEMM output (Rows variant).
    Matrix lcontrib, rcontrib;  ///< Per-side GEMM outputs (both live at once
                                ///< so the epilogue can fuse them).
    SuffixProjection suffix;    ///< ForwardInferenceInto's projection.
    std::vector<int> lparent, rparent;  ///< Gather-row -> node maps.
  };

  /// Reusable training-path scratch, shared across all conv layers of one
  /// step (buffers Reshape to each layer's dims without reallocating).
  /// ValueNetwork owns one, passes it to every ForwardTrain/BackwardTrain,
  /// and retains it across steps (high-water reuse: the steady-state
  /// training step performs zero heap allocations; every reused element is
  /// fully overwritten).
  struct TrainScratch {
    Matrix lcontrib;   ///< Left-side GEMM output.
    Matrix rcontrib;   ///< Right-side GEMM output.
    SuffixProjection proj;  ///< (B x cout) per-sample suffix projections.
    Matrix seg_grad;   ///< (B x cout) per-sample grad sums (suffix backward).
    Matrix sgrad_tmp;  ///< (B x s) per-block suffix-grad staging.
    GemmScratch gemm;  ///< Pack + transpose staging for the block GEMMs.

    size_t Bytes() const {
      return (lcontrib.Size() + rcontrib.Size() + proj.self.Size() +
              proj.left.Size() + proj.right.Size() + seg_grad.Size() +
              sgrad_tmp.Size() + gemm.staging.Size() + gemm.pack.size()) *
             sizeof(float);
    }
  };

  /// Per-layer training-path counters, accumulated across ForwardTrain/
  /// BackwardTrain calls (training is single-threaded per network). `madds`
  /// count GEMM multiply-adds; `gather_bytes` counts gather/scatter row
  /// traffic; `rows_skipped` counts absent-child rows the sparse gathers
  /// avoided.
  struct TrainStats {
    uint64_t forward_madds = 0;
    uint64_t backward_madds = 0;
    uint64_t gather_bytes = 0;
    uint64_t rows_skipped = 0;
  };

  /// Training forward: x -> (nodes x out_channels) via the per-block
  /// gather/GEMM/scatter above, with the fused epilogue and the shared-
  /// suffix split (the training-side twin of ForwardInferenceInto's suffix
  /// handling). `x` holds only the (in - s) varying channels; `suffixes` is
  /// the (B x s) per-sample suffix stack (nullptr when the layer has no
  /// suffix), projected through each weight block ONCE PER SAMPLE instead of
  /// once per node; `node_seg` maps node -> sample row (nullptr = all sample
  /// 0). `gather` must describe `tree` (PackPlanBatch builds it once per
  /// forest). Bias, both side contributions, the suffix projections, and
  /// (when `leaky_alpha` >= 0) the leaky-ReLU are applied by the epilogue
  /// all three forward passes share, so each post-activation row is written
  /// exactly once: per row it picks the present addends once, then one
  /// vectorized loop adds them in the fixed order bias, self suffix, left
  /// contrib, left suffix, right contrib, right suffix, and applies the
  /// activation as a select (no per-element branch). Always multiplies the
  /// LIVE weights (no packed copy), so direct parameter pokes stay visible.
  /// The per-element op order is a fixed function of the node's (left,
  /// right) presence alone.
  void ForwardTrain(const TreeStructure& tree, const Matrix& x,
                    const Matrix* suffixes, const int* node_seg,
                    const TreeGather& gather, TrainScratch* scratch,
                    float leaky_alpha, Matrix* y);

  /// Backward for ForwardTrain. `grad_out` must already be masked through
  /// the activation derivative. Accumulates weight/bias gradients (top
  /// sub-blocks from the varying channels, suffix sub-blocks via per-sample
  /// segment sums). When `grad_suffix` is non-null it is OVERWRITTEN with
  /// the (B x s) suffix gradient. When `grad_in` is non-null (suffix-free
  /// layers only) it receives the (n x in) input gradient; layer 0 passes
  /// nullptr and skips the input-gradient GEMMs entirely — plan features
  /// are leaf inputs.
  void BackwardTrain(const TreeStructure& tree, const Matrix& x,
                     const Matrix* suffixes, const int* node_seg,
                     const Matrix& grad_out, const TreeGather& gather,
                     TrainScratch* scratch, Matrix* grad_in,
                     Matrix* grad_suffix);

  /// Inference forward into a caller-owned output, skipping absent-child
  /// weight blocks: y = x*W_p + gather(x_left)*W_l + gather(x_right)*W_r + b.
  /// With shared_suffix_dim > 0, `x` holds only the varying (in-s) channels
  /// and `shared_suffix` the common (1 x s) tail. The self GEMM lands in
  /// `y`, then the shared epilogue (see ForwardTrain) finishes each row in
  /// one vectorized loop: bias, suffix projections, both side contributions,
  /// and (when `leaky_alpha` >= 0) the leaky-ReLU, in the fixed per-element
  /// order bias, self suffix, left contrib, left suffix, right contrib,
  /// right suffix, activation — so each post-activation row is written
  /// exactly once. `leaky_alpha` < 0 skips the activation (pre-activation
  /// output). Each output row depends only on that node's (self, left,
  /// right) features, so results are identical whether a tree is scored
  /// alone or in a batch. Caller must RefreshInferenceWeights() after any
  /// weight update; results may differ from ForwardTrain by accumulation-
  /// order ulps (pre-packed weights). With a warmed `scratch` the call
  /// performs zero heap allocations. Const and safe to call from many
  /// threads concurrently when each passes its own `scratch` (nullptr
  /// allocates locally).
  void ForwardInferenceInto(const TreeStructure& tree, const Matrix& x,
                            const Matrix* shared_suffix, Scratch* scratch,
                            float leaky_alpha, Matrix* y) const;

  /// Projects a (1 x s) shared suffix through the three suffix blocks into
  /// `out` (capacity-reused). The same GEMMs ForwardInferenceInto runs per
  /// call, so a projection computed once and passed to ForwardInferenceRows
  /// yields bit-identical rows. Same RefreshInferenceWeights contract.
  void ProjectSuffixInto(const Matrix& shared_suffix,
                         SuffixProjection* out) const;

  /// Row-set variant of ForwardInferenceInto: computes ONLY the output rows
  /// listed in `rows` (ascending node indices), writing them into the
  /// pre-sized (nodes x out_channels) `y`; no other row of `y` is touched.
  /// `x` spans every node, and a listed row reads its children's rows of
  /// `x`, listed or not. With shared_suffix_dim > 0, `suffix` is the suffix's
  /// projection (ProjectSuffixInto), computed once by the caller rather than
  /// once per call. Each computed row runs the exact gather/GEMM/scatter
  /// arithmetic of the full pass (MatMul rows are position-independent), so
  /// it is bit-identical to the same row of ForwardInferenceInto. Same
  /// thread-safety and RefreshInferenceWeights contract.
  void ForwardInferenceRows(const TreeStructure& tree, const Matrix& x,
                            const std::vector<int>& rows,
                            const SuffixProjection* suffix, Scratch* scratch,
                            Matrix* y, float leaky_alpha = -1.0f) const;

  /// Re-splits the stacked weight into the per-block copies the inference
  /// passes multiply with, pre-packed into the kernel dispatch panel layout
  /// so the hot gather/GEMM/scatter never repacks. Cheap (one copy of the
  /// weights).
  void RefreshInferenceWeights();

  void CollectParams(std::vector<Param*>* out) {
    out->push_back(&weight_);
    out->push_back(&bias_);
  }

  const TrainStats& train_stats() const { return train_stats_; }
  void ResetTrainStats() { train_stats_ = TrainStats(); }

  int in_channels() const { return in_channels_; }
  int out_channels() const { return weight_.value.cols(); }

 private:
  int in_channels_;
  int shared_suffix_dim_;
  Param weight_;  ///< (3*in x out): [e_p; e_l; e_r] stacked.
  Param bias_;    ///< (1 x out)
  TrainStats train_stats_;
  /// ((in - s) x out) varying-channel blocks of weight_, pre-packed for the
  /// active GEMM dispatch arm (MatMulPacked).
  PackedB w_self_, w_left_, w_right_;
  /// (s x out) shared-suffix blocks (empty when shared_suffix_dim_ == 0).
  PackedB w_self_suffix_, w_left_suffix_, w_right_suffix_;
  bool split_fresh_ = false;
};

/// Per-channel max pool over all nodes: (nodes x C) -> (1 x C).
///
/// The segmented overload pools a packed forest of N trees in one pass: rows
/// [offsets[s], offsets[s+1]) of `x` pool into row s of the output, giving an
/// (N x C) matrix that feeds the FC head as one batch.
class DynamicPooling {
 public:
  Matrix Forward(const Matrix& x);
  Matrix Forward(const Matrix& x, const std::vector<int>& offsets);

  /// Segmented Forward into a caller-owned output (capacity-reused; the
  /// zero-steady-state-allocation training form). Bit-identical to Forward.
  void ForwardInto(const Matrix& x, const std::vector<int>& offsets, Matrix* y);

  /// Same pooling as the segmented Forward but records no argmax state, so
  /// it is const, cannot feed Backward, and is safe to call concurrently.
  Matrix ForwardInference(const Matrix& x, const std::vector<int>& offsets) const;

  /// ForwardInference into a caller-owned output (capacity-reused).
  void ForwardInferenceInto(const Matrix& x, const std::vector<int>& offsets,
                            Matrix* y) const;

  Matrix Backward(const Matrix& grad_out);

  /// Backward into a caller-owned output (Reshape'd + zeroed, then the same
  /// scatter-add as Backward).
  void BackwardInto(const Matrix& grad_out, Matrix* grad_in);

  size_t TrainingScratchBytes() const { return argmax_.size() * sizeof(int); }

 private:
  std::vector<int> argmax_;  ///< (segments x C) winning row per (segment, channel).
  int last_rows_ = 0;
  int last_segments_ = 0;
};

}  // namespace neo::nn
