#include "src/nn/tree_conv.h"

#include <algorithm>

namespace neo::nn {

namespace {

/// Gathers the present `child` rows (of every node, or of the `rows` subset
/// when given) into `gather`, recording each gathered row's parent node in
/// `parent` (ascending). Returns the gather count. Capacity-reused: with a
/// warmed scratch this performs no heap allocation.
int GatherSide(const std::vector<int>& child, const Matrix& x, int top,
               const std::vector<int>* rows, Matrix* gather,
               std::vector<int>* parent) {
  parent->clear();
  int present = 0;
  if (rows == nullptr) {
    for (size_t i = 0; i < child.size(); ++i) {
      if (child[i] >= 0) ++present;
    }
  } else {
    for (const int r : *rows) {
      if (child[static_cast<size_t>(r)] >= 0) ++present;
    }
  }
  gather->Reshape(present, top);
  if (present == 0) return 0;
  int t = 0;
  auto take = [&](int node) {
    const int c = child[static_cast<size_t>(node)];
    if (c < 0) return;
    std::copy(x.Row(c), x.Row(c) + top, gather->Row(t));
    parent->push_back(node);
    ++t;
  };
  if (rows == nullptr) {
    for (size_t i = 0; i < child.size(); ++i) take(static_cast<int>(i));
  } else {
    for (const int r : *rows) take(r);
  }
  return present;
}

/// One epilogue row with K addends: dst = act(src + bias + add[0] + ... +
/// add[K-1]), adding left to right. The activation is a select: negative
/// sums are multiplied by `neg_scale` (leaky_alpha, or 1 for no activation —
/// v * 1 == v exactly, so the select is then an identity). No loop carries a
/// branch, so the row vectorizes; no multiply feeds an add, so FP
/// contraction cannot round its vector body and scalar tail differently.
template <int K>
void EpilogueRow(const float* src, const float* bias, const float* const* add,
                 int cout, float neg_scale, float* dst) {
  for (int c = 0; c < cout; ++c) {
    float v = src[c] + bias[c];
    for (int a = 0; a < K; ++a) v += add[a][c];
    dst[c] = v < 0.0f ? v * neg_scale : v;
  }
}

/// The fused conv epilogue shared by every forward pass. Output row r is
/// node `nodes[r]` (r when `nodes` is null); its GEMM value is `self` row r.
/// Writes, into y's node row,
///   act(self + bias + self suffix + [left + left suffix]
///                                 + [right + right suffix])
/// adding in exactly that order: the suffix projections (row node_seg[node],
/// or 0 when `node_seg` is null) only when `proj` is non-null, and a side's
/// terms only when the node has that child. Side contribution rows are
/// matched to nodes by an ascending cursor into each side's `parent` list.
/// The leaky ReLU applies when `leaky_alpha` >= 0. `self` may be `*y` itself
/// (the full passes compute in place). The addends are picked once per row;
/// one EpilogueRow specialization per addend count (0 to 5) then writes it.
void FusedEpilogue(const Matrix& self, const std::vector<int>* nodes,
                   const std::vector<int>& lparent, const Matrix& lcontrib,
                   const std::vector<int>& rparent, const Matrix& rcontrib,
                   const float* bias, const TreeConv::SuffixProjection* proj,
                   const int* node_seg, float leaky_alpha, Matrix* y) {
  const int cout = y->cols();
  const int count =
      nodes != nullptr ? static_cast<int>(nodes->size()) : self.rows();
  const float neg_scale = leaky_alpha >= 0.0f ? leaky_alpha : 1.0f;
  size_t lc = 0, rc = 0;
  for (int r = 0; r < count; ++r) {
    const int node = nodes != nullptr ? (*nodes)[static_cast<size_t>(r)] : r;
    const int seg = node_seg != nullptr ? node_seg[node] : 0;
    const float* add[5];
    int k = 0;
    if (proj != nullptr) add[k++] = proj->self.Row(seg);
    if (lc < lparent.size() && lparent[lc] == node) {
      add[k++] = lcontrib.Row(static_cast<int>(lc++));
      if (proj != nullptr) add[k++] = proj->left.Row(seg);
    }
    if (rc < rparent.size() && rparent[rc] == node) {
      add[k++] = rcontrib.Row(static_cast<int>(rc++));
      if (proj != nullptr) add[k++] = proj->right.Row(seg);
    }
    const float* src = self.Row(r);
    float* dst = y->Row(node);
    switch (k) {
      case 0: EpilogueRow<0>(src, bias, add, cout, neg_scale, dst); break;
      case 1: EpilogueRow<1>(src, bias, add, cout, neg_scale, dst); break;
      case 2: EpilogueRow<2>(src, bias, add, cout, neg_scale, dst); break;
      case 3: EpilogueRow<3>(src, bias, add, cout, neg_scale, dst); break;
      case 4: EpilogueRow<4>(src, bias, add, cout, neg_scale, dst); break;
      default: EpilogueRow<5>(src, bias, add, cout, neg_scale, dst); break;
    }
  }
}

}  // namespace

TreeGather TreeGather::Build(const TreeStructure& tree) {
  TreeGather g;
  BuildInto(tree, &g);
  return g;
}

void TreeGather::BuildInto(const TreeStructure& tree, TreeGather* out) {
  out->left.parent.clear();
  out->left.child.clear();
  out->right.parent.clear();
  out->right.child.clear();
  const size_t n = tree.NumNodes();
  for (size_t i = 0; i < n; ++i) {
    if (tree.left[i] >= 0) {
      out->left.parent.push_back(static_cast<int>(i));
      out->left.child.push_back(tree.left[i]);
    }
    if (tree.right[i] >= 0) {
      out->right.parent.push_back(static_cast<int>(i));
      out->right.child.push_back(tree.right[i]);
    }
  }
}

TreeConv::TreeConv(int in_channels, int out_channels, util::Rng& rng,
                   int shared_suffix_dim)
    : in_channels_(in_channels), shared_suffix_dim_(shared_suffix_dim) {
  NEO_CHECK(shared_suffix_dim >= 0 && shared_suffix_dim < in_channels);
  weight_.value = Matrix(3 * in_channels, out_channels);
  weight_.value.InitKaiming(rng, 3 * in_channels);
  weight_.grad = Matrix(3 * in_channels, out_channels);
  bias_.value = Matrix(1, out_channels);
  bias_.grad = Matrix(1, out_channels);
}

void TreeConv::ForwardTrain(const TreeStructure& tree, const Matrix& x,
                            const Matrix* suffixes, const int* node_seg,
                            const TreeGather& gather, TrainScratch* scratch,
                            float leaky_alpha, Matrix* y) {
  const int n = x.rows();
  const int s = shared_suffix_dim_;
  const int top = in_channels_ - s;
  const int cin = in_channels_;
  const int cout = weight_.value.cols();
  NEO_CHECK(x.cols() == top);
  NEO_CHECK((s > 0) == (suffixes != nullptr));
  NEO_CHECK(static_cast<size_t>(n) == tree.NumNodes());
  NEO_CHECK(scratch != nullptr);

  // Suffix projections: one (B x cout) GEMM per block per FOREST — the
  // row-constant query-embedding suffix never spatially replicates into the
  // node features. LIVE weights (direct parameter pokes stay visible).
  if (s > 0) {
    NEO_CHECK(suffixes->cols() == s);
    MatMulBlockInto(*suffixes, weight_.value.Row(0 * cin + top), s, cout,
                    &scratch->proj.self, &scratch->gemm);
    MatMulBlockInto(*suffixes, weight_.value.Row(1 * cin + top), s, cout,
                    &scratch->proj.left, &scratch->gemm);
    MatMulBlockInto(*suffixes, weight_.value.Row(2 * cin + top), s, cout,
                    &scratch->proj.right, &scratch->gemm);
    train_stats_.forward_madds += 3ULL * suffixes->rows() * s * cout;
  }

  // Self top-block GEMM straight into y; the fused epilogue finishes rows.
  MatMulBlockInto(x, weight_.value.Row(0), top, cout, y, &scratch->gemm);
  train_stats_.forward_madds +=
      static_cast<uint64_t>(n) * static_cast<uint64_t>(top) * cout;

  // Side top-block GEMMs over the present children only, reading the child
  // rows through the gather index list (no materialized gather). Both sides'
  // contributions live at once so the epilogue can apply them in one pass.
  auto side_contrib = [&](const SideGather& side, int blk, Matrix* contrib) {
    const int present = static_cast<int>(side.parent.size());
    if (present == 0) {
      contrib->Reshape(0, cout);
      return;
    }
    MatMulGatherBlockInto(x, side.child.data(), present,
                          weight_.value.Row(blk * cin), top, cout, contrib,
                          &scratch->gemm);
    train_stats_.forward_madds +=
        static_cast<uint64_t>(present) * static_cast<uint64_t>(top) * cout;
    train_stats_.gather_bytes +=
        static_cast<uint64_t>(present) * (top + cout) * sizeof(float);
    train_stats_.rows_skipped += static_cast<uint64_t>(n - present);
  };
  side_contrib(gather.left, 1, &scratch->lcontrib);
  side_contrib(gather.right, 2, &scratch->rcontrib);

  // Fused epilogue: each post-activation row is written exactly once, and
  // a node's op order is a fixed function of its child presence alone
  // (never of the gather-row count).
  FusedEpilogue(*y, nullptr, gather.left.parent, scratch->lcontrib,
                gather.right.parent, scratch->rcontrib, bias_.value.Row(0),
                s > 0 ? &scratch->proj : nullptr, node_seg, leaky_alpha, y);
}

void TreeConv::RefreshInferenceWeights() {
  const int cin = in_channels_;
  const int s = shared_suffix_dim_;
  const int top = cin - s;
  const int cout = weight_.value.cols();
  // Block b of the stacked weight occupies rows [b*cin, (b+1)*cin): the first
  // `top` rows multiply the varying channels, the last `s` the shared suffix.
  // Each block is a contiguous row range, so it packs straight from weight_
  // (copy + panel build — the pre-pack is what lets every ForwardInference
  // GEMM skip the per-call B pack under the SIMD dispatch arms).
  PackedB* tops[3] = {&w_self_, &w_left_, &w_right_};
  PackedB* suffixes[3] = {&w_self_suffix_, &w_left_suffix_, &w_right_suffix_};
  for (int blk = 0; blk < 3; ++blk) {
    const float* src = weight_.value.Row(blk * cin);
    tops[blk]->Assign(src, top, cout);
    if (s > 0) {
      suffixes[blk]->Assign(src + static_cast<size_t>(top) * cout, s, cout);
    }
  }
  split_fresh_ = true;
}

void TreeConv::ForwardInferenceInto(const TreeStructure& tree, const Matrix& x,
                                    const Matrix* shared_suffix,
                                    Scratch* scratch, float leaky_alpha,
                                    Matrix* y) const {
  const int n = x.rows();
  const int s = shared_suffix_dim_;
  const int top = in_channels_ - s;
  NEO_CHECK(x.cols() == top);
  NEO_CHECK((s > 0) == (shared_suffix != nullptr));
  NEO_CHECK(static_cast<size_t>(n) == tree.NumNodes());
  NEO_CHECK(split_fresh_);
  Scratch local;
  if (scratch == nullptr) scratch = &local;

  // Per-call suffix projections: the shared channels contribute the same
  // (1 x out) vector to every node (per present block), computed once.
  if (s > 0) ProjectSuffixInto(*shared_suffix, &scratch->suffix);

  // Self GEMM straight into y; the fused epilogue below finishes each row:
  // bias, self suffix, left contrib, left suffix, right contrib, right
  // suffix, activation — the exact per-element op order of the unfused
  // passes, so results are bit-identical to running them separately, with
  // each post-activation row written exactly once.
  MatMulPackedInto(x, w_self_, y);

  const int nl = GatherSide(tree.left, x, top, nullptr, &scratch->gather,
                            &scratch->lparent);
  if (nl > 0) MatMulPackedInto(scratch->gather, w_left_, &scratch->lcontrib);
  const int nr = GatherSide(tree.right, x, top, nullptr, &scratch->gather,
                            &scratch->rparent);
  if (nr > 0) MatMulPackedInto(scratch->gather, w_right_, &scratch->rcontrib);

  FusedEpilogue(*y, nullptr, scratch->lparent, scratch->lcontrib,
                scratch->rparent, scratch->rcontrib, bias_.value.Row(0),
                s > 0 ? &scratch->suffix : nullptr, /*node_seg=*/nullptr,
                leaky_alpha, y);
}

void TreeConv::ProjectSuffixInto(const Matrix& shared_suffix,
                                 SuffixProjection* out) const {
  NEO_CHECK(shared_suffix_dim_ > 0 && shared_suffix.cols() == shared_suffix_dim_);
  NEO_CHECK(split_fresh_);
  MatMulPackedInto(shared_suffix, w_self_suffix_, &out->self);
  MatMulPackedInto(shared_suffix, w_left_suffix_, &out->left);
  MatMulPackedInto(shared_suffix, w_right_suffix_, &out->right);
}

void TreeConv::ForwardInferenceRows(const TreeStructure& tree, const Matrix& x,
                                    const std::vector<int>& rows,
                                    const SuffixProjection* suffix,
                                    Scratch* scratch, Matrix* y,
                                    float leaky_alpha) const {
  const int s = shared_suffix_dim_;
  const int top = in_channels_ - s;
  const int cout = weight_.value.cols();
  NEO_CHECK(x.cols() == top);
  NEO_CHECK((s > 0) == (suffix != nullptr));
  NEO_CHECK(static_cast<size_t>(x.rows()) == tree.NumNodes());
  NEO_CHECK(y->rows() == x.rows() && y->cols() == cout);
  NEO_CHECK(split_fresh_);
  if (rows.empty()) return;
  Scratch local;
  if (scratch == nullptr) scratch = &local;
  const int d = static_cast<int>(rows.size());

  // Self block gathered over the listed rows; side blocks over their
  // present children; then one fused epilogue writes each listed row once.
  scratch->gather.Reshape(d, top);
  for (int r = 0; r < d; ++r) {
    std::copy(x.Row(rows[static_cast<size_t>(r)]),
              x.Row(rows[static_cast<size_t>(r)]) + top, scratch->gather.Row(r));
  }
  MatMulPackedInto(scratch->gather, w_self_, &scratch->self);

  const int nl = GatherSide(tree.left, x, top, &rows, &scratch->gather,
                            &scratch->lparent);
  if (nl > 0) MatMulPackedInto(scratch->gather, w_left_, &scratch->lcontrib);
  const int nr = GatherSide(tree.right, x, top, &rows, &scratch->gather,
                            &scratch->rparent);
  if (nr > 0) MatMulPackedInto(scratch->gather, w_right_, &scratch->rcontrib);

  FusedEpilogue(scratch->self, &rows, scratch->lparent, scratch->lcontrib,
                scratch->rparent, scratch->rcontrib, bias_.value.Row(0), suffix,
                /*node_seg=*/nullptr, leaky_alpha, y);
}

void TreeConv::BackwardTrain(const TreeStructure& tree, const Matrix& x,
                             const Matrix* suffixes, const int* node_seg,
                             const Matrix& grad_out, const TreeGather& gather,
                             TrainScratch* scratch, Matrix* grad_in,
                             Matrix* grad_suffix) {
  // Training implies an imminent weight update: invalidate the inference
  // split so the inference passes cannot silently use stale weights.
  split_fresh_ = false;
  const int n = grad_out.rows();
  const int s = shared_suffix_dim_;
  const int top = in_channels_ - s;
  const int cin = in_channels_;
  const int cout = grad_out.cols();
  NEO_CHECK(cout == weight_.value.cols());
  NEO_CHECK(x.rows() == n && x.cols() == top);
  NEO_CHECK(static_cast<size_t>(n) == tree.NumNodes());
  NEO_CHECK((s > 0) == (suffixes != nullptr));
  // Input gradients flow only through suffix-free (deeper) layers; layer 0's
  // varying channels are leaf inputs, so their gradient is never computed.
  NEO_CHECK(grad_in == nullptr || s == 0);
  NEO_CHECK(grad_suffix == nullptr || s > 0);
  NEO_CHECK(scratch != nullptr);
  const int batch = s > 0 ? suffixes->rows() : 1;

  // Bias gradient: serial ascending-row reduction (fixed order, cheap).
  for (int i = 0; i < n; ++i) {
    const float* g = grad_out.Row(i);
    float* b = bias_.grad.Row(0);
    for (int c = 0; c < cout; ++c) b[c] += g[c];
  }

  // Per-sample segment sums of grad rows over the nodes a block touches:
  // G_b[k] = sum of grad_out rows (ascending node order — forests pack
  // sample-contiguously, so this is also ascending within each sample) whose
  // b-child is present and whose node belongs to sample k.
  auto seg_sum = [&](const SideGather* side) {
    Matrix& G = scratch->seg_grad;
    G.Reshape(batch, cout);
    G.Zero();
    if (side == nullptr) {
      for (int i = 0; i < n; ++i) {
        float* dst = G.Row(node_seg != nullptr ? node_seg[i] : 0);
        const float* g = grad_out.Row(i);
        for (int c = 0; c < cout; ++c) dst[c] += g[c];
      }
    } else {
      for (size_t t = 0; t < side->parent.size(); ++t) {
        const int p = side->parent[t];
        float* dst = G.Row(node_seg != nullptr ? node_seg[p] : 0);
        const float* g = grad_out.Row(p);
        for (int c = 0; c < cout; ++c) dst[c] += g[c];
      }
    }
  };

  // Suffix sub-block of block `blk`: dW_suf += E^T G_b (one small GEMM per
  // block per step instead of per node), and the suffix (query-embedding)
  // gradient accumulates G_b W_suf^T in self/left/right order.
  auto suffix_backward = [&](const SideGather* side, int blk) {
    if (s == 0) return;
    if (side != nullptr && side->parent.empty()) return;
    seg_sum(side);
    MatMulTransposeAInto(*suffixes, scratch->seg_grad,
                         weight_.grad.Row(blk * cin + top), &scratch->gemm);
    if (grad_suffix != nullptr) {
      MatMulTransposeBBlockInto(scratch->seg_grad,
                                weight_.value.Row(blk * cin + top), s,
                                &scratch->sgrad_tmp, &scratch->gemm);
      if (blk == 0) {
        *grad_suffix = scratch->sgrad_tmp;
      } else {
        grad_suffix->Add(scratch->sgrad_tmp);
      }
    }
    train_stats_.backward_madds +=
        2ULL * static_cast<uint64_t>(batch) * static_cast<uint64_t>(s) * cout;
  };

  // Self block: dW_top += x^T g; dx = g W_top^T seeds grad_in when asked.
  MatMulTransposeAInto(x, grad_out, weight_.grad.Row(0), &scratch->gemm);
  suffix_backward(nullptr, 0);
  if (grad_in != nullptr) {
    MatMulTransposeBBlockInto(grad_out, weight_.value.Row(0), top, grad_in,
                              &scratch->gemm);
  }
  train_stats_.backward_madds +=
      2ULL * static_cast<uint64_t>(n) * static_cast<uint64_t>(top) * cout;

  // Side top blocks. Per side: accumulate dW_blk += x[child]^T g[parent] in
  // place, reading both gathers through the index lists (zero-copy), then
  // scatter g[parent] W_blk^T to the child rows of grad_in. Each node is at
  // most one parent's child, so no grad_in row is touched twice per side.
  auto side_backward = [&](const SideGather& side, int blk) {
    const int present = static_cast<int>(side.parent.size());
    if (present == 0) return;
    Matrix& contrib = scratch->lcontrib;
    MatMulGatherTransposeAInto(x, side.child.data(), grad_out,
                               side.parent.data(), present,
                               weight_.grad.Row(blk * cin), &scratch->gemm);
    if (grad_in != nullptr) {
      MatMulGatherTransposeBBlockInto(grad_out, side.parent.data(), present,
                                      weight_.value.Row(blk * cin), top,
                                      &contrib, &scratch->gemm);
    }
    suffix_backward(&side, blk);
    if (grad_in != nullptr) {
      for (int r = 0; r < present; ++r) {
        float* dst = grad_in->Row(side.child[static_cast<size_t>(r)]);
        const float* src = contrib.Row(r);
        for (int c = 0; c < top; ++c) dst[c] += src[c];
      }
    }
    train_stats_.backward_madds += 2ULL * static_cast<uint64_t>(present) *
                                   static_cast<uint64_t>(top) * cout;
    train_stats_.gather_bytes +=
        static_cast<uint64_t>(present) * (top + cout) * sizeof(float) +
        static_cast<uint64_t>(present) * top * sizeof(float);
    train_stats_.rows_skipped += static_cast<uint64_t>(n - present);
  };
  side_backward(gather.left, 1);
  side_backward(gather.right, 2);
}

Matrix DynamicPooling::Forward(const Matrix& x) {
  NEO_CHECK(x.rows() > 0);
  const std::vector<int> offsets = {0, x.rows()};
  return Forward(x, offsets);
}

namespace {

/// Per-channel max over rows [begin, end) of x into yrow; `amax` (optional)
/// records the winning row per channel for the backward pass.
inline void PoolSegment(const Matrix& x, int begin, int end, float* yrow,
                        int* amax) {
  const int d = x.cols();
  NEO_CHECK(end > begin);  // Every tree has at least one node.
  const float* first = x.Row(begin);
  for (int c = 0; c < d; ++c) {
    yrow[c] = first[c];
    if (amax != nullptr) amax[c] = begin;
  }
  for (int r = begin + 1; r < end; ++r) {
    const float* row = x.Row(r);
    for (int c = 0; c < d; ++c) {
      if (row[c] > yrow[c]) {
        yrow[c] = row[c];
        if (amax != nullptr) amax[c] = r;
      }
    }
  }
}

}  // namespace

Matrix DynamicPooling::Forward(const Matrix& x, const std::vector<int>& offsets) {
  Matrix y;
  ForwardInto(x, offsets, &y);
  return y;
}

void DynamicPooling::ForwardInto(const Matrix& x, const std::vector<int>& offsets,
                                 Matrix* y) {
  const int d = x.cols();
  NEO_CHECK(offsets.size() >= 2);
  const int segments = static_cast<int>(offsets.size()) - 1;
  NEO_CHECK(offsets.front() == 0 && offsets.back() == x.rows());
  last_rows_ = x.rows();
  last_segments_ = segments;
  argmax_.assign(static_cast<size_t>(segments) * d, 0);
  y->Reshape(segments, d);  // Fully overwritten by PoolSegment.
  for (int s = 0; s < segments; ++s) {
    PoolSegment(x, offsets[static_cast<size_t>(s)],
                offsets[static_cast<size_t>(s) + 1], y->Row(s),
                argmax_.data() + static_cast<size_t>(s) * d);
  }
}

Matrix DynamicPooling::ForwardInference(const Matrix& x,
                                        const std::vector<int>& offsets) const {
  Matrix y;
  ForwardInferenceInto(x, offsets, &y);
  return y;
}

void DynamicPooling::ForwardInferenceInto(const Matrix& x,
                                          const std::vector<int>& offsets,
                                          Matrix* y) const {
  const int d = x.cols();
  NEO_CHECK(offsets.size() >= 2);
  const int segments = static_cast<int>(offsets.size()) - 1;
  NEO_CHECK(offsets.front() == 0 && offsets.back() == x.rows());
  y->Reshape(segments, d);  // Fully overwritten by PoolSegment.
  for (int s = 0; s < segments; ++s) {
    PoolSegment(x, offsets[static_cast<size_t>(s)],
                offsets[static_cast<size_t>(s) + 1], y->Row(s), nullptr);
  }
}

Matrix DynamicPooling::Backward(const Matrix& grad_out) {
  Matrix grad_in;
  BackwardInto(grad_out, &grad_in);
  return grad_in;
}

void DynamicPooling::BackwardInto(const Matrix& grad_out, Matrix* grad_in) {
  NEO_CHECK(grad_out.rows() == last_segments_);
  const int d = grad_out.cols();
  grad_in->Reshape(last_rows_, d);
  grad_in->Zero();
  for (int s = 0; s < grad_out.rows(); ++s) {
    const int* amax = argmax_.data() + static_cast<size_t>(s) * d;
    const float* g = grad_out.Row(s);
    for (int c = 0; c < d; ++c) grad_in->At(amax[c], c) += g[c];
  }
}

}  // namespace neo::nn
