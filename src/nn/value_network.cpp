#include "src/nn/value_network.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "src/util/alloc_counter.h"

namespace neo::nn {

ValueNetwork::ValueNetwork(const ValueNetConfig& config)
    : config_(config), rng_(config.seed), leaky_alpha_(config.leaky_alpha) {
  NEO_CHECK(config.query_dim > 0 && config.plan_dim > 0);
  NEO_CHECK(!config.query_fc.empty() && !config.tree_channels.empty());

  // Query-level FC stack with layer norm (paper §6.1).
  int prev = config.query_dim;
  for (size_t i = 0; i < config.query_fc.size(); ++i) {
    const int width = config.query_fc[i];
    query_stack_.Add(std::make_unique<Linear>(prev, width, rng_));
    query_stack_.Add(std::make_unique<LayerNorm>(width));
    query_stack_.Add(std::make_unique<LeakyReLU>(leaky_alpha_));
    prev = width;
  }
  embed_dim_ = prev;

  // Tree convolution stack over augmented nodes. The first layer's input is
  // [plan features ; query embedding]; the embedding tail is row-constant at
  // inference, so layer 0 is built with a shared-suffix declaration and the
  // inference path never materializes the augmented matrix.
  int channels = config.plan_dim + embed_dim_;
  for (size_t i = 0; i < config.tree_channels.size(); ++i) {
    const int out_channels = config.tree_channels[i];
    convs_.emplace_back(channels, out_channels, rng_, i == 0 ? embed_dim_ : 0);
    channels = out_channels;
    total_conv_channels_ += out_channels;
  }

  // Head FC stack -> scalar.
  prev = channels;
  for (int width : config.head_fc) {
    head_.Add(std::make_unique<Linear>(prev, width, rng_));
    head_.Add(std::make_unique<LayerNorm>(width));
    head_.Add(std::make_unique<LeakyReLU>(leaky_alpha_));
    prev = width;
  }
  head_.Add(std::make_unique<Linear>(prev, 1, rng_));

  std::vector<Param*> params;
  query_stack_.CollectParams(&params);
  for (auto& conv : convs_) conv.CollectParams(&params);
  head_.CollectParams(&params);
  adam_ = std::make_unique<Adam>(std::move(params), config.adam);
}

std::vector<Param*> ValueNetwork::AllParams() const {
  std::vector<Param*> params;
  auto* self = const_cast<ValueNetwork*>(this);
  self->query_stack_.CollectParams(&params);
  for (auto& conv : self->convs_) conv.CollectParams(&params);
  self->head_.CollectParams(&params);
  return params;
}

size_t ValueNetwork::NumParameters() const {
  size_t total = 0;
  for (const Param* p : AllParams()) total += p->value.Size();
  return total;
}

namespace {
constexpr uint32_t kWeightsMagic = 0x4e454f57;  // "NEOW"
constexpr uint32_t kWeightsFormatVersion = 2;   // v2: +format version, +checksum.

/// FNV-1a 64 over a byte range, chainable via `h`.
uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
}  // namespace

util::Status ValueNetwork::SaveWeights(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::Internal("cannot open for write: " + path);
  }
  const std::vector<Param*> params = AllParams();

  bool ok = true;
  const uint32_t magic = kWeightsMagic;
  const uint32_t format = kWeightsFormatVersion;
  const uint32_t n_params = static_cast<uint32_t>(params.size());
  ok &= std::fwrite(&magic, sizeof(magic), 1, f) == 1;
  ok &= std::fwrite(&format, sizeof(format), 1, f) == 1;
  ok &= std::fwrite(&n_params, sizeof(n_params), 1, f) == 1;
  uint64_t checksum = Fnv1a(&n_params, sizeof(n_params), kFnvOffsetBasis);
  for (const Param* p : params) {
    const int32_t rows = p->value.rows();
    const int32_t cols = p->value.cols();
    ok &= std::fwrite(&rows, sizeof(rows), 1, f) == 1;
    ok &= std::fwrite(&cols, sizeof(cols), 1, f) == 1;
    ok &= std::fwrite(p->value.data(), sizeof(float), p->value.Size(), f) ==
          p->value.Size();
    checksum = Fnv1a(&rows, sizeof(rows), checksum);
    checksum = Fnv1a(&cols, sizeof(cols), checksum);
    checksum = Fnv1a(p->value.data(), sizeof(float) * p->value.Size(), checksum);
  }
  ok &= std::fwrite(&checksum, sizeof(checksum), 1, f) == 1;
  ok &= std::fclose(f) == 0;
  if (!ok) return util::Status::Internal("short write: " + path);
  return util::Status::Ok();
}

util::Status ValueNetwork::LoadWeights(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return util::Status::NotFound("no such checkpoint: " + path);
  const std::vector<Param*> params = AllParams();

  // Bump-on-exit, even on failure: a truncated file may have partially
  // overwritten parameters, and every weight-derived cache (score cache,
  // inference weight splits) keys off version_ — stale serves would be
  // silent. The head's packed weight copy is invalidated eagerly so the
  // window between this load and the next SyncInferenceWeights cannot
  // multiply stale packed values (the conv splits are lazy-refreshed behind
  // the version check; the query stack never packs).
  struct VersionBump {
    ValueNetwork* net;
    ~VersionBump() {
      net->head_.InvalidateInferenceWeights();
      ++net->version_;
    }
  } bump{this};

  util::Status status = util::Status::Ok();
  uint32_t magic = 0, format = 0, n_params = 0;
  if (std::fread(&magic, sizeof(magic), 1, f) != 1 ||
      std::fread(&format, sizeof(format), 1, f) != 1 ||
      std::fread(&n_params, sizeof(n_params), 1, f) != 1 ||
      magic != kWeightsMagic || format != kWeightsFormatVersion) {
    status = util::Status::DataLoss("bad magic/format header: " + path);
  } else if (n_params != params.size()) {
    status = util::Status::FailedPrecondition("parameter count mismatch: " + path);
  }
  uint64_t checksum = Fnv1a(&n_params, sizeof(n_params), kFnvOffsetBasis);
  for (Param* p : params) {
    if (!status.ok()) break;
    int32_t rows = 0, cols = 0;
    if (std::fread(&rows, sizeof(rows), 1, f) != 1 ||
        std::fread(&cols, sizeof(cols), 1, f) != 1) {
      status = util::Status::DataLoss("truncated checkpoint: " + path);
      break;
    }
    if (rows != p->value.rows() || cols != p->value.cols()) {
      status = util::Status::FailedPrecondition("architecture mismatch: " + path);
      break;
    }
    if (std::fread(p->value.data(), sizeof(float), p->value.Size(), f) !=
        p->value.Size()) {
      status = util::Status::DataLoss("truncated checkpoint: " + path);
      break;
    }
    checksum = Fnv1a(&rows, sizeof(rows), checksum);
    checksum = Fnv1a(&cols, sizeof(cols), checksum);
    checksum = Fnv1a(p->value.data(), sizeof(float) * p->value.Size(), checksum);
  }
  if (status.ok()) {
    uint64_t stored = 0;
    if (std::fread(&stored, sizeof(stored), 1, f) != 1) {
      status = util::Status::DataLoss("missing checksum: " + path);
    } else if (stored != checksum) {
      status = util::Status::DataLoss("checksum mismatch (corrupted checkpoint): " +
                                      path);
    }
  }
  std::fclose(f);
  return status;
}

void ValueNetwork::CaptureSnapshot(WeightSnapshot* snap) const {
  const std::vector<Param*> params = AllParams();
  snap->params.assign(params.size(), Matrix());
  for (size_t i = 0; i < params.size(); ++i) snap->params[i] = params[i]->value;
  adam_->CaptureState(&snap->adam_m, &snap->adam_v, &snap->adam_steps);
  snap->version = version_;
}

void ValueNetwork::RestoreSnapshot(const WeightSnapshot& snap) {
  const std::vector<Param*> params = AllParams();
  NEO_CHECK(snap.params.size() == params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    NEO_CHECK(snap.params[i].rows() == params[i]->value.rows() &&
              snap.params[i].cols() == params[i]->value.cols());
    params[i]->value = snap.params[i];
    params[i]->ZeroGrad();
  }
  adam_->RestoreState(snap.adam_m, snap.adam_v, snap.adam_steps);
  // Same discipline as LoadWeights: any weight mutation bumps the version so
  // search caches keyed on it invalidate, and the head's packed copy is
  // dropped eagerly.
  head_.InvalidateInferenceWeights();
  ++version_;
}

bool ValueNetwork::HasNonFiniteParams() const {
  for (const Param* p : AllParams()) {
    const float* data = p->value.data();
    for (size_t i = 0; i < p->value.Size(); ++i) {
      if (!std::isfinite(data[i])) return true;
    }
  }
  return false;
}

void ValueNetwork::DebugPoisonWeights(uint64_t key) {
  const std::vector<Param*> params = AllParams();
  // Poison a few elements spread across parameter matrices, deterministically
  // keyed: the same (key, architecture) always corrupts the same weights.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int k = 0; k < 3; ++k) {
    const uint64_t h = util::Mix64(util::HashCombine(key, static_cast<uint64_t>(k)));
    Param* p = params[h % params.size()];
    p->value.data()[util::Mix64(h) % p->value.Size()] = nan;
  }
  head_.InvalidateInferenceWeights();
  ++version_;
}

PlanBatch PackPlanBatch(const std::vector<const PlanSample*>& samples) {
  return PackPlanBatch(samples.data(), samples.size());
}

PlanBatch PackPlanBatch(const PlanSample* const* samples, size_t n) {
  PlanBatch batch;
  PackPlanBatchInto(samples, n, &batch);
  return batch;
}

void PackPlanBatchInto(const PlanSample* const* samples, size_t n,
                       PlanBatch* out) {
  out->tree_offsets.clear();
  out->tree_offsets.reserve(n + 1);
  out->tree_offsets.push_back(0);
  out->forest.left.clear();
  out->forest.right.clear();
  size_t total = 0;
  for (size_t s = 0; s < n; ++s) {
    total += samples[s]->tree.NumNodes();
    out->tree_offsets.push_back(static_cast<int>(total));
  }
  if (total == 0) {
    out->node_features.Reshape(0, 0);
    return;
  }
  out->forest.left.reserve(total);
  out->forest.right.reserve(total);
  out->node_features.Reshape(static_cast<int>(total),
                             samples[0]->node_features.cols());
  for (size_t s = 0; s < n; ++s) {
    const PlanSample& sample = *samples[s];
    NEO_CHECK(sample.node_features.cols() == out->node_features.cols());
    NEO_CHECK(sample.node_features.rows() ==
              static_cast<int>(sample.tree.NumNodes()));
    const int base = out->tree_offsets[s];
    for (size_t i = 0; i < sample.tree.NumNodes(); ++i) {
      const int l = sample.tree.left[i];
      const int r = sample.tree.right[i];
      out->forest.left.push_back(l < 0 ? -1 : l + base);
      out->forest.right.push_back(r < 0 ? -1 : r + base);
      std::copy(sample.node_features.Row(static_cast<int>(i)),
                sample.node_features.Row(static_cast<int>(i)) + sample.node_features.cols(),
                out->node_features.Row(base + static_cast<int>(i)));
    }
  }
  // Gather lists once per forest: every conv layer's training forward AND
  // backward reuses them instead of re-scanning child indices per layer.
  TreeGather::BuildInto(out->forest, &out->gather);
}

Matrix ValueNetwork::EmbedQuery(const Matrix& query_vec) const {
  return query_stack_.ForwardInference(query_vec);
}

void ValueNetwork::EmbedQueryInto(const Matrix& query_vec,
                                  PipelineScratch* scratch, Matrix* out) const {
  query_stack_.ForwardInferenceInto(query_vec, scratch, out);
}

void ValueNetwork::SyncInferenceWeights() {
  // Double-checked: the version match is the overwhelmingly common case, and
  // the mutex only serializes the first inference after a weight update.
  // Training must still never run concurrently with inference (the refresh
  // itself would read half-updated weights), which Neo's retrain-then-plan
  // episode structure guarantees.
  if (inference_weights_version_.load(std::memory_order_acquire) == version_) return;
  std::lock_guard<std::mutex> lock(inference_sync_mu_);
  if (inference_weights_version_.load(std::memory_order_relaxed) == version_) return;
  for (auto& conv : convs_) conv.RefreshInferenceWeights();
  // Re-pack the head stack's weights for the kernel dispatch arms alongside
  // the conv splits: every head read happens after a SyncInferenceWeights on
  // the reading thread (InferencePooledInto calls it first), so the
  // version acquire/release pair orders these writes before them. The QUERY
  // stack is deliberately NOT packed: EmbedQuery runs without a sync (it may
  // race with another search's first-inference refresh), and its per-query
  // (1 x dim) GEMMs gain nothing from pre-packing — it always multiplies the
  // live weights, packing them per call into the caller's scratch.
  head_.RefreshInferenceWeights();
  inference_weights_version_.store(version_, std::memory_order_release);
}

void ValueNetwork::InferencePooledInto(const TreeStructure& tree,
                                       const Matrix& node_features,
                                       const Matrix& query_embedding,
                                       const std::vector<int>& offsets,
                                       InferenceContext* ctx, Matrix* pooled) {
  SyncInferenceWeights();
  if (ctx == nullptr) ctx = &default_ctx_;
  if (ctx->conv_scratch.size() < convs_.size()) ctx->conv_scratch.resize(convs_.size());
  if (ctx->conv_out.size() < convs_.size()) ctx->conv_out.resize(convs_.size());
  for (size_t li = 0; li < convs_.size(); ++li) {
    // Leaky ReLU is fused into the conv's scatter epilogue (bit-identical to
    // a separate pass), so conv_out[li] holds post-activations.
    if (li == 0) {
      convs_[0].ForwardInferenceInto(tree, node_features, &query_embedding,
                                     &ctx->conv_scratch[0], leaky_alpha_,
                                     &ctx->conv_out[0]);
    } else {
      convs_[li].ForwardInferenceInto(tree, ctx->conv_out[li - 1], nullptr,
                                      &ctx->conv_scratch[li], leaky_alpha_,
                                      &ctx->conv_out[li]);
    }
  }
  pool_.ForwardInferenceInto(ctx->conv_out[convs_.size() - 1], offsets, pooled);
}

std::vector<float> ValueNetwork::PredictBatch(const Matrix& query_embedding,
                                              const PlanBatch& batch,
                                              InferenceContext* ctx) {
  const int n_plans = batch.size();
  if (n_plans == 0) return {};
  NEO_CHECK(batch.node_features.rows() ==
            static_cast<int>(batch.forest.NumNodes()));
  if (ctx == nullptr) ctx = &default_ctx_;
  InferencePooledInto(batch.forest, batch.node_features, query_embedding,
                      batch.tree_offsets, ctx, &ctx->pooled);
  std::vector<float> out;
  PredictPooledInto(ctx->pooled, ctx, &out);
  return out;
}

void ValueNetwork::ProjectQueryInto(const Matrix& query_embedding,
                                    TreeConv::SuffixProjection* out) {
  SyncInferenceWeights();
  convs_[0].ProjectSuffixInto(query_embedding, out);
}

void ValueNetwork::ForwardRows(const TreeStructure& tree, const Matrix& features,
                               const std::vector<int>& rows,
                               const TreeConv::SuffixProjection& query,
                               InferenceContext* ctx,
                               std::vector<Matrix>* layers) {
  SyncInferenceWeights();
  if (ctx == nullptr) ctx = &default_ctx_;
  if (ctx->conv_scratch.size() < convs_.size()) ctx->conv_scratch.resize(convs_.size());
  NEO_CHECK(layers->size() == convs_.size());
  // Layer l of every listed row runs after layer l-1 of all of them, so a
  // row may list its children in the same call.
  for (size_t li = 0; li < convs_.size(); ++li) {
    convs_[li].ForwardInferenceRows(tree, li == 0 ? features : (*layers)[li - 1],
                                    rows, li == 0 ? &query : nullptr,
                                    &ctx->conv_scratch[li], &(*layers)[li],
                                    leaky_alpha_);
  }
}

void ValueNetwork::PredictPooledInto(const Matrix& pooled, InferenceContext* ctx,
                                     std::vector<float>* out) {
  SyncInferenceWeights();
  if (ctx == nullptr) ctx = &default_ctx_;
  head_.ForwardInferenceInto(pooled, &ctx->head_pipe, &ctx->scores);
  out->resize(static_cast<size_t>(pooled.rows()));
  for (int i = 0; i < pooled.rows(); ++i) {
    (*out)[static_cast<size_t>(i)] = ctx->scores.At(i, 0);
  }
}

std::vector<float> ValueNetwork::PredictBatch(
    const Matrix& query_embedding, const std::vector<const PlanSample*>& samples) {
  return PredictBatch(query_embedding, PackPlanBatch(samples));
}

float ValueNetwork::Predict(const PlanSample& sample) {
  const Matrix embed = EmbedQuery(sample.query_vec);
  return PredictWithEmbedding(embed, sample.tree, sample.node_features);
}

float ValueNetwork::PredictWithEmbedding(const Matrix& query_embedding,
                                         const TreeStructure& tree,
                                         const Matrix& node_features,
                                         InferenceContext* ctx) {
  const int n = node_features.rows();
  NEO_CHECK(n > 0);
  // Absent-child blocks are skipped and the query embedding is projected
  // once per call (shared-suffix layer 0) instead of per node.
  const std::vector<int> offsets = {0, n};
  if (ctx == nullptr) ctx = &default_ctx_;
  InferencePooledInto(tree, node_features, query_embedding, offsets, ctx,
                      &ctx->pooled);
  head_.ForwardInferenceInto(ctx->pooled, &ctx->head_pipe, &ctx->scores);
  return ctx->scores.At(0, 0);
}

float ValueNetwork::TrainBatch(const std::vector<const PlanSample*>& samples,
                               const std::vector<float>& targets) {
  NEO_CHECK(samples.size() == targets.size());
  return TrainBatch(samples.data(), targets.data(), samples.size());
}

float ValueNetwork::TrainBatch(const PlanSample* const* samples, const float* targets,
                               size_t n, const Matrix* const* query_vecs) {
  NEO_CHECK(n > 0);
  // Count every heap allocation made by the step (benches assert the steady
  // state makes none; see util::RegionAllocs).
  util::AllocRegionScope alloc_region;
  // Pack the minibatch into one forest: every conv layer, the pooling, the
  // head, and the query stack run once over the whole batch as large GEMMs.
  // All kernels are row-independent, so a sample's prediction does not
  // depend on the rest of its minibatch.
  //
  // Every buffer here is a member, capacity-reused across steps: after one
  // step at the batch-size high-water mark the whole step performs zero heap
  // allocations. Layer 0 runs the suffix-split ForwardTrain/BackwardTrain —
  // the query-embedding suffix is projected once per sample (one (B x s)
  // GEMM), never materialized per node (no spatially-replicated augmented
  // matrix exists).
  const int batch = static_cast<int>(n);
  PackPlanBatchInto(samples, n, &train_batch_);
  const PlanBatch& packed = train_batch_;
  const int total_nodes = packed.node_features.rows();
  NEO_CHECK(total_nodes > 0);

  // Query stack forward over all query vectors at once.
  train_query_vecs_.Reshape(batch, config_.query_dim);
  for (int s = 0; s < batch; ++s) {
    const Matrix& query_vec =
        query_vecs != nullptr ? *query_vecs[s] : samples[s]->query_vec;
    NEO_CHECK(query_vec.cols() == config_.query_dim);
    std::copy(query_vec.Row(0), query_vec.Row(0) + config_.query_dim,
              train_query_vecs_.Row(s));
  }
  query_stack_.ForwardInto(train_query_vecs_, &train_pipe_, &train_embeds_);

  // Node row -> sample segment (which embedding row a node's suffix is).
  train_node_seg_.resize(static_cast<size_t>(total_nodes));
  for (int s = 0; s < batch; ++s) {
    const int begin = packed.tree_offsets[static_cast<size_t>(s)];
    const int end = packed.tree_offsets[static_cast<size_t>(s) + 1];
    for (int i = begin; i < end; ++i) train_node_seg_[static_cast<size_t>(i)] = s;
  }

  // Conv stack forward. Leaky ReLU is fused into each layer's scatter
  // epilogue, so train_post_[li] holds post-activations — the layers'
  // backward inputs (leaky ReLU preserves sign, so the backward's relu mask
  // reads post < 0 and no pre-activation copy is ever made).
  if (train_post_.size() < convs_.size()) train_post_.resize(convs_.size());
  for (size_t li = 0; li < convs_.size(); ++li) {
    convs_[li].ForwardTrain(packed.forest,
                            li == 0 ? packed.node_features : train_post_[li - 1],
                            li == 0 ? &train_embeds_ : nullptr,
                            li == 0 ? train_node_seg_.data() : nullptr,
                            packed.gather, &train_scratch_, leaky_alpha_,
                            &train_post_[li]);
  }
  pool_.ForwardInto(train_post_[convs_.size() - 1], packed.tree_offsets,
                    &train_pooled_);                                // (batch x C)
  head_.ForwardInto(train_pooled_, &train_pipe_, &train_head_out_);  // (batch x 1)

  // L2 loss and output gradient: dL/dpred_s = 2 * err_s / batch (paper §4).
  double total_loss = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  train_grad_out_.Reshape(batch, 1);
  for (int s = 0; s < batch; ++s) {
    const float err = train_head_out_.At(s, 0) - targets[s];
    total_loss += static_cast<double>(err) * err;
    train_grad_out_.At(s, 0) = 2.0f * err * inv_batch;
  }

  head_.BackwardInto(train_grad_out_, &train_pipe_, &train_grad_pooled_);
  pool_.BackwardInto(train_grad_pooled_, &train_grad_nodes_);
  // Peak-scratch high-water mark, sampled at maximal liveness: every conv
  // post-activation, the packed features, the embeddings, and the layers'
  // backward caches are all alive here.
  size_t live_bytes = (packed.node_features.Size() + train_embeds_.Size() +
                       train_grad_nodes_.Size()) * sizeof(float);
  for (const Matrix& z : train_post_) live_bytes += z.Size() * sizeof(float);
  for (int li = static_cast<int>(convs_.size()) - 1; li >= 0; --li) {
    // Leaky ReLU backward mask (elementwise): post < 0 iff pre < 0 since
    // alpha > 0, so the kept post-activations suffice. A select, not a
    // branch, so the loop vectorizes.
    const float* z = train_post_[static_cast<size_t>(li)].data();
    float* g = train_grad_nodes_.data();
    const size_t size = train_grad_nodes_.Size();
    const float alpha = leaky_alpha_;
    for (size_t i = 0; i < size; ++i) g[i] = z[i] < 0.0f ? g[i] * alpha : g[i];
    if (li > 0) {
      convs_[static_cast<size_t>(li)].BackwardTrain(
          packed.forest, train_post_[static_cast<size_t>(li) - 1],
          /*suffixes=*/nullptr, /*node_seg=*/nullptr, train_grad_nodes_,
          packed.gather, &train_scratch_, &train_grad_nodes_tmp_,
          /*grad_suffix=*/nullptr);
      std::swap(train_grad_nodes_, train_grad_nodes_tmp_);
    } else {
      // Layer 0: plan features are leaf inputs (no input gradient); the
      // suffix gradient comes back per SAMPLE (ascending per-segment sums —
      // the backward of spatial replication, without an augmented matrix).
      convs_[0].BackwardTrain(packed.forest, packed.node_features,
                              &train_embeds_, train_node_seg_.data(),
                              train_grad_nodes_, packed.gather, &train_scratch_,
                              /*grad_in=*/nullptr, &train_grad_embeds_);
    }
  }
  // Query vectors are leaf inputs: no input gradient (the stack's first
  // layer, a Linear, skips that GEMM).
  query_stack_.BackwardInto(train_grad_embeds_, &train_pipe_,
                            /*grad_in=*/nullptr);

  adam_->Step();
  ++version_;
  NoteScratchPeak(live_bytes);
  return static_cast<float>(total_loss / static_cast<double>(batch));
}

void ValueNetwork::NoteScratchPeak(size_t live_bytes) {
  const size_t total = live_bytes + query_stack_.TrainingScratchBytes() +
                       head_.TrainingScratchBytes() +
                       pool_.TrainingScratchBytes() + train_scratch_.Bytes();
  if (total > peak_train_scratch_) peak_train_scratch_ = total;
}

std::vector<TreeConv::TrainStats> ValueNetwork::ConvTrainStats() const {
  std::vector<TreeConv::TrainStats> stats;
  stats.reserve(convs_.size());
  for (const auto& conv : convs_) stats.push_back(conv.train_stats());
  return stats;
}

void ValueNetwork::ResetConvTrainStats() {
  for (auto& conv : convs_) conv.ResetTrainStats();
}

}  // namespace neo::nn
