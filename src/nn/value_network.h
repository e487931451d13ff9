// Neo's value network (paper Figure 5 / Appendix A).
//
// Architecture: the query-level encoding passes through fully connected
// layers; the final vector is concatenated onto every plan-tree node
// ("spatial replication"); the augmented forest passes through a stack of
// tree convolution layers; dynamic pooling flattens it; a final FC stack
// produces the scalar cost prediction.
//
// Channel widths are configurable: the paper uses 512/256/128 tree-conv
// filters; the default here is narrower so that the full RL loop runs on a
// laptop-scale substrate (see NeoConfig; benches can widen via --full).
//
// ---- Memory model (zero-alloc steady state) --------------------------------
//
// Serving and training steady states perform no heap allocation:
//  * Inference: every Predict*Into / EmbedQueryInto call threads caller-
//    owned scratch (an InferenceContext or a PipelineScratch) whose buffers
//    — per-layer conv outputs, pooled matrix, head pipeline buffers, conv
//    scratch, and GEMM pack buffers — are capacity-reused
//    (Matrix::Reshape never shrinks capacity). After one call at each shape
//    high-water mark, repeated calls allocate nothing; post-activations are
//    written exactly once per row (the bias/suffix/side/leaky-ReLU epilogue
//    is fused into the conv scatter, and (Linear, LayerNorm, LeakyReLU)
//    triples fuse in the FC stacks). Apart from the once-per-version,
//    mutex-guarded refresh of the packed inference weights, no inference
//    call writes layer state, so concurrent inference on one network (each
//    caller with its own scratch) is race-free.
//  * Training: TrainBatch packs the minibatch into one forest held in
//    member-owned buffers and retains all training scratch across steps
//    (high-water reuse), so a step at or below the high-water marks of batch
//    size and of the query columns the first Linear keeps allocates nothing.
//  * Verification: TrainBatch runs inside util::AllocRegionScope (as does
//    the search's NN-eval section); ctest fails if either counts an
//    allocation after warmup (ValueNetworkTest.TrainBatchSteadyStateAllocatesNothing,
//    CoreFixture.WarmSearchScoringAllocatesNothing).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/nn/adam.h"
#include "src/nn/tree_conv.h"
#include "src/util/status.h"

namespace neo::nn {

struct ValueNetConfig {
  int query_dim = 0;  ///< Set by the featurizer.
  int plan_dim = 0;   ///< Set by the featurizer.
  std::vector<int> query_fc = {128, 64, 32};
  std::vector<int> tree_channels = {64, 32, 16};
  std::vector<int> head_fc = {32, 16};
  float leaky_alpha = 0.01f;
  AdamOptions adam;
  uint64_t seed = 0x5eedf00dULL;
};

/// One featurized (query, partial plan) pair.
struct PlanSample {
  Matrix query_vec;      ///< (1 x query_dim)
  TreeStructure tree;    ///< Forest structure (roots have no parent).
  Matrix node_features;  ///< (nodes x plan_dim)
};

/// N featurized plans of one query packed into a single forest so the whole
/// batch runs through each tree-conv layer and the FC head as one GEMM.
/// Plan i's nodes occupy feature rows [tree_offsets[i], tree_offsets[i+1]);
/// its child indices in `forest` are offset by tree_offsets[i].
struct PlanBatch {
  TreeStructure forest;           ///< Concatenated trees, offset child indices.
  Matrix node_features;           ///< (total nodes x plan_dim)
  std::vector<int> tree_offsets;  ///< size() + 1 monotone row offsets.
  /// Present-child gather lists for `forest`, built once by PackPlanBatch and
  /// shared by every training conv layer's forward AND backward (the forest
  /// structure is layer-invariant).
  TreeGather gather;

  int size() const {
    return tree_offsets.empty() ? 0 : static_cast<int>(tree_offsets.size()) - 1;
  }
};

/// Packs per-sample (tree, node_features) pairs into one PlanBatch (query
/// vectors are ignored; batched prediction shares one query embedding, and
/// training re-associates embeddings per tree via tree_offsets).
PlanBatch PackPlanBatch(const PlanSample* const* samples, size_t n);
PlanBatch PackPlanBatch(const std::vector<const PlanSample*>& samples);

/// PackPlanBatch into an existing PlanBatch, reusing every buffer's capacity
/// (the zero-steady-state-allocation training form).
void PackPlanBatchInto(const PlanSample* const* samples, size_t n,
                       PlanBatch* out);

class ValueNetwork {
 public:
  /// Per-caller scratch for the inference paths. The network's inference is
  /// read-only after the weight split is synced, so N threads may run
  /// Predict*/EmbedQuery concurrently provided (a) each passes its own
  /// context and (b) no training runs at the same time (Neo's episode
  /// structure — retrain, then plan — guarantees that). Passing nullptr uses
  /// a network-owned default context, which is single-thread only.
  struct InferenceContext {
    std::vector<TreeConv::Scratch> conv_scratch;  ///< One per conv layer (lazy).
    /// Capacity-reused forward buffers: per-conv-layer post-activation
    /// outputs, the pooled matrix, the FC-head pipeline scratch, and the
    /// head's (N x 1) score output. One warm call per shape high-water mark
    /// makes every later Predict*Into call heap-allocation-free.
    std::vector<Matrix> conv_out;
    Matrix pooled;
    Matrix scores;
    PipelineScratch head_pipe;
  };

  explicit ValueNetwork(const ValueNetConfig& config);

  /// Predicted (normalized) cost of one sample.
  float Predict(const PlanSample& sample);

  /// Predict with a precomputed query embedding (search fast path: the
  /// query-level FC stack runs once per query, not once per candidate plan).
  float PredictWithEmbedding(const Matrix& query_embedding, const TreeStructure& tree,
                             const Matrix& node_features,
                             InferenceContext* ctx = nullptr);

  /// Batched inference over a packed forest sharing one query embedding: one
  /// full forward pass scores all plans (each conv layer and the head run as
  /// a single large GEMM instead of N small ones). Per-plan results match
  /// PredictWithEmbedding bit-for-bit. The full-pass oracle the search's
  /// row-set scoring is tested against.
  std::vector<float> PredictBatch(const Matrix& query_embedding, const PlanBatch& batch,
                                  InferenceContext* ctx = nullptr);

  // ---- Row-set inference (the plan search's scoring path) -----------------
  //
  // The search keeps a table of distinct subtrees, one row per subtree, and
  // runs the network in three steps: ProjectQueryInto once per search,
  // ForwardRows over each round's new rows, and PredictPooledInto over the
  // round's pooled plans (the max-pool in between is the caller's). A node's
  // conv rows depend only on its subtree's rows and the query embedding, and
  // every kernel is row-position-independent, so every score is bit-identical
  // to PredictBatch over the same plans.

  /// Layer 0's projection of a (1 x embed_dim) query embedding through its
  /// suffix blocks (capacity-reused). Computed once per search and passed to
  /// every ForwardRows call of that search.
  void ProjectQueryInto(const Matrix& query_embedding,
                        TreeConv::SuffixProjection* out);

  /// The conv stack over the listed rows of a row table. `tree` gives each
  /// row's child rows, `features` holds every row's plan features, and
  /// layers[l] (pre-sized to (rows x tree_channels[l]), one matrix per conv
  /// layer) receives the post-activation rows of layer l. Only the listed
  /// rows are written; a listed row reads its children's rows of layer l-1,
  /// which must already hold their values (computed earlier, or listed in
  /// this call). `query` is ProjectQueryInto's result for the same weights.
  /// With a warmed ctx this performs zero heap allocations.
  void ForwardRows(const TreeStructure& tree, const Matrix& features,
                   const std::vector<int>& rows,
                   const TreeConv::SuffixProjection& query,
                   InferenceContext* ctx, std::vector<Matrix>* layers);

  /// The FC head over (N x tree_channels.back()) max-pooled rows: one score
  /// per row into `out` (resized; capacity-reused).
  void PredictPooledInto(const Matrix& pooled, InferenceContext* ctx,
                         std::vector<float>* out);

  /// Sum of the conv stack's out_channels: the width of one node's rows
  /// across every conv layer.
  int TotalConvChannels() const { return total_conv_channels_; }

  /// Convenience overload packing per-sample trees/features on the fly.
  std::vector<float> PredictBatch(const Matrix& query_embedding,
                                  const std::vector<const PlanSample*>& samples);

  /// Runs the query-level FC stack only (writes no network state;
  /// thread-safe).
  Matrix EmbedQuery(const Matrix& query_vec) const;

  /// EmbedQuery into a caller-owned output through caller-owned pipeline
  /// scratch (bit-identical; zero allocations once warm; thread-safe when
  /// each caller passes its own scratch and output). The search path's form.
  void EmbedQueryInto(const Matrix& query_vec, PipelineScratch* scratch,
                      Matrix* out) const;

  /// One SGD step over a minibatch; returns mean squared error before the
  /// update. The whole minibatch is packed into one forest (PackPlanBatch)
  /// and the forward/backward run as a handful of large GEMMs; within a
  /// kernel dispatch arm, the loss curve repeats bit for bit. The query
  /// stack's first Linear multiplies only the query columns that are
  /// non-zero somewhere in the minibatch, and Adam skips the weight rows of
  /// the columns no step has touched (see Linear and Adam); both are exact,
  /// so the loss curve is the one the full GEMMs and a full Adam sweep give.
  float TrainBatch(const std::vector<const PlanSample*>& samples,
                   const std::vector<float>& targets);

  /// Span overload: trains on samples[0..n) / targets[0..n) without the
  /// caller materializing per-minibatch vector copies. With `query_vecs`,
  /// sample s's query vector is *query_vecs[s] instead of its own query_vec,
  /// so the samples of one query can share one encoding.
  float TrainBatch(const PlanSample* const* samples, const float* targets, size_t n,
                   const Matrix* const* query_vecs = nullptr);

  /// Increments on every optimizer step; lets caches detect staleness.
  uint64_t version() const { return version_; }

  /// Peak bytes of batch-sized training scratch observed across TrainBatch
  /// calls: per-layer post-activations, the packed forest features, and
  /// every layer's Backward caches, sampled at the backward's point of
  /// maximal liveness. The scratch is retained across steps, so this is
  /// also what a trained network keeps resident.
  size_t peak_training_scratch_bytes() const { return peak_train_scratch_; }
  void ResetPeakTrainingScratch() { peak_train_scratch_ = 0; }

  /// Per-conv-layer training counters (flops, gather bytes, skipped rows)
  /// accumulated since the last reset; index = conv stack position.
  std::vector<TreeConv::TrainStats> ConvTrainStats() const;
  void ResetConvTrainStats();

  const ValueNetConfig& config() const { return config_; }
  size_t NumParameters() const;

  /// Serializes all weights to a binary file: magic + format version +
  /// parameter dims/blobs + a trailing FNV-1a checksum over the payload, so
  /// a truncated or bit-flipped checkpoint is detected at load time instead
  /// of silently loading garbage. A trained optimizer can thus be shipped
  /// and reloaded without re-running the RL loop.
  util::Status SaveWeights(const std::string& path) const;

  /// Loads weights saved by SaveWeights. The network must have been
  /// constructed with the same architecture. Errors: kNotFound (no such
  /// file), kDataLoss (bad magic / truncation / checksum mismatch),
  /// kFailedPrecondition (architecture mismatch). The weight version is
  /// bumped even on failure — a partial read may have overwritten
  /// parameters, and every weight-derived cache keys off version().
  util::Status LoadWeights(const std::string& path);

  /// In-memory copy of every parameter plus the Adam moments — the unit the
  /// model-health monitor's snapshot ring stores and rolls back to. Cheap
  /// relative to training (one memcpy of ~NumParameters() floats x3).
  struct WeightSnapshot {
    std::vector<Matrix> params;
    std::vector<Matrix> adam_m;
    std::vector<Matrix> adam_v;
    int64_t adam_steps = 0;
    uint64_t version = 0;  ///< Weight version the snapshot was taken at.
    bool empty() const { return params.empty(); }
  };

  void CaptureSnapshot(WeightSnapshot* snap) const;

  /// Restores a snapshot captured from this network. Bumps version() and
  /// invalidates the packed inference weights (same discipline as
  /// LoadWeights), so every search cache keyed on the net version
  /// drops its entries instead of serving values from the rolled-back-over
  /// weights.
  void RestoreSnapshot(const WeightSnapshot& snap);

  /// True if any parameter holds a NaN or Inf (a diverged or corrupted
  /// optimizer step). Scans all weights; intended for per-retrain health
  /// checks, not per-minibatch hot loops.
  bool HasNonFiniteParams() const;

  /// Deterministically poisons a few weight elements with NaN (keyed by
  /// `key`), bumping version() like any other weight mutation. Fault-
  /// injection hook for the guardrail harness — simulates a corrupting
  /// optimizer step so the health monitor's detection/rollback is testable.
  void DebugPoisonWeights(uint64_t key);

 private:
  /// Re-splits every conv layer's inference weights if training or weight
  /// loading bumped version_ since the last inference call. Thread-safe
  /// (double-checked mutex), so concurrent searches may race to the first
  /// inference after a retrain.
  void SyncInferenceWeights();

  /// Inference conv stack + segmented pooling shared by PredictBatch and the
  /// single-plan prediction path (offsets {0, n} for one tree). Writes the
  /// pooled (N x C) matrix into `pooled` (a ctx buffer — capacity-reused);
  /// every conv layer runs the fused bias/suffix/side/leaky-ReLU epilogue,
  /// so with a warmed ctx the whole pass performs zero heap allocations.
  void InferencePooledInto(const TreeStructure& tree,
                           const Matrix& node_features,
                           const Matrix& query_embedding,
                           const std::vector<int>& offsets,
                           InferenceContext* ctx, Matrix* pooled);

  /// Records `live_bytes` plus every layer's retained training scratch into
  /// the peak-scratch high-water mark.
  void NoteScratchPeak(size_t live_bytes);

  /// All trainable parameters in CollectParams order (query stack, conv
  /// stack, head) — the canonical ordering shared by Save/LoadWeights, the
  /// Adam constructor, and the snapshot ring.
  std::vector<Param*> AllParams() const;

  ValueNetConfig config_;
  util::Rng rng_;
  Sequential query_stack_;
  std::vector<TreeConv> convs_;
  DynamicPooling pool_;
  Sequential head_;
  std::unique_ptr<Adam> adam_;
  uint64_t version_ = 0;
  std::atomic<uint64_t> inference_weights_version_{~0ULL};
  std::mutex inference_sync_mu_;
  InferenceContext default_ctx_;
  /// Shared gather/GEMM scratch for the training conv stack, reused across
  /// layers and steps.
  TreeConv::TrainScratch train_scratch_;
  /// Member-owned TrainBatch buffers (capacity-reused across steps so the
  /// steady-state training step performs zero heap allocations).
  PlanBatch train_batch_;            ///< Packed minibatch forest.
  Matrix train_query_vecs_;          ///< (B x query_dim) stacked query vecs.
  Matrix train_embeds_;              ///< (B x embed_dim) query embeddings.
  std::vector<int> train_node_seg_;  ///< Node row -> sample index.
  std::vector<Matrix> train_post_;   ///< Per-conv-layer post-activations.
  Matrix train_pooled_;              ///< Pooled (B x C) forward output.
  Matrix train_head_out_;            ///< Head (B x 1) predictions.
  Matrix train_grad_out_;            ///< (B x 1) dLoss/dPred.
  Matrix train_grad_pooled_;         ///< Pool-backward input gradient.
  Matrix train_grad_nodes_;          ///< Node-gradient ping buffer.
  Matrix train_grad_nodes_tmp_;      ///< Node-gradient pong buffer.
  Matrix train_grad_embeds_;         ///< (B x embed_dim) embedding grads.
  PipelineScratch train_pipe_;       ///< Query/head pipeline ping-pong bufs.
  float leaky_alpha_;
  int embed_dim_ = 0;
  int total_conv_channels_ = 0;
  size_t peak_train_scratch_ = 0;
};

}  // namespace neo::nn
