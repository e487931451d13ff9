// DNN-guided best-first plan search (paper §4.2).
//
// The search state is a partial plan (forest). A min-heap ordered by the
// value network's prediction repeatedly expands the most promising state.
// Children either (a) specify an unspecified root scan as a table or index
// scan, or (b) join two fully-specified roots with one of the three join
// operators in either orientation (orientation matters: probe/build,
// outer/inner). The search is *anytime*: it keeps the best complete plan
// found and stops on an expansion budget or wall-clock cutoff; if the budget
// expires with no complete plan, a greedy "hurry-up" descent (the paper's
// §4.2 fallback, equivalent to Q-learning-style greedy action selection)
// finishes the plan.
//
// Inference batching: all children of one expansion round are scored in a
// single value-network forward pass (Featurizer::EncodePlanBatch packs them
// into one forest; ValueNetwork::PredictBatch runs each layer as one large
// GEMM). A per-query LRU score cache keyed by (plan hash, network version)
// ensures the hurry-up descent and re-expansions never re-evaluate a plan
// already scored, while SearchOptions::score_cache_cap bounds its footprint
// on very large joins.
//
// Concurrent searches
// -------------------
// One search runs on one thread. Parallelism comes from running several
// searches at once (Neo::RunEpisode's planners, ServingCore workers), one
// PlanSearch per thread. PlanSearch holds all mutable state (score cache,
// activation cache, scratch, the query-embedding and network inference
// contexts), and network inference writes only that scratch (plus a
// once-per-version, mutex-guarded weight-split refresh), so distinct
// instances may run FindPlan concurrently against one shared
// ValueNetwork/Featurizer as long as no training runs at the same time.
//
// Activation cache (incremental tree-conv inference)
// --------------------------------------------------
// A child plan differs from its parent by one specified leaf or one appended
// join; every other node's subtree — and therefore its per-layer conv
// activation, which is a pure function of the subtree's features and the
// (query embedding, weights) — is unchanged. PlanSearch keeps a second
// exact-LRU map from PlanNode::subtree_fp (subtree shape + ops + tables +
// rel_masks) to the node's concatenated post-activation rows of every conv
// layer. Each batched scoring pass probes it per packed node row: hits are
// copied in, misses ("dirty" rows — for a one-node delta, the root-to-leaf
// spine plus the new node, O(depth) of O(nodes)) run a row-restricted
// gather/GEMM/scatter and are inserted afterwards.
//
// Keying/invalidation model: entries are valid only for the (query
// fingerprint, network version, kernel dispatch arm, encoding epoch) tuple
// tracked by SyncCache — the same discipline as the score cache — because
// activations depend on the query embedding (layer 0's shared-suffix
// projection) and the weights. Any mismatch drops the whole cache;
// SearchOptions::activation_cache_cap bounds its footprint (one entry holds
// ValueNetwork::TotalConvChannels() floats). A search bound to
// SharedSearchCaches folds the tuple into a key salt instead and never
// drops anything (see SharedSearchCaches). Row values are bit-identical to
// the full pass (MatMul rows are position-independent), so the incremental
// path changes no search outcome.
//
// ---- Memory model (zero-alloc steady state) --------------------------------
// Every per-round buffer of FindPlan/ScoreAll is instance-owned and capacity-
// reused: the state arena, heap, visited set (util::FlatHashSet64), child and
// miss scratch, score vectors, and the activation slab (a util::Arena, reset
// per scoring round to one high-water block). The NN-eval portion of a round
// — activation-cache probing plus the batched forward — runs inside
// util::AllocRegionScope, and with a warmed search the network's Into-paths
// allocate nothing (see the memory-model notes atop value_network.h); bench
// harnesses report the counted allocations as steady_state_heap_allocs.
// Plan-node construction (Children's shared_ptr trees) is intentionally
// OUTSIDE the counted region: it is proportional to new states discovered,
// not to NN work, and vanishes as caches warm.
#pragma once

#include "src/featurize/featurizer.h"
#include "src/nn/value_network.h"
#include "src/plan/plan.h"
#include "src/util/arena.h"
#include "src/util/flat_hash_set.h"
#include "src/util/lru_map.h"
#include "src/util/row_cache.h"

namespace neo::core {

/// Process-global promotion of PlanSearch's per-instance score/activation
/// caches, shared by every concurrent search of a serving core. Each tier is
/// a util::RowCache: a flat, fixed-capacity, 8-way set-associative table of
/// fixed-width float rows with one mutex per stripe of sets. Scores are rows
/// of width 1; the activation tiers hold ValueNetwork::TotalConvChannels()
/// floats per row (`row_width`, checked against the bound network when a
/// search salts its binding). Entries are keyed by HashCombine(local key,
/// salt) where the salt folds in (query fingerprint, net version, kernel
/// dispatch arm, RCU weight generation, encoding epoch) — so searches of
/// different queries, different weight snapshots, or different standby nets
/// of the SAME version can coexist in one table without ever serving each
/// other stale values, and invalidation is free (stale entries are never
/// probed again and are evicted as their sets fill). The tables are never
/// cleared.
/// Rows are copied out under the stripe lock into the probing search's
/// private slab, so no pointer into a table escapes and an eviction never
/// changes rows mid-forward.
struct SharedSearchCaches {
  /// Caps count entries per tier (see util::RowCache for the rounding);
  /// `stripes` is the lock-stripe count of each tier.
  SharedSearchCaches(size_t row_width, size_t score_cap, size_t activation_cap,
                     int stripes = 16, size_t leaf_cap = 0)
      : scores(/*width=*/1, score_cap, stripes),
        activations(row_width, activation_cap, stripes),
        leaf_activations(row_width, leaf_cap == 0 ? activation_cap : leaf_cap,
                         stripes) {}

  util::RowCache scores;
  util::RowCache activations;
  /// Cross-request tier for small-subtree (<= 3 node: leaves and first joins)
  /// activation entries — the rows every search recomputes in its first
  /// expansion rounds. Keyed by HashCombine(subtree_fp, leaf salt) where the
  /// leaf salt folds in the BIT PATTERN of the query embedding (activations'
  /// true query dependency: layer 0 adds the embedding's suffix projection to
  /// every row) plus (net version, kernel arm, RCU generation), instead of
  /// the query fingerprint — so any two requests whose embeddings coincide
  /// bitwise (the same query re-served, under any request or search instance)
  /// share these rows. Only valid when node features are a pure function of
  /// the subtree fingerprint (FeaturizerConfig::card_channel == kNone; query-
  /// dependent cardinality channels would alias under one fp) — PlanSearch
  /// gates on that. A separate table so the high-reuse small entries are
  /// never evicted by the churn of deep-plan rows in `activations`.
  util::RowCache leaf_activations;
};

struct SearchOptions {
  /// Heap pops before giving up (0: hurry-up only; < 0: unlimited).
  int max_expansions = 60;
  double time_cutoff_ms = 0.0;  ///< Wall-clock cutoff (0 = disabled).
  bool early_stop = true;       ///< Stop when heap top >= best complete score.
  /// Max entries in the per-query score cache (<= 0: unbounded). Evicted
  /// plans are simply re-scored on the next encounter.
  int score_cache_cap = 64 * 1024;
  /// Max node entries in the activation cache (<= 0: unbounded). An evicted
  /// node's rows are simply recomputed on the next encounter.
  int activation_cache_cap = 64 * 1024;
};

struct SearchResult {
  plan::PartialPlan plan;
  float predicted_cost = 0.0f;
  int expansions = 0;
  size_t evaluations = 0;  ///< Real value-network forward passes (cache misses).
  size_t cache_hits = 0;   ///< Scores served from the per-query score cache.
  /// Score-cache evictions this search caused: forced by score_cache_cap on
  /// the private cache, or by the shared score tier's capacity
  /// (ServingOptions::shared_score_cap) when a SharedSearchCaches is bound.
  size_t cache_evictions = 0;
  size_t activation_hits = 0;  ///< Packed node rows served by the activation cache.
  /// Of activation_hits, rows served by the shared small-subtree tier
  /// (SharedSearchCaches::leaf_activations) after a main-cache miss — i.e.
  /// first-expansion recomputation another request's search already paid for.
  size_t leaf_tier_hits = 0;
  /// Conv rows computed vs. served from cache, summed over layers (a node hit
  /// saves one row in EVERY conv layer, so these are activation-miss/hit node
  /// counts x num conv layers). rows_reused / (rows_reused + rows_recomputed)
  /// is the conv-flop reuse rate of the search.
  size_t rows_recomputed = 0;
  size_t rows_reused = 0;
  double wall_ms = 0.0;
  bool hurried = false;  ///< Completed via hurry-up mode.
};

class PlanSearch {
 public:
  PlanSearch(const featurize::Featurizer* featurizer, nn::ValueNetwork* net)
      : featurizer_(featurizer), net_(net) {}

  PlanSearch(PlanSearch&&) = default;
  PlanSearch& operator=(PlanSearch&&) = default;

  SearchResult FindPlan(const query::Query& query, const SearchOptions& options);

  /// Child states of a partial plan (exposed for tests / the ablation
  /// bench's pure-greedy mode).
  std::vector<plan::PartialPlan> Children(const query::Query& query,
                                          const plan::PartialPlan& plan) const;

  /// Fills `out` with the child states (cleared first). Reusing one vector
  /// across expansions avoids a fresh allocation per heap pop.
  void ChildrenInto(const query::Query& query, const plan::PartialPlan& plan,
                    std::vector<plan::PartialPlan>* out) const;

  /// Greedy descent: repeatedly takes the best-scored child ("hurry-up"
  /// from the start state == Q-learning-style planning, §4.2).
  SearchResult GreedyPlan(const query::Query& query);

  /// Switches this search onto process-global caches (nullptr reverts to the
  /// private per-instance LRUs). `generation` is the RCU weight-snapshot
  /// generation folded into the cache salt; it must change whenever the
  /// bound network's weights could alias another generation's version
  /// number (standby nets reuse version counters). Invalidates the local
  /// validity tuple so the next search re-salts.
  void SetSharedCaches(SharedSearchCaches* caches, uint64_t generation) {
    shared_ = caches;
    shared_generation_ = generation;
    cache_valid_ = false;
  }

  /// Re-points this search at another network (the serving core acquires an
  /// RCU snapshot per request). The caller must pair this with
  /// SetSharedCaches' generation for correct cache salting.
  void Rebind(nn::ValueNetwork* net) {
    net_ = net;
    cache_valid_ = false;
  }

 private:
  float Score(const query::Query& query, const nn::Matrix& query_embedding,
              const plan::PartialPlan& plan, const SearchOptions& options,
              SearchResult* result);

  /// Single-plan forward pass + cache insert for a plan whose hash is
  /// already known to miss the cache (the initial state's score).
  float ScoreUncached(const query::Query& query, const nn::Matrix& query_embedding,
                      const plan::PartialPlan& plan, uint64_t hash,
                      SearchResult* result);

  /// Scores `plans` into `out` (resized; capacity-reused), serving cached
  /// entries and batching the misses into one incremental PredictBatch call
  /// (activation-cache hits served, dirty rows computed). `hashes`, when
  /// non-null, supplies plans[i].Hash() values the caller already computed
  /// (Hash() allocates and sorts, so it is worth reusing).
  void ScoreAll(const query::Query& query, const nn::Matrix& query_embedding,
                const std::vector<plan::PartialPlan>& plans,
                const std::vector<uint64_t>* hashes, const SearchOptions& options,
                SearchResult* result, std::vector<float>* out);

  /// Drops the score + activation caches unless they match (query, network
  /// version, kernel dispatch arm, encoding epoch).
  void SyncCache(const query::Query& query, const SearchOptions& options);

  const featurize::Featurizer* featurizer_;
  nn::ValueNetwork* net_;

  /// Per-query score cache (plan hash -> predicted cost); valid only for
  /// (cache_query_fp_, cache_version_, cache_kernel_isa_,
  /// cache_encoding_epoch_) and cleared on any mismatch. Keyed by
  /// Query::fingerprint (content hash), not Query::id, so distinct queries
  /// that share an id (or the -1 default) never read each other's scores; the
  /// GEMM dispatch arm is part of the key so bench/test arms on one instance
  /// never mix kernel paths (arms differ by accumulation-order ulps, and
  /// within-arm bit-identity is the contract).
  util::LruMap<uint64_t, float> score_cache_;
  /// Per-query activation cache (PlanNode::subtree_fp -> concatenated
  /// per-layer post-activation rows); same validity tuple as score_cache_
  /// (see the activation-cache notes at the top of this header).
  util::LruMap<uint64_t, std::vector<float>> activation_cache_;
  uint64_t cache_version_ = 0;
  uint64_t cache_query_fp_ = 0;
  size_t cache_cap_ = 0;
  size_t act_cache_cap_ = 0;
  nn::KernelIsa cache_kernel_isa_ = nn::KernelIsa::kPortable;
  /// Featurizer::encoding_epoch() at cache build: the experience store's
  /// cardinality corrections change plan encodings, so the epoch joins the
  /// validity tuple (and the shared-cache salt) exactly like net version.
  uint64_t cache_encoding_epoch_ = 0;
  bool cache_valid_ = false;

  /// Serving-mode seam (null outside a serving core): the process-global
  /// row caches, plus the salt mixing (query fp, net version, kernel arm,
  /// weight generation, encoding epoch) into every shared-cache key.
  /// SyncCache recomputes the salt on any tuple change; in shared mode the
  /// private LRUs above go unused.
  SharedSearchCaches* shared_ = nullptr;
  uint64_t shared_generation_ = 0;
  uint64_t salt_ = 0;
  /// Shared leaf-tier salt for the current FindPlan: Mix64 over (query
  /// embedding bit-pattern hash, net version, kernel arm, generation).
  /// Recomputed per FindPlan after EmbedQueryInto; leaf_tier_enabled_ gates
  /// the tier on shared mode + a fingerprint-pure featurizer (card_channel
  /// == kNone).
  uint64_t leaf_salt_ = 0;
  bool leaf_tier_enabled_ = false;

  /// Per-instance network scratch, so concurrent PlanSearch workers never
  /// share inference buffers: the query-stack pipeline scratch and
  /// embedding output, and the conv/head inference context.
  nn::PipelineScratch embed_scratch_;
  nn::Matrix embed_;
  nn::ValueNetwork::InferenceContext net_ctx_;

  /// Scratch reused across expansions (children, batch encoding buffers, and
  /// the cache-miss bookkeeping of ScoreAll).
  std::vector<plan::PartialPlan> child_scratch_;
  std::vector<uint64_t> child_hash_scratch_;
  nn::PlanBatch batch_scratch_;
  std::vector<const plan::PartialPlan*> miss_scratch_;
  std::vector<size_t> miss_idx_scratch_;
  std::vector<uint64_t> miss_hash_scratch_;
  /// Incremental-path scratch: the per-row cached/store pointer views handed
  /// to PredictBatch, the bump-pointer arena the per-round activation slab is
  /// carved from (reset per round; Reset coalesces to one high-water block,
  /// so the steady state allocates nothing — rows are inserted into
  /// activation_cache_ after the forward pass, never during it, so eviction
  /// cannot invalidate in-use cached pointers), the per-batch fingerprint
  /// dedup for those inserts, and per-row packed-forest subtree sizes for the
  /// leaf-tier gate.
  nn::ActivationReuse reuse_scratch_;
  util::Arena slab_arena_;
  util::FlatHashSet64 act_seen_scratch_;
  std::vector<int> subtree_size_scratch_;

  /// FindPlan round state, hoisted so repeated searches on one instance reuse
  /// capacity instead of reallocating per request.
  struct HeapEntry {
    float score;
    size_t idx;
    bool operator>(const HeapEntry& o) const { return score > o.score; }
  };
  std::vector<plan::PartialPlan> state_arena_;
  std::vector<HeapEntry> heap_;
  util::FlatHashSet64 visited_;
  std::vector<float> scores_scratch_;
  std::vector<float> predicted_scratch_;

 public:
  /// Peak bytes of the per-round activation slab arena (bench reporting).
  size_t activation_slab_peak_bytes() const { return slab_arena_.peak_bytes(); }
};

}  // namespace neo::core
