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
// Scoring: all children of one expansion round are scored together. A
// per-query LRU score cache keyed by (plan hash, network version) ensures the
// hurry-up descent and re-expansions never re-evaluate a plan already scored,
// while SearchOptions::score_cache_cap bounds its footprint on very large
// joins. The plans that miss it are scored through the subtree table below,
// and the value network's FC head runs once over the round's plans.
//
// Concurrent searches
// -------------------
// One search runs on one thread. Parallelism comes from running several
// searches at once (Neo::RunEpisode's planners, ServingCore workers), one
// PlanSearch per thread. PlanSearch holds all mutable state (score cache,
// subtree table, scratch, the query-embedding and network inference
// contexts), and network inference writes only that scratch (plus a
// once-per-version, mutex-guarded weight-split refresh), so distinct
// instances may run FindPlan concurrently against one shared
// ValueNetwork/Featurizer as long as no training runs at the same time.
//
// Subtree table (each distinct subtree scored once per search)
// ------------------------------------------------------------
// A child plan differs from its parent by one specified leaf or one appended
// join; every other subtree is shared. A node's feature row, its per-layer
// conv rows and the max-pool over its subtree are pure functions of the
// subtree and the (query, weights). So the search interns every subtree it
// scores into a SubtreeTable keyed by PlanNode::subtree_fp: one row per
// distinct subtree holding its child rows, feature row, every conv layer's
// post-activation row and its last-layer max-pool. A scoring round interns
// each plan's roots children first (a table hit ends the descent),
// featurizes only the new rows (Featurizer::EncodeNode from the children's
// rows), runs each conv layer once over the new rows
// (ValueNetwork::ForwardRows; layer 0 reads the query projection computed
// once per search), pools each new row as a running strict-> max over (its
// own last-layer row, the left pool, the right pool), pools each plan the
// same way over its roots in root order, and runs the head once over the
// round's plans. That is the order in which the full pass's DynamicPooling
// visits a plan's pre-order rows, and every GEMM row is position-
// independent, so every score is bit-identical to ValueNetwork::PredictBatch
// over the encoded plans (for finite rows; NaN rows pool differently).
//
// Validity: the table belongs to one search. It is cleared at the start of
// every FindPlan and whenever SyncCache sees the validity tuple (query
// fingerprint, network version, kernel dispatch arm, encoding epoch) change.
// Its size is bounded by the search's own work: a scored child adds at most
// one new root-to-leaf spine, so the table needs no cap. One table per
// PlanSearch, so it takes no lock.
//
// ---- Memory model (zero-alloc steady state) --------------------------------
// Every per-round buffer of FindPlan/ScoreAll is instance-owned and capacity-
// reused: the state arena, heap, visited set (util::FlatHashSet64), child and
// miss scratch, score vectors, and the subtree table (Clear keeps its slot
// array and row matrices). A scoring round — intern, featurize, conv, pool,
// head — runs inside util::AllocRegionScope, and with a warmed search it
// allocates nothing (see the memory-model notes atop value_network.h); bench
// harnesses report the counted allocations as steady_state_heap_allocs.
// Plan-node construction (Children's shared_ptr trees) and score-cache
// inserts are intentionally OUTSIDE the counted region: they are
// proportional to new states discovered, not to NN work.
#pragma once

#include "src/featurize/featurizer.h"
#include "src/nn/value_network.h"
#include "src/plan/plan.h"
#include "src/util/flat_hash_set.h"
#include "src/util/lru_map.h"
#include "src/util/row_cache.h"

namespace neo::core {

/// Process-global caches shared by every concurrent search of a serving
/// core. Each tier is a util::RowCache: a flat, fixed-capacity, 8-way
/// set-associative table of fixed-width float rows with one mutex per stripe
/// of sets. Rows are copied out under the stripe lock into the probing
/// search's own buffers, so no pointer into a table escapes and an eviction
/// never changes rows mid-forward. The tables are never cleared: keys are
/// salted, stale entries are never probed again and are evicted as their
/// sets fill.
struct SharedSearchCaches {
  /// Caps count entries per tier (see util::RowCache for the rounding);
  /// `stripes` is the lock-stripe count of each tier.
  SharedSearchCaches(size_t row_width, size_t score_cap, size_t leaf_cap,
                     int stripes = 16)
      : scores(/*width=*/1, score_cap, stripes),
        leaf_activations(row_width, leaf_cap, stripes) {}

  /// Plan scores (rows of width 1), keyed by HashCombine(plan hash, salt)
  /// where the salt folds in (query fingerprint, net version, kernel
  /// dispatch arm, RCU weight generation, encoding epoch) — so searches of
  /// different queries, weight snapshots, or standby nets of the SAME
  /// version coexist without ever serving each other stale values.
  util::RowCache scores;
  /// Cross-request tier for small subtrees (<= 3 nodes: leaves and first
  /// joins), the rows every search recomputes in its first expansion
  /// rounds. A row holds every conv layer's rows of one subtree
  /// (ValueNetwork::TotalConvChannels() floats, `row_width`, checked against
  /// the bound network). Keyed by HashCombine(subtree_fp, leaf salt) where
  /// the leaf salt folds in the BIT PATTERN of the query embedding (the
  /// rows' true query dependency: layer 0 adds the embedding's projection to
  /// every row) plus (net version, kernel arm, RCU generation), instead of
  /// the query fingerprint — so any two requests whose embeddings coincide
  /// bitwise share these rows. Only valid when node features are a pure
  /// function of the subtree fingerprint (FeaturizerConfig::card_channel ==
  /// kNone; query-dependent cardinality channels would alias under one fp)
  /// — PlanSearch gates on that.
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
  /// Node rows of the scored plans served from the subtree table (rows an
  /// earlier plan of this search already computed) or the shared leaf tier.
  size_t activation_hits = 0;
  /// Of activation_hits, rows served by the shared small-subtree tier
  /// (SharedSearchCaches::leaf_activations) for subtrees new to this search —
  /// i.e. first-expansion rows another request's search already paid for.
  size_t leaf_tier_hits = 0;
  /// Conv rows computed vs. served, summed over layers (a served node saves
  /// one row in EVERY conv layer, so these are node counts x num conv
  /// layers). Each distinct subtree is computed once per search.
  /// rows_reused / (rows_reused + rows_recomputed) is the conv-flop reuse
  /// rate of the search.
  size_t rows_recomputed = 0;
  size_t rows_reused = 0;
  double wall_ms = 0.0;
  bool hurried = false;  ///< Completed via hurry-up mode.
};

/// The search-local table of distinct subtrees (see "Subtree table" above):
/// an open-addressing map from PlanNode::subtree_fp to a row, plus the rows'
/// child links, node counts, features, per-layer conv rows and pools. Rows
/// only grow between Clears, and a row's children always precede it.
class SubtreeTable {
 public:
  /// Drops every row, keeping capacity (a warm table allocates nothing).
  /// `plan_dim` and `layer_widths` set the row widths; a change of either
  /// releases the row capacity.
  void Clear(int plan_dim, const std::vector<int>& layer_widths);

  /// Row of `fp`, or -1.
  int Find(uint64_t fp) const;

  /// Appends a row for `fp` (not yet present) with child rows `left` and
  /// `right` (-1: none) and returns it. Features, layer rows and the pool
  /// of the new row are left for the caller to fill.
  int Add(uint64_t fp, int left, int right);

  int size() const { return static_cast<int>(nodes.size()); }
  /// High-water bytes of the slot array and the row storage.
  size_t peak_bytes() const { return peak_bytes_; }

  std::vector<uint64_t> fp;        ///< Each row's PlanNode::subtree_fp.
  nn::TreeStructure tree;          ///< Child rows of each row (-1: none).
  std::vector<int> nodes;          ///< Node count of each row's subtree.
  nn::Matrix features;             ///< (rows x plan_dim) feature rows.
  std::vector<nn::Matrix> layers;  ///< Per conv layer: (rows x width) rows.
  nn::Matrix pool;                 ///< (rows x last width) subtree max-pools.

 private:
  struct Slot {
    uint64_t fp;
    int row;  ///< -1: empty.
  };
  void Rehash(size_t slots);
  void GrowRows(int rows);
  void NotePeak();

  std::vector<Slot> slots_;
  int row_capacity_ = 0;
  size_t peak_bytes_ = 0;
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
  /// private per-instance score LRU). `generation` is the RCU weight-snapshot
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
  friend class PlanSearchTestPeer;

  /// Prepares a search of `query`: embeds it, projects the embedding for
  /// the conv stack, salts the leaf tier, and clears the subtree table.
  void BeginSearch(const query::Query& query);

  /// Scores `plans` into `out` (resized; capacity-reused): score-cache hits
  /// are served, and the misses are scored as one round through the subtree
  /// table and one head pass. `hashes`, when non-null, supplies
  /// plans[i].Hash() values the caller already computed.
  void ScoreAll(const query::Query& query,
                const std::vector<plan::PartialPlan>& plans,
                const std::vector<uint64_t>* hashes, const SearchOptions& options,
                SearchResult* result, std::vector<float>* out);

  /// Row of `node`'s subtree, interning (and featurizing) it and every
  /// subtree under it that the table lacks.
  int Intern(const query::Query& query, const plan::PlanNode& node);

  /// Drops the score cache and the subtree table unless they match (query,
  /// network version, kernel dispatch arm, encoding epoch).
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
  /// Distinct subtrees of the current search; same validity tuple as
  /// score_cache_, and also cleared per FindPlan.
  SubtreeTable table_;
  uint64_t cache_version_ = 0;
  uint64_t cache_query_fp_ = 0;
  size_t cache_cap_ = 0;
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
  /// private score LRU above goes unused.
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
  /// embedding output, the embedding's conv projection (once per search),
  /// and the conv/head inference context.
  nn::PipelineScratch embed_scratch_;
  nn::Matrix embed_;
  nn::TreeConv::SuffixProjection query_proj_;
  nn::ValueNetwork::InferenceContext net_ctx_;

  /// Scratch reused across expansions: children and their hashes, the
  /// score-cache misses of a round, the misses' root rows, the new rows to
  /// run through the conv stack, one leaf-tier row, and the pooled plans.
  std::vector<plan::PartialPlan> child_scratch_;
  std::vector<uint64_t> child_hash_scratch_;
  std::vector<size_t> miss_idx_scratch_;
  std::vector<uint64_t> miss_hash_scratch_;
  std::vector<int> root_rows_scratch_;
  std::vector<int> conv_rows_scratch_;
  std::vector<float> leaf_row_scratch_;
  nn::Matrix pooled_scratch_;

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
  /// Peak bytes of the subtree table (bench reporting).
  size_t subtree_table_peak_bytes() const { return table_.peak_bytes(); }
};

}  // namespace neo::core
