// DNN-guided best-first plan search (paper §4.2).
//
// The search state is a partial plan (forest). A min-heap ordered by the
// value network's prediction repeatedly expands the most promising state.
// Children either (a) specify an unspecified root scan as a table or index
// scan, or (b) join two fully-specified roots with one of the three join
// operators in either orientation (orientation matters: probe/build,
// outer/inner). The search is *anytime*: it keeps the best complete plan
// found and stops on an expansion budget; if the budget expires with no
// complete plan, a greedy "hurry-up" descent (the paper's §4.2 fallback,
// equivalent to Q-learning-style greedy action selection) finishes the plan.
//
// Scoring: all children of one expansion round are scored together, through
// the subtree table below, and the value network's FC head runs once over the
// round's plans. The best-first phase scores each state once (children are
// deduplicated against the states already seen). The hurry-up descent
// re-scores children the best-first phase already scored: every subtree of
// such a plan is already a table row, so a re-score costs a pool and a head
// row, no conv row. A search bound to a shared score cache (BindScoreCache;
// the serving core's workers) probes it first and inserts every score it
// computes, under keys salted once per search (see Validity), so repeat
// requests across workers are served without a forward pass.
//
// Concurrent searches
// -------------------
// One search runs on one thread. Parallelism comes from running several
// searches at once (Neo::RunEpisode's planners, ServingCore workers), one
// PlanSearch per thread. PlanSearch holds all mutable state (subtree table,
// scratch, the query-embedding and network inference contexts), and network
// inference writes only that scratch (plus a once-per-version, mutex-guarded
// weight-split refresh), so distinct instances may run FindPlan concurrently
// against one shared ValueNetwork/Featurizer as long as no training runs at
// the same time. The bound score cache is the one structure they share; it
// copies scores out under a lock (util::ScoreCache).
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
// Validity: the table belongs to one search. BeginSearch clears it and salts
// the score-cache keys once, from (query fingerprint, network version, kernel
// dispatch arm, RCU generation). Nothing a search reads changes before
// FindPlan returns: the featurizer's encodings are pure functions of the
// query and the plan, and the network's weights are fixed while it searches
// (an RCU snapshot, or the primary network with no training running). So no
// scoring round re-checks anything, and nothing survives a FindPlan call
// except buffer capacity. The table's size is bounded by the search's own
// work: a scored child adds at most one new root-to-leaf spine, so it needs no
// cap. One table per PlanSearch, so it takes no lock.
//
// ---- Memory model (zero-alloc steady state) --------------------------------
// Every per-round buffer of FindPlan/ScoreAll is instance-owned and capacity-
// reused: the state arena, heap, visited set (util::FlatHashSet64), child and
// miss scratch, score vectors, and the subtree table (BeginSearch's Clear
// keeps its slot array and row matrices). A scoring round — intern,
// featurize, conv, pool, head — runs inside util::AllocRegionScope, and with
// a warmed search it allocates nothing (see the memory-model notes atop
// value_network.h); bench harnesses report the counted allocations as
// steady_state_heap_allocs.
// Plan-node construction (Children's shared_ptr trees) and score-cache
// probes and inserts are intentionally OUTSIDE the counted region: they are
// proportional to new states discovered, not to NN work (the cache's slots
// are allocated up front anyway).
#pragma once

#include "src/featurize/featurizer.h"
#include "src/nn/value_network.h"
#include "src/plan/plan.h"
#include "src/util/flat_hash_set.h"
#include "src/util/score_cache.h"

namespace neo::core {

struct SearchOptions {
  /// Heap pops before giving up (0: hurry-up only; < 0: unlimited).
  int max_expansions = 60;
  bool early_stop = true;  ///< Stop when heap top >= best complete score.
};

struct SearchResult {
  plan::PartialPlan plan;
  float predicted_cost = 0.0f;
  int expansions = 0;
  /// Plans scored by the value network (bound score-cache misses): a head
  /// row each, plus conv rows for subtrees new to the search. An unbound
  /// search counts its hurry-up re-scores here too.
  size_t evaluations = 0;
  size_t cache_hits = 0;  ///< Scores served from the bound score cache.
  /// Bound score-cache evictions this search caused, forced by the cache's
  /// capacity (ServingOptions::shared_score_cap in a serving core).
  size_t cache_evictions = 0;
  /// Node rows of the scored plans served from the subtree table (rows an
  /// earlier plan of this search already computed).
  size_t activation_hits = 0;
  /// Always 0: no cache serves rows across searches. Kept so existing
  /// readers compile.
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

  /// Binds a shared score cache (nullptr: unbound, the default). Every
  /// search then probes it before scoring and inserts what it scores, under
  /// keys salted with `generation`, the RCU weight-snapshot generation: it
  /// must change whenever the bound network's weights could alias another
  /// generation's version number (standby nets reuse version counters).
  void BindScoreCache(util::ScoreCache* cache, uint64_t generation) {
    score_cache_ = cache;
    generation_ = generation;
  }

  /// Re-points this search at another network (the serving core acquires an
  /// RCU snapshot per request). The caller must pair this with
  /// BindScoreCache's generation for correct cache salting.
  void Rebind(nn::ValueNetwork* net) { net_ = net; }

 private:
  friend class PlanSearchTestPeer;

  /// Prepares a search of `query`: embeds it, projects the embedding for
  /// the conv stack, clears the subtree table and salts the score-cache keys
  /// for (query, network, kernel arm, generation).
  void BeginSearch(const query::Query& query);

  /// Scores `plans` into `out` (resized; capacity-reused): bound score-cache
  /// hits are served, and the rest are scored as one round through the
  /// subtree table and one head pass. `hashes`, when non-null, supplies
  /// plans[i].Hash() values the caller already computed.
  void ScoreAll(const query::Query& query,
                const std::vector<plan::PartialPlan>& plans,
                const std::vector<uint64_t>* hashes, SearchResult* result,
                std::vector<float>* out);

  /// Row of `node`'s subtree, interning (and featurizing) it and every
  /// subtree under it that the table lacks.
  int Intern(const query::Query& query, const plan::PlanNode& node);

  const featurize::Featurizer* featurizer_;
  nn::ValueNetwork* net_;

  /// Distinct subtrees of the current search.
  SubtreeTable table_;

  /// The bound shared score cache (null: unbound) and the salt mixing
  /// (query fp, net version, kernel arm, generation_) into each of its keys.
  util::ScoreCache* score_cache_ = nullptr;
  uint64_t generation_ = 0;
  uint64_t salt_ = 0;

  /// Per-instance network scratch, so concurrent PlanSearch workers never
  /// share inference buffers: the query-stack pipeline scratch and
  /// embedding output, the embedding's conv projection (once per search),
  /// and the conv/head inference context.
  nn::PipelineScratch embed_scratch_;
  nn::Matrix embed_;
  nn::TreeConv::SuffixProjection query_proj_;
  nn::ValueNetwork::InferenceContext net_ctx_;

  /// Scratch reused across expansions: children and their hashes, the plans
  /// of a round the score cache missed and their salted keys, the misses'
  /// root rows, the new rows to run through the conv stack, and the pooled
  /// plans.
  std::vector<plan::PartialPlan> child_scratch_;
  std::vector<uint64_t> child_hash_scratch_;
  std::vector<size_t> miss_idx_scratch_;
  std::vector<uint64_t> miss_key_scratch_;
  std::vector<int> root_rows_scratch_;
  std::vector<int> conv_rows_scratch_;
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
