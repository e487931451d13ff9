#include "src/core/search.h"

#include <algorithm>
#include <cstring>

#include "src/engine/latency_model.h"
#include "src/util/alloc_counter.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace neo::core {

namespace {

/// Path-copies `root`, replacing the (unique) node `target` with
/// `replacement`. Returns nullptr if `target` is not in this tree.
plan::NodeRef ReplaceNode(const plan::NodeRef& root, const plan::PlanNode* target,
                          const plan::NodeRef& replacement) {
  if (root.get() == target) return replacement;
  if (!root->is_join) return nullptr;
  if (plan::NodeRef l = ReplaceNode(root->left, target, replacement)) {
    return plan::MakeJoin(root->join_op, l, root->right);
  }
  if (plan::NodeRef r = ReplaceNode(root->right, target, replacement)) {
    return plan::MakeJoin(root->join_op, root->left, r);
  }
  return nullptr;
}

/// First unspecified leaf in pre-order (or nullptr).
const plan::PlanNode* FirstUnspecified(const plan::PlanNode& node) {
  if (!node.is_join) {
    return node.scan_op == plan::ScanOp::kUnspecified ? &node : nullptr;
  }
  if (node.num_unspecified == 0) return nullptr;
  if (const plan::PlanNode* l = FirstUnspecified(*node.left)) return l;
  return FirstUnspecified(*node.right);
}

/// Largest subtree (in packed-forest nodes) eligible for the shared leaf
/// tier: leaves and first-order joins — the rows every fresh search
/// recomputes in its first expansion rounds.
constexpr int kLeafTierMaxNodes = 3;

/// Kernel dispatch arm folded into every shared-cache salt (bits 2+; bit 1
/// is unused); the low tag bit keeps any salt from colliding with a raw
/// fingerprint.
uint64_t KernelModeBits() {
  return (static_cast<uint64_t>(nn::ActiveKernelIsa()) << 2) | 1u;
}

}  // namespace

void PlanSearch::ChildrenInto(const query::Query& query,
                              const plan::PartialPlan& plan,
                              std::vector<plan::PartialPlan>* out) const {
  // Children per the paper (§4.2): (a) turn an unspecified scan anywhere in
  // the forest into a table or index scan, (b) merge two roots with a join
  // operator (both orientations: left = probe/outer, right = build/inner).
  //
  // One deviation for tractability: only the *first* unspecified leaf (in
  // pre-order over the forest) may be specified at each step. Every complete
  // plan remains reachable (leaves can be specified in the forced order
  // before/after any join), but the 2^n duplicate intermediate states that
  // arbitrary specification orders generate are gone.
  out->clear();
  const catalog::Schema& schema = featurizer_->schema();
  const size_t n_roots = plan.roots.size();
  // Upper bound: 2 scan specializations per root + 3 join ops per ordered
  // root pair (only the first unspecified leaf is expanded, but reserving the
  // per-root bound keeps this allocation-free for every reachable state).
  out->reserve(2 * n_roots + 3 * n_roots * (n_roots - 1));

  auto with_replaced_root = [&](size_t root_idx, plan::NodeRef new_root) {
    plan::PartialPlan child;
    child.query = plan.query;
    child.roots = plan.roots;
    child.roots[root_idx] = std::move(new_root);
    return child;
  };

  // (a) Specify the first unspecified leaf.
  for (size_t i = 0; i < n_roots; ++i) {
    const plan::PlanNode* leaf = FirstUnspecified(*plan.roots[i]);
    if (leaf == nullptr) continue;
    out->push_back(with_replaced_root(
        i, ReplaceNode(plan.roots[i], leaf,
                       plan::MakeScan(plan::ScanOp::kTable, leaf->table_id,
                                      leaf->rel_mask))));
    if (engine::IndexScanUsable(schema, query, leaf->table_id)) {
      out->push_back(with_replaced_root(
          i, ReplaceNode(plan.roots[i], leaf,
                         plan::MakeScan(plan::ScanOp::kIndex, leaf->table_id,
                                        leaf->rel_mask))));
    }
    break;  // Forced specification order: only the first leaf.
  }

  // (b) Join two roots (any specification state), both orientations.
  constexpr plan::JoinOp kOps[] = {plan::JoinOp::kHash, plan::JoinOp::kMerge,
                                   plan::JoinOp::kLoop};
  auto with_joined = [&](size_t a, size_t b, plan::JoinOp op) {
    plan::PartialPlan child;
    child.query = plan.query;
    child.roots.reserve(n_roots - 1);
    for (size_t i = 0; i < n_roots; ++i) {
      if (i == a || i == b) continue;
      child.roots.push_back(plan.roots[i]);
    }
    child.roots.push_back(plan::MakeJoin(op, plan.roots[a], plan.roots[b]));
    return child;
  };
  for (size_t a = 0; a < n_roots; ++a) {
    for (size_t b = 0; b < n_roots; ++b) {
      if (a == b) continue;
      if (!query.MasksJoinable(plan.roots[a]->rel_mask, plan.roots[b]->rel_mask)) {
        continue;
      }
      for (plan::JoinOp op : kOps) out->push_back(with_joined(a, b, op));
    }
  }
}

std::vector<plan::PartialPlan> PlanSearch::Children(
    const query::Query& query, const plan::PartialPlan& plan) const {
  std::vector<plan::PartialPlan> children;
  ChildrenInto(query, plan, &children);
  return children;
}

SearchResult PlanSearch::GreedyPlan(const query::Query& query) {
  SearchOptions options;
  options.max_expansions = 0;  // Forces immediate hurry-up behavior.
  options.early_stop = false;
  return FindPlan(query, options);
}

void PlanSearch::SyncCache(const query::Query& query, const SearchOptions& options) {
  const size_t cap = options.score_cache_cap > 0
                         ? static_cast<size_t>(options.score_cache_cap)
                         : 0;
  const size_t act_cap = options.activation_cache_cap > 0
                             ? static_cast<size_t>(options.activation_cache_cap)
                             : 0;
  if (cache_valid_ && cache_query_fp_ == query.fingerprint &&
      cache_version_ == net_->version() &&
      cache_kernel_isa_ == nn::ActiveKernelIsa() &&
      cache_encoding_epoch_ == featurizer_->encoding_epoch() &&
      (shared_ != nullptr || (cache_cap_ == cap && act_cache_cap_ == act_cap))) {
    return;
  }
  if (shared_ == nullptr) {
    // A changed cap also rebuilds: re-capping a live LRU is not worth the
    // complexity for an option that changes between searches, not within one.
    // The activation cache shares the validity tuple (its entries depend on
    // the query embedding and the weights exactly like scores do).
    score_cache_.Clear(cap);
    activation_cache_.Clear(act_cap);
    cache_cap_ = cap;
    act_cache_cap_ = act_cap;
  } else {
    // Shared mode: the global tables are never cleared; staleness is
    // handled by re-salting, so entries from other tuples are simply never
    // probed. The kernel bits carry a low tag bit so a (fp, version) pair can
    // never produce the same salt as a raw fingerprint.
    NEO_CHECK(shared_->activations.width() ==
              static_cast<size_t>(net_->TotalConvChannels()));
    salt_ = util::Mix64(util::HashCombine(
        util::HashCombine(
            util::HashCombine(util::HashCombine(query.fingerprint,
                                                net_->version()),
                              KernelModeBits()),
            shared_generation_),
        featurizer_->encoding_epoch()));
  }
  cache_query_fp_ = query.fingerprint;
  cache_version_ = net_->version();
  cache_kernel_isa_ = nn::ActiveKernelIsa();
  cache_encoding_epoch_ = featurizer_->encoding_epoch();
  cache_valid_ = true;
}

float PlanSearch::ScoreUncached(const query::Query& query,
                                const nn::Matrix& query_embedding,
                                const plan::PartialPlan& plan, uint64_t hash,
                                SearchResult* result) {
  ++result->evaluations;
  nn::TreeStructure tree;
  nn::Matrix features;
  featurizer_->EncodePlan(query, plan, &tree, &features);
  const float score =
      net_->PredictWithEmbedding(query_embedding, tree, features, &net_ctx_);
  if (shared_ != nullptr) {
    if (shared_->scores.Insert(util::HashCombine(hash, salt_), &score)) {
      ++result->cache_evictions;
    }
  } else if (score_cache_.Insert(hash, score)) {
    ++result->cache_evictions;
  }
  return score;
}

float PlanSearch::Score(const query::Query& query, const nn::Matrix& query_embedding,
                        const plan::PartialPlan& plan, const SearchOptions& options,
                        SearchResult* result) {
  SyncCache(query, options);
  const uint64_t h = plan.Hash();
  if (shared_ != nullptr) {
    float v = 0.0f;
    if (shared_->scores.Get(util::HashCombine(h, salt_), &v)) {
      ++result->cache_hits;
      return v;
    }
  } else if (const float* hit = score_cache_.Find(h)) {
    ++result->cache_hits;
    return *hit;
  }
  return ScoreUncached(query, query_embedding, plan, h, result);
}

void PlanSearch::ScoreAll(const query::Query& query,
                          const nn::Matrix& query_embedding,
                          const std::vector<plan::PartialPlan>& plans,
                          const std::vector<uint64_t>* hashes,
                          const SearchOptions& options, SearchResult* result,
                          std::vector<float>* out) {
  SyncCache(query, options);
  NEO_CHECK(hashes == nullptr || hashes->size() == plans.size());
  std::vector<float>& scores = *out;
  scores.assign(plans.size(), 0.0f);
  std::vector<const plan::PartialPlan*>& misses = miss_scratch_;
  std::vector<size_t>& miss_idx = miss_idx_scratch_;
  std::vector<uint64_t>& miss_hash = miss_hash_scratch_;
  misses.clear();
  miss_idx.clear();
  miss_hash.clear();
  misses.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    const uint64_t h = hashes != nullptr ? (*hashes)[i] : plans[i].Hash();
    bool hit = false;
    float v = 0.0f;
    if (shared_ != nullptr) {
      hit = shared_->scores.Get(util::HashCombine(h, salt_), &v);
    } else if (const float* p = score_cache_.Find(h)) {
      hit = true;
      v = *p;
    }
    if (hit) {
      ++result->cache_hits;
      scores[i] = v;
    } else {
      misses.push_back(&plans[i]);
      miss_idx.push_back(i);
      miss_hash.push_back(h);
    }
  }
  if (misses.empty()) return;

  result->evaluations += misses.size();
  featurizer_->EncodePlanBatch(query, misses, &batch_scratch_);

  // Incremental tree-conv inference: probe the activation cache per packed
  // node row, serve hits, and hand the network a store slab for the dirty
  // rows. Probing only touches (Find splices, never reallocates), and all
  // inserts happen after the forward pass, so the cached pointers the
  // network reads stay valid throughout.
  const size_t entry_floats = static_cast<size_t>(net_->TotalConvChannels());
  const bool leaf_tier = shared_ != nullptr && leaf_tier_enabled_;
  {
    // NN-eval region: the probe loops, slab writes, and the batched forward
    // are the steady-state hot section. With a warmed search instance the
    // whole block performs zero heap allocations (the slab arena resets to
    // one high-water block; every network buffer is capacity-reused) —
    // benches assert this via util::RegionAllocs. Cache population below
    // stays OUTSIDE the region: it is proportional to newly discovered
    // subtrees, not NN work, and vanishes as the caches warm.
    util::AllocRegionScope alloc_region;
    const size_t n_rows = batch_scratch_.node_fp.size();
    reuse_scratch_.cached.assign(n_rows, nullptr);
    reuse_scratch_.store.assign(n_rows, nullptr);
    slab_arena_.Reset();
    size_t n_dirty = 0;
    if (shared_ != nullptr) {
      // Shared mode sizes the slab for EVERY row: hits are copied out of
      // the global table under the stripe lock into this search's private
      // slab (a pointer into the table could be overwritten under the
      // forward pass by a concurrent search's eviction), and dirty rows are
      // computed into their own slots for the post-forward inserts.
      if (leaf_tier) {
        // Packed-forest subtree sizes for the leaf-tier gate: pre-order
        // packing puts children at higher indices, so a descending scan
        // sees every child before its parent.
        subtree_size_scratch_.assign(n_rows, 1);
        for (size_t i = n_rows; i-- > 0;) {
          const int l = batch_scratch_.forest.left[i];
          const int r = batch_scratch_.forest.right[i];
          if (l >= 0) subtree_size_scratch_[i] += subtree_size_scratch_[static_cast<size_t>(l)];
          if (r >= 0) subtree_size_scratch_[i] += subtree_size_scratch_[static_cast<size_t>(r)];
        }
      }
      float* slab = slab_arena_.AllocateArray<float>(n_rows * entry_floats);
      for (size_t i = 0; i < n_rows; ++i) {
        float* slot = slab + i * entry_floats;
        const uint64_t fp = batch_scratch_.node_fp[i];
        bool hit = shared_->activations.Get(util::HashCombine(fp, salt_), slot);
        if (!hit && leaf_tier &&
            subtree_size_scratch_[i] <= kLeafTierMaxNodes) {
          // Cross-request tier: rows another search (same embedding bits,
          // weights, kernel arm, generation) already computed.
          hit = shared_->leaf_activations.Get(util::HashCombine(fp, leaf_salt_),
                                              slot);
          if (hit) ++result->leaf_tier_hits;
        }
        if (hit) {
          reuse_scratch_.cached[i] = slot;
          ++result->activation_hits;
        } else {
          reuse_scratch_.store[i] = slot;
          ++n_dirty;
        }
      }
    } else {
      for (size_t i = 0; i < n_rows; ++i) {
        if (std::vector<float>* hit = activation_cache_.Find(batch_scratch_.node_fp[i])) {
          reuse_scratch_.cached[i] = hit->data();
          ++result->activation_hits;
        } else {
          ++n_dirty;
        }
      }
      float* slab = slab_arena_.AllocateArray<float>(n_dirty * entry_floats);
      size_t slot = 0;
      for (size_t i = 0; i < n_rows; ++i) {
        if (reuse_scratch_.cached[i] == nullptr) {
          reuse_scratch_.store[i] = slab + (slot++) * entry_floats;
        }
      }
    }
    const size_t layers = net_->config().tree_channels.size();
    result->rows_recomputed += n_dirty * layers;
    result->rows_reused += (n_rows - n_dirty) * layers;

    net_->PredictBatchInto(query_embedding, batch_scratch_, &net_ctx_,
                           &reuse_scratch_, &predicted_scratch_);
  }
  const std::vector<float>& predicted = predicted_scratch_;

  // Populate the cache from the slab. Duplicate fingerprints within one
  // batch (sibling candidates share almost every subtree) insert once.
  // Shared-mode concurrent inserts of one fingerprint are idempotent: the
  // salt pins (query, version, kernel arm, generation), so both writers
  // computed bitwise-identical rows.
  act_seen_scratch_.Clear();
  for (size_t i = 0; i < batch_scratch_.node_fp.size(); ++i) {
    const float* src = reuse_scratch_.store[i];
    if (src == nullptr) continue;
    const uint64_t fp = batch_scratch_.node_fp[i];
    if (!act_seen_scratch_.Insert(fp)) continue;
    if (shared_ != nullptr) {
      shared_->activations.Insert(util::HashCombine(fp, salt_), src);
      if (leaf_tier && subtree_size_scratch_[i] <= kLeafTierMaxNodes) {
        shared_->leaf_activations.Insert(util::HashCombine(fp, leaf_salt_), src);
      }
    } else {
      activation_cache_.Insert(fp, std::vector<float>(src, src + entry_floats));
    }
  }

  for (size_t m = 0; m < misses.size(); ++m) {
    scores[miss_idx[m]] = predicted[m];
    if (shared_ != nullptr) {
      if (shared_->scores.Insert(util::HashCombine(miss_hash[m], salt_),
                                 &predicted[m])) {
        ++result->cache_evictions;
      }
    } else if (score_cache_.Insert(miss_hash[m], predicted[m])) {
      ++result->cache_evictions;
    }
  }
}

SearchResult PlanSearch::FindPlan(const query::Query& query,
                                  const SearchOptions& options) {
  util::Stopwatch watch;
  SearchResult result;
  const nn::Matrix query_vec = featurizer_->EncodeQuery(query);
  // Embeds through this instance's own pipeline scratch: concurrent searches
  // on one network never share a buffer.
  net_->EmbedQueryInto(query_vec, &embed_scratch_, &embed_);
  const nn::Matrix& embed = embed_;

  // Shared leaf-tier salt for this search: the embedding's BIT PATTERN (the
  // activations' true query dependency) plus (version, kernel arm,
  // generation). Gated on a fingerprint-pure featurizer — with a cardinality
  // channel, node features depend on the query beyond subtree_fp and rows
  // must not cross queries.
  leaf_tier_enabled_ =
      shared_ != nullptr &&
      featurizer_->config().card_channel == featurize::CardChannel::kNone;
  if (leaf_tier_enabled_) {
    uint64_t ehash = 0x6c656166u;  // "leaf"
    const float* e = embed.Row(0);
    for (int c = 0; c < embed.cols(); ++c) {
      uint32_t bits;
      std::memcpy(&bits, &e[c], sizeof(bits));
      ehash = util::HashCombine(ehash, bits);
    }
    leaf_salt_ = util::Mix64(util::HashCombine(
        util::HashCombine(util::HashCombine(ehash, net_->version()),
                          KernelModeBits()),
        shared_generation_));
  }

  // Round state lives in members (capacity-reused across requests); heap_ is
  // an explicit push_heap/pop_heap min-heap — the same algorithm
  // std::priority_queue wraps, without a fresh backing vector per call.
  std::vector<plan::PartialPlan>& arena = state_arena_;
  arena.clear();
  heap_.clear();
  visited_.Clear();
  const auto heap_push = [this](float score, size_t idx) {
    heap_.push_back({score, idx});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<HeapEntry>());
  };

  plan::PartialPlan initial = plan::PartialPlan::Initial(query);
  visited_.Insert(initial.Hash());
  arena.push_back(initial);
  heap_push(Score(query, embed, initial, options, &result), 0);

  bool have_complete = false;
  float best_complete_score = 0.0f;
  plan::PartialPlan best_complete;
  size_t last_popped_idx = 0;

  auto out_of_time = [&] {
    return options.time_cutoff_ms > 0.0 && watch.ElapsedMs() >= options.time_cutoff_ms;
  };

  // Best-first: each round pops the most promising state and scores its
  // unvisited children in one batch. max_expansions == 0 is pure hurry-up.
  while (!heap_.empty()) {
    if (options.max_expansions >= 0 && result.expansions >= options.max_expansions) {
      break;
    }
    if (out_of_time()) break;
    const HeapEntry top = heap_.front();
    if (options.early_stop && have_complete && top.score >= best_complete_score) {
      break;
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<HeapEntry>());
    heap_.pop_back();
    last_popped_idx = top.idx;
    ++result.expansions;

    // Children deduped against `visited_` in place (order kept). The hashes
    // computed for dedup are reused for the score-cache probes.
    ChildrenInto(query, arena[top.idx], &child_scratch_);
    child_hash_scratch_.clear();
    size_t kept = 0;
    for (size_t i = 0; i < child_scratch_.size(); ++i) {
      const uint64_t h = child_scratch_[i].Hash();
      if (!visited_.Insert(h)) continue;
      if (kept != i) child_scratch_[kept] = std::move(child_scratch_[i]);
      ++kept;
      child_hash_scratch_.push_back(h);
    }
    child_scratch_.resize(kept);
    ScoreAll(query, embed, child_scratch_, &child_hash_scratch_, options,
             &result, &scores_scratch_);
    const std::vector<float>& scores = scores_scratch_;

    for (size_t i = 0; i < child_scratch_.size(); ++i) {
      plan::PartialPlan& child = child_scratch_[i];
      const float score = scores[i];
      if (child.IsComplete()) {
        if (!have_complete || score < best_complete_score) {
          have_complete = true;
          best_complete_score = score;
          best_complete = std::move(child);
        }
      } else {
        arena.push_back(std::move(child));
        heap_push(score, arena.size() - 1);
      }
    }
  }

  if (!have_complete) {
    // Hurry-up mode (§4.2): greedily descend from the most promising state.
    // Children the best-first phase already scored come out of the cache.
    result.hurried = true;
    plan::PartialPlan current = arena[last_popped_idx];
    while (!current.IsComplete()) {
      ChildrenInto(query, current, &child_scratch_);
      NEO_CHECK_MSG(!child_scratch_.empty(), "search: dead-end state");
      ScoreAll(query, embed, child_scratch_, /*hashes=*/nullptr, options,
               &result, &scores_scratch_);
      const std::vector<float>& scores = scores_scratch_;
      size_t best_idx = 0;
      for (size_t i = 1; i < scores.size(); ++i) {
        if (scores[i] < scores[best_idx]) best_idx = i;
      }
      current = std::move(child_scratch_[best_idx]);
      best_complete_score = scores[best_idx];  // Final step: returned plan's score.
    }
    best_complete = std::move(current);
    have_complete = true;
  }

  result.plan = best_complete;
  result.predicted_cost = best_complete_score;
  result.wall_ms = watch.ElapsedMs();
  return result;
}

}  // namespace neo::core
