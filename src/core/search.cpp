#include "src/core/search.h"

#include <algorithm>

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

/// Kernel dispatch arm folded into every score-cache salt (bits 2+; bit 1
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

void SubtreeTable::Clear(int plan_dim, const std::vector<int>& layer_widths) {
  bool same = features.cols() == plan_dim && layers.size() == layer_widths.size();
  for (size_t l = 0; same && l < layers.size(); ++l) {
    same = layers[l].cols() == layer_widths[l];
  }
  if (!same) {
    // New row widths: the old storage cannot be reused.
    features = nn::Matrix();
    layers.assign(layer_widths.size(), nn::Matrix());
    pool = nn::Matrix();
    row_capacity_ = 0;
  }
  features.Reshape(0, plan_dim);
  for (size_t l = 0; l < layers.size(); ++l) layers[l].Reshape(0, layer_widths[l]);
  pool.Reshape(0, layer_widths.back());
  fp.clear();
  tree.left.clear();
  tree.right.clear();
  nodes.clear();
  for (Slot& slot : slots_) slot.row = -1;
}

int SubtreeTable::Find(uint64_t key) const {
  if (slots_.empty()) return -1;
  const size_t mask = slots_.size() - 1;
  for (size_t i = util::Mix64(key) & mask; slots_[i].row >= 0; i = (i + 1) & mask) {
    if (slots_[i].fp == key) return slots_[i].row;
  }
  return -1;
}

int SubtreeTable::Add(uint64_t key, int left, int right) {
  const int row = size();
  // Load factor at most 1/2 keeps the linear probes short.
  if (2 * static_cast<size_t>(row + 1) > slots_.size()) {
    Rehash(std::max<size_t>(64, 2 * slots_.size()));
  }
  if (row == row_capacity_) GrowRows(row + 1);
  const size_t mask = slots_.size() - 1;
  size_t i = util::Mix64(key) & mask;
  while (slots_[i].row >= 0) i = (i + 1) & mask;
  slots_[i] = {key, row};
  fp.push_back(key);
  tree.left.push_back(left);
  tree.right.push_back(right);
  nodes.push_back(1 + (left >= 0 ? nodes[static_cast<size_t>(left)] : 0) +
                  (right >= 0 ? nodes[static_cast<size_t>(right)] : 0));
  features.Reshape(row + 1, features.cols());
  for (nn::Matrix& layer : layers) layer.Reshape(row + 1, layer.cols());
  pool.Reshape(row + 1, pool.cols());
  return row;
}

void SubtreeTable::Rehash(size_t slots) {
  slots_.assign(slots, Slot{0, -1});
  const size_t mask = slots - 1;
  for (size_t row = 0; row < fp.size(); ++row) {
    size_t i = util::Mix64(fp[row]) & mask;
    while (slots_[i].row >= 0) i = (i + 1) & mask;
    slots_[i] = {fp[row], static_cast<int>(row)};
  }
  NotePeak();
}

void SubtreeTable::GrowRows(int rows) {
  int cap = std::max(64, row_capacity_);
  while (cap < rows) cap *= 2;
  // Matrix::Reshape does not keep contents when it reallocates, so each
  // matrix moves its live rows into storage of the new capacity.
  const auto grow = [cap](nn::Matrix* m) {
    nn::Matrix grown;
    grown.Reshape(cap, m->cols());
    std::copy(m->data(), m->data() + m->Size(), grown.data());
    const int live = m->rows();
    *m = std::move(grown);
    m->Reshape(live, m->cols());
  };
  grow(&features);
  for (nn::Matrix& layer : layers) grow(&layer);
  grow(&pool);
  const size_t want = static_cast<size_t>(cap);
  fp.reserve(want);
  tree.left.reserve(want);
  tree.right.reserve(want);
  nodes.reserve(want);
  row_capacity_ = cap;
  NotePeak();
}

void SubtreeTable::NotePeak() {
  size_t row_floats = static_cast<size_t>(features.cols() + pool.cols());
  for (const nn::Matrix& layer : layers) row_floats += static_cast<size_t>(layer.cols());
  const size_t bytes =
      slots_.size() * sizeof(Slot) +
      static_cast<size_t>(row_capacity_) *
          (row_floats * sizeof(float) + sizeof(uint64_t) + 3 * sizeof(int));
  peak_bytes_ = std::max(peak_bytes_, bytes);
}

void PlanSearch::BeginSearch(const query::Query& query) {
  const nn::Matrix query_vec = featurizer_->EncodeQuery(query);
  // Embeds through this instance's own pipeline scratch: concurrent searches
  // on one network never share a buffer. The embedding's projection through
  // layer 0's suffix blocks is fixed for the whole search, so it is computed
  // here once instead of once per scoring round.
  net_->EmbedQueryInto(query_vec, &embed_scratch_, &embed_);
  net_->ProjectQueryInto(embed_, &query_proj_);
  // The table's rows depend on the query, the weights and the kernel arm.
  // The score cache is never cleared: a new salt simply stops probing
  // entries of other tuples, and they are evicted as their sets fill. The
  // kernel bits carry a low tag bit so a (fp, version) pair can never
  // produce the same salt as a raw fingerprint.
  salt_ = util::Mix64(util::HashCombine(
      util::HashCombine(util::HashCombine(query.fingerprint, net_->version()),
                        KernelModeBits()),
      generation_));
  table_.Clear(featurizer_->plan_dim(), net_->config().tree_channels);
}

int PlanSearch::Intern(const query::Query& query, const plan::PlanNode& node) {
  int row = table_.Find(node.subtree_fp);
  if (row >= 0) return row;
  int left = -1;
  int right = -1;
  if (node.is_join) {
    left = Intern(query, *node.left);
    right = Intern(query, *node.right);
  }
  row = table_.Add(node.subtree_fp, left, right);
  featurizer_->EncodeNode(query, node,
                          left >= 0 ? table_.features.Row(left) : nullptr,
                          right >= 0 ? table_.features.Row(right) : nullptr,
                          table_.features.Row(row));
  return row;
}

void PlanSearch::ScoreAll(const query::Query& query,
                          const std::vector<plan::PartialPlan>& plans,
                          const std::vector<uint64_t>* hashes,
                          SearchResult* result, std::vector<float>* out) {
  NEO_CHECK(hashes == nullptr || hashes->size() == plans.size());
  std::vector<float>& scores = *out;
  scores.assign(plans.size(), 0.0f);
  std::vector<size_t>& miss_idx = miss_idx_scratch_;
  std::vector<uint64_t>& miss_key = miss_key_scratch_;
  miss_idx.clear();
  miss_key.clear();
  for (size_t i = 0; i < plans.size(); ++i) {
    if (score_cache_ != nullptr) {
      const uint64_t h = hashes != nullptr ? (*hashes)[i] : plans[i].Hash();
      const uint64_t key = util::HashCombine(h, salt_);
      if (score_cache_->Get(key, &scores[i])) {
        ++result->cache_hits;
        continue;
      }
      miss_key.push_back(key);
    }
    miss_idx.push_back(i);
  }
  if (miss_idx.empty()) return;
  result->evaluations += miss_idx.size();

  {
    // The scoring round — intern, featurize, conv, pool, head. With a warmed
    // search it performs zero heap allocations (every buffer, the table
    // included, is at its high-water capacity); benches assert this via
    // util::RegionAllocs.
    util::AllocRegionScope alloc_region;

    // Intern every missed plan's roots. The rows from first_new on are new
    // this round, each after its children, and all of them run through the
    // conv stack.
    const int first_new = table_.size();
    size_t plan_rows = 0;
    root_rows_scratch_.clear();
    for (const size_t i : miss_idx) {
      for (const plan::NodeRef& root : plans[i].roots) {
        const int row = Intern(query, *root);
        root_rows_scratch_.push_back(row);
        plan_rows += static_cast<size_t>(table_.nodes[static_cast<size_t>(row)]);
      }
    }
    const int n_rows = table_.size();
    conv_rows_scratch_.clear();
    for (int r = first_new; r < n_rows; ++r) conv_rows_scratch_.push_back(r);
    net_->ForwardRows(table_.tree, table_.features, conv_rows_scratch_,
                      query_proj_, &net_ctx_, &table_.layers);

    // Max-pool each new subtree over (its own last-layer row, the left pool,
    // the right pool), then each plan over its roots in root order: the
    // order in which DynamicPooling scans a plan's pre-order rows, with the
    // same strict > comparison, so the pooled bits match the full pass.
    const nn::Matrix& last = table_.layers.back();
    const int channels = last.cols();
    const auto max_into = [channels](const float* src, float* dst) {
      for (int c = 0; c < channels; ++c) dst[c] = src[c] > dst[c] ? src[c] : dst[c];
    };
    for (int r = first_new; r < n_rows; ++r) {
      float* dst = table_.pool.Row(r);
      std::copy(last.Row(r), last.Row(r) + channels, dst);
      const int left = table_.tree.left[static_cast<size_t>(r)];
      const int right = table_.tree.right[static_cast<size_t>(r)];
      if (left >= 0) max_into(table_.pool.Row(left), dst);
      if (right >= 0) max_into(table_.pool.Row(right), dst);
    }
    pooled_scratch_.Reshape(static_cast<int>(miss_idx.size()), channels);
    const int* root_row = root_rows_scratch_.data();
    for (size_t m = 0; m < miss_idx.size(); ++m) {
      float* dst = pooled_scratch_.Row(static_cast<int>(m));
      const size_t n_roots = plans[miss_idx[m]].roots.size();
      std::copy(table_.pool.Row(root_row[0]),
                table_.pool.Row(root_row[0]) + channels, dst);
      for (size_t j = 1; j < n_roots; ++j) max_into(table_.pool.Row(root_row[j]), dst);
      root_row += n_roots;
    }
    net_->PredictPooledInto(pooled_scratch_, &net_ctx_, &predicted_scratch_);

    const size_t computed = conv_rows_scratch_.size();
    const size_t layers = table_.layers.size();
    result->activation_hits += plan_rows - computed;
    result->rows_reused += (plan_rows - computed) * layers;
    result->rows_recomputed += computed * layers;
  }
  const std::vector<float>& predicted = predicted_scratch_;

  for (size_t m = 0; m < miss_idx.size(); ++m) {
    scores[miss_idx[m]] = predicted[m];
    if (score_cache_ != nullptr && score_cache_->Insert(miss_key[m], predicted[m])) {
      ++result->cache_evictions;
    }
  }
}

SearchResult PlanSearch::FindPlan(const query::Query& query,
                                  const SearchOptions& options) {
  util::Stopwatch watch;
  SearchResult result;
  BeginSearch(query);

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

  // The initial state is scored as a round of its own.
  child_scratch_.clear();
  child_scratch_.push_back(plan::PartialPlan::Initial(query));
  child_hash_scratch_.assign(1, child_scratch_[0].Hash());
  visited_.Insert(child_hash_scratch_[0]);
  ScoreAll(query, child_scratch_, &child_hash_scratch_, &result, &scores_scratch_);
  arena.push_back(std::move(child_scratch_[0]));
  heap_push(scores_scratch_[0], 0);

  bool have_complete = false;
  float best_complete_score = 0.0f;
  plan::PartialPlan best_complete;
  size_t last_popped_idx = 0;

  // Best-first: each round pops the most promising state and scores its
  // unvisited children in one batch. max_expansions == 0 is pure hurry-up.
  while (!heap_.empty()) {
    if (options.max_expansions >= 0 && result.expansions >= options.max_expansions) {
      break;
    }
    const HeapEntry top = heap_.front();
    if (options.early_stop && have_complete && top.score >= best_complete_score) {
      break;
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<HeapEntry>());
    heap_.pop_back();
    last_popped_idx = top.idx;
    ++result.expansions;

    // Children deduped against `visited_` in place (order kept). The hashes
    // computed for dedup are reused for the score-cache keys.
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
    ScoreAll(query, child_scratch_, &child_hash_scratch_, &result, &scores_scratch_);
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
    // Children the best-first phase already scored come out of the bound
    // score cache, or re-score from the subtree table with no conv row.
    result.hurried = true;
    plan::PartialPlan current = arena[last_popped_idx];
    while (!current.IsComplete()) {
      ChildrenInto(query, current, &child_scratch_);
      NEO_CHECK_MSG(!child_scratch_.empty(), "search: dead-end state");
      ScoreAll(query, child_scratch_, /*hashes=*/nullptr, &result, &scores_scratch_);
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
