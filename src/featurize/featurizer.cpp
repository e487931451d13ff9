#include "src/featurize/featurizer.h"

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace neo::featurize {

const char* PredicateEncodingName(PredicateEncoding e) {
  switch (e) {
    case PredicateEncoding::k1Hot: return "1-Hot";
    case PredicateEncoding::kHistogram: return "Histogram";
    case PredicateEncoding::kRVector: return "R-Vector";
  }
  return "?";
}

Featurizer::Featurizer(const catalog::Schema& schema, const storage::Database& db,
                       FeaturizerConfig config,
                       optim::CardinalityEstimator* hist_estimator,
                       const embedding::RowEmbedding* row_embedding,
                       engine::CardinalityOracle* oracle)
    : schema_(schema),
      db_(db),
      config_(config),
      hist_estimator_(hist_estimator),
      row_embedding_(row_embedding),
      oracle_(oracle) {
  const int t = schema.num_tables();
  adjacency_dim_ = t * (t - 1) / 2;
  switch (config_.encoding) {
    case PredicateEncoding::k1Hot:
      per_column_dim_ = 1;
      break;
    case PredicateEncoding::kHistogram:
      NEO_CHECK_MSG(hist_estimator_ != nullptr, "Histogram encoding needs estimator");
      per_column_dim_ = 1;
      break;
    case PredicateEncoding::kRVector:
      NEO_CHECK_MSG(row_embedding_ != nullptr, "R-Vector encoding needs embedding");
      // op one-hot + matched count + embedding + frequency (§5.1).
      per_column_dim_ = query::kNumPredOps + 1 + row_embedding_->dim() + 1;
      break;
  }
  query_dim_ = adjacency_dim_ + schema.num_columns() * per_column_dim_;
  plan_dim_ = plan::kNumJoinOps + 2 * t +
              (config_.card_channel == CardChannel::kNone ? 0 : 1);
  if (config_.card_channel == CardChannel::kEstimated) {
    NEO_CHECK_MSG(hist_estimator_ != nullptr, "estimated card channel needs estimator");
  }
  if (config_.card_channel == CardChannel::kTrue) {
    NEO_CHECK_MSG(oracle_ != nullptr, "true card channel needs oracle");
  }
}

nn::Matrix Featurizer::EncodeQuery(const query::Query& query) const {
  nn::Matrix out(1, query_dim_);
  float* v = out.Row(0);

  // Join-graph adjacency, upper triangle (paper Figure 3).
  const int t = schema_.num_tables();
  for (const query::JoinEdge& j : query.joins) {
    int a = j.left_table, b = j.right_table;
    if (a > b) std::swap(a, b);
    // Index of (a, b), a < b, in row-major upper-triangular order.
    const int idx = a * t - a * (a + 1) / 2 + (b - a - 1);
    v[idx] = 1.0f;
  }

  // Column-predicate vector.
  float* pred_base = v + adjacency_dim_;
  for (const query::Predicate& p : query.predicates) {
    const catalog::ColumnInfo& col =
        schema_.table(p.table_id).columns[static_cast<size_t>(p.column_idx)];
    float* slot = pred_base + col.global_id * per_column_dim_;
    switch (config_.encoding) {
      case PredicateEncoding::k1Hot:
        slot[0] = 1.0f;
        break;
      case PredicateEncoding::kHistogram: {
        const double sel =
            std::max(1e-6, hist_estimator_->EstimatePredicate(query, p));
        // Multiplicative accumulation across predicates on the same column
        // (e.g. year range); slots start at 0 => initialize to sel.
        slot[0] = slot[0] == 0.0f ? static_cast<float>(sel)
                                  : slot[0] * static_cast<float>(sel);
        break;
      }
      case PredicateEncoding::kRVector: {
        // Op one-hot (max-combined if several predicates share the column).
        slot[static_cast<int>(p.op)] = 1.0f;
        float* rest = slot + query::kNumPredOps;
        const storage::Column& column =
            db_.table(schema_.table(p.table_id).name)
                .column(static_cast<size_t>(p.column_idx));
        std::vector<int64_t> matched;
        if (p.op == query::PredOp::kContains) {
          matched = column.CodesContaining(p.value_str);
        } else {
          matched = {p.value_code};
        }
        rest[0] = std::log1p(static_cast<float>(matched.size()));
        std::vector<float> mean(static_cast<size_t>(row_embedding_->dim()));
        row_embedding_->MeanVectorFor(col.global_id, matched, mean.data());
        for (int d = 0; d < row_embedding_->dim(); ++d) {
          // Accumulate (predicates on the same column average below).
          rest[1 + d] += mean[static_cast<size_t>(d)];
        }
        int64_t count = 0;
        for (int64_t code : matched) count += row_embedding_->CountFor(col.global_id, code);
        rest[1 + row_embedding_->dim()] =
            std::log1p(static_cast<float>(count)) / 10.0f;
        break;
      }
    }
  }
  return out;
}

double Featurizer::CardFeature(const query::Query& query, uint64_t rel_mask) const {
  double card = 1.0;
  if (config_.card_channel == CardChannel::kEstimated) {
    card = hist_estimator_->EstimateSubset(query, rel_mask);
  } else if (config_.card_channel == CardChannel::kTrue) {
    card = oracle_->Cardinality(query, rel_mask);
  }
  if (config_.card_error_orders > 0.0) {
    const uint64_t h = util::HashCombine(
        util::HashCombine(config_.card_error_seed, static_cast<uint64_t>(query.id)),
        rel_mask);
    const double sign = (h & 1) ? 1.0 : -1.0;
    card *= std::pow(10.0, sign * config_.card_error_orders);
  }
  // log10 compression into a roughly unit range.
  return std::log10(1.0 + std::max(0.0, card)) / 8.0;
}

void Featurizer::EncodeNode(const query::Query& query, const plan::PlanNode& node,
                            const float* left, const float* right,
                            float* out) const {
  const int t = schema_.num_tables();
  std::fill(out, out + plan_dim_, 0.0f);
  float* scan = out + plan::kNumJoinOps;
  if (node.is_join) {
    out[static_cast<int>(node.join_op)] = 1.0f;
    // Scan bits: the union over covered relations (§3.2), i.e. over the
    // children's rows. Bits are 0 or 1, so the max is the union.
    const float* lscan = left + plan::kNumJoinOps;
    const float* rscan = right + plan::kNumJoinOps;
    for (int c = 0; c < 2 * t; ++c) scan[c] = std::max(lscan[c], rscan[c]);
  } else {
    float* bits = scan + 2 * node.table_id;
    switch (node.scan_op) {
      case plan::ScanOp::kTable: bits[0] = 1.0f; break;
      case plan::ScanOp::kIndex: bits[1] = 1.0f; break;
      case plan::ScanOp::kUnspecified:
        bits[0] = 1.0f;
        bits[1] = 1.0f;
        break;
    }
  }
  if (config_.card_channel != CardChannel::kNone) {
    out[plan::kNumJoinOps + 2 * t] = static_cast<float>(CardFeature(query, node.rel_mask));
  }
}

int Featurizer::AppendNode(const query::Query& query, const plan::PlanNode& node,
                           int* next, nn::TreeStructure* tree,
                           nn::Matrix* features) const {
  const int idx = (*next)++;
  const float* left = nullptr;
  const float* right = nullptr;
  if (node.is_join) {
    const int l = AppendNode(query, *node.left, next, tree, features);
    const int r = AppendNode(query, *node.right, next, tree, features);
    tree->left[static_cast<size_t>(idx)] = l;
    tree->right[static_cast<size_t>(idx)] = r;
    left = features->Row(l);
    right = features->Row(r);
  }
  EncodeNode(query, node, left, right, features->Row(idx));
  return idx;
}

void Featurizer::EncodePlan(const query::Query& query, const plan::PartialPlan& plan,
                            nn::TreeStructure* tree, nn::Matrix* features) const {
  size_t total_nodes = 0;
  for (const auto& r : plan.roots) total_nodes += r->NumNodes();
  tree->left.assign(total_nodes, -1);
  tree->right.assign(total_nodes, -1);
  features->Reshape(static_cast<int>(total_nodes), plan_dim_);
  int next = 0;
  for (const auto& r : plan.roots) AppendNode(query, *r, &next, tree, features);
}

nn::PlanSample Featurizer::Encode(const query::Query& query,
                                  const plan::PartialPlan& plan) const {
  nn::PlanSample sample;
  sample.query_vec = EncodeQuery(query);
  EncodePlan(query, plan, &sample.tree, &sample.node_features);
  return sample;
}

}  // namespace neo::featurize
