// Query and plan featurization (paper §3.2 + §5.1).
//
// Query-level encoding = upper-triangular join-graph adjacency over all
// schema tables + a column-predicate vector in one of three variants:
//   k1Hot      - 1 if any predicate touches the column;
//   kHistogram - estimated selectivity of the column's predicates;
//   kRVector   - per column: [op one-hot | matched-value count | row-vector
//                embedding | value frequency], per the §5.1 construction.
//
// Plan-level encoding = one vector per tree node: |J| join-operator bits +
// 2|R| (table-scan, index-scan) bits per schema table. Unspecified scans set
// both bits; internal nodes take the union of their children (§3.2,
// Figure 4). An optional extra channel carries a (possibly error-injected)
// cardinality estimate per node — the Fig. 14 robustness experiment.
#pragma once

#include <memory>

#include "src/embedding/row_embedding.h"
#include "src/engine/cardinality_oracle.h"
#include "src/nn/value_network.h"
#include "src/optim/card_estimator.h"
#include "src/plan/plan.h"

namespace neo::featurize {

enum class PredicateEncoding { k1Hot, kHistogram, kRVector };
const char* PredicateEncodingName(PredicateEncoding e);

/// The optional per-node cardinality channel. Neo itself needs no
/// cardinality input (§3); the channel serves the Fig. 14 robustness
/// experiment. kEstimated carries the histogram estimator's estimate for the
/// node's relation set, kTrue the oracle's exact count; either may be skewed
/// by FeaturizerConfig::card_error_orders.
enum class CardChannel { kNone, kEstimated, kTrue };

struct FeaturizerConfig {
  PredicateEncoding encoding = PredicateEncoding::k1Hot;
  CardChannel card_channel = CardChannel::kNone;
  /// Orders of magnitude of error injected into the cardinality channel at
  /// encoding time (Fig. 14); sign is deterministic per (query, subset).
  double card_error_orders = 0.0;
  uint64_t card_error_seed = 0xCA4DULL;
};

class Featurizer {
 public:
  /// `hist_estimator` is required for kHistogram (and kEstimated channel);
  /// `row_embedding` is required for kRVector; `oracle` for kTrue channel.
  Featurizer(const catalog::Schema& schema, const storage::Database& db,
             FeaturizerConfig config,
             optim::CardinalityEstimator* hist_estimator = nullptr,
             const embedding::RowEmbedding* row_embedding = nullptr,
             engine::CardinalityOracle* oracle = nullptr);

  int query_dim() const { return query_dim_; }
  int plan_dim() const { return plan_dim_; }
  const FeaturizerConfig& config() const { return config_; }
  const catalog::Schema& schema() const { return schema_; }

  /// Query-level encoding (1 x query_dim).
  nn::Matrix EncodeQuery(const query::Query& query) const;

  /// Plan-level encoding: flattened forest (pre-order over the roots, in
  /// root order) + per-node features.
  void EncodePlan(const query::Query& query, const plan::PartialPlan& plan,
                  nn::TreeStructure* tree, nn::Matrix* features) const;

  /// One node's feature row, written in full (plan_dim() floats) from its
  /// children's rows (both nullptr for a scan): a join sets its operator bit
  /// and takes the union of its children's scan bits, a scan sets its own
  /// scan bits, and the optional cardinality channel comes from the node's
  /// relation set. Nothing walks the subtree, so a caller that keeps its
  /// children's rows encodes a new node in O(plan_dim). EncodePlan builds
  /// every row this way.
  void EncodeNode(const query::Query& query, const plan::PlanNode& node,
                  const float* left, const float* right, float* out) const;

  /// Both encodings bundled as a network sample.
  nn::PlanSample Encode(const query::Query& query, const plan::PartialPlan& plan) const;

 private:
  /// Encodes `node`'s subtree at pre-order row *next onward; returns its row.
  int AppendNode(const query::Query& query, const plan::PlanNode& node,
                 int* next, nn::TreeStructure* tree, nn::Matrix* features) const;
  double CardFeature(const query::Query& query, uint64_t rel_mask) const;

  const catalog::Schema& schema_;
  const storage::Database& db_;
  FeaturizerConfig config_;
  optim::CardinalityEstimator* hist_estimator_;
  const embedding::RowEmbedding* row_embedding_;
  engine::CardinalityOracle* oracle_;
  int query_dim_ = 0;
  int plan_dim_ = 0;
  int adjacency_dim_ = 0;
  int per_column_dim_ = 0;
};

}  // namespace neo::featurize
