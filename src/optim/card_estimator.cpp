#include "src/optim/card_estimator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "src/engine/predicate_eval.h"
#include "src/util/rng.h"

namespace neo::optim {

double FormulaJoinEstimator::EstimateSubset(const query::Query& query, uint64_t mask) {
  // Product of base estimates ...
  double card = 1.0;
  for (size_t i = 0; i < query.num_relations(); ++i) {
    if (mask & (1ULL << i)) {
      card *= std::max(1.0, EstimateBase(query, query.relations[i]));
    }
  }
  // ... divided per join edge by max distinct count of the key columns
  // (principle of inclusion; assumes key independence, like PostgreSQL).
  for (const query::JoinEdge& j : query.joins) {
    const int li = query.RelationIndex(j.left_table);
    const int ri = query.RelationIndex(j.right_table);
    if (li < 0 || ri < 0) continue;
    if (!(mask & (1ULL << li)) || !(mask & (1ULL << ri))) continue;
    const double dl = static_cast<double>(
        stats_.num_distinct(j.left_table, j.left_column));
    const double dr = static_cast<double>(
        stats_.num_distinct(j.right_table, j.right_column));
    card /= std::max(1.0, std::max(dl, dr));
  }
  return std::max(card, 1e-3);
}

namespace {

/// Histogram-backed selectivity of one predicate (uniformity assumptions).
double HistogramPredicateSelectivity(const catalog::Schema& schema,
                                     const catalog::Statistics& stats,
                                     const storage::Database& db,
                                     const query::Predicate& pred) {
  const catalog::Histogram& h =
      stats.histogram(pred.table_id, pred.column_idx);
  using query::PredOp;
  switch (pred.op) {
    case PredOp::kEq: return h.SelectivityEq(pred.value_code);
    case PredOp::kNeq: return 1.0 - h.SelectivityEq(pred.value_code);
    case PredOp::kLt: return h.SelectivityRange(INT64_MIN, pred.value_code - 1);
    case PredOp::kLe: return h.SelectivityRange(INT64_MIN, pred.value_code);
    case PredOp::kGt: return h.SelectivityRange(pred.value_code + 1, INT64_MAX);
    case PredOp::kGe: return h.SelectivityRange(pred.value_code, INT64_MAX);
    case PredOp::kContains: {
      // PostgreSQL-style LIKE heuristic refined with dictionary knowledge:
      // fraction of *distinct* values matching, assuming uniform value
      // frequency (ignores skew -> a realistic error source).
      const catalog::TableInfo& info = schema.table(pred.table_id);
      const storage::Column& col =
          db.table(info.name).column(static_cast<size_t>(pred.column_idx));
      if (col.dictionary_size() == 0) return 0.005;
      const double matched =
          static_cast<double>(col.CodesContaining(pred.value_str).size());
      return std::min(1.0, matched / static_cast<double>(col.dictionary_size()));
    }
  }
  return 0.1;
}

}  // namespace

double HistogramEstimator::EstimatePredicate(const query::Query& query,
                                             const query::Predicate& pred) {
  (void)query;
  return HistogramPredicateSelectivity(schema_, stats_, db_, pred);
}

double HistogramEstimator::EstimateBase(const query::Query& query, int table_id) {
  const double rows = static_cast<double>(stats_.table_rows(table_id));
  double sel = 1.0;
  for (const query::Predicate& p : query.PredicatesOn(table_id)) {
    sel *= EstimatePredicate(query, p);  // Independence assumption.
  }
  return std::max(rows * sel, 1e-3);
}

double SamplingEstimator::EstimatePredicate(const query::Query& query,
                                            const query::Predicate& pred) {
  (void)query;
  const catalog::TableInfo& info = schema_.table(pred.table_id);
  const storage::Table& table = db_.table(info.name);
  const auto& sample = stats_.sample_rows(pred.table_id);
  if (sample.empty()) return 0.0;
  const storage::Column& col = table.column(static_cast<size_t>(pred.column_idx));
  std::unordered_set<int64_t> contains;
  const std::unordered_set<int64_t>* contains_ptr = nullptr;
  if (pred.op == query::PredOp::kContains) {
    contains = engine::ContainsCodeSet(col, pred.value_str);
    contains_ptr = &contains;
  }
  size_t hits = 0;
  for (uint32_t row : sample) {
    if (engine::MatchesPredicate(pred, col.CodeAt(row), contains_ptr)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(sample.size());
}

double SamplingEstimator::EstimateBase(const query::Query& query, int table_id) {
  // Evaluate the full conjunction on the sample: captures intra-table
  // correlation between predicates, unlike the histogram estimator.
  const catalog::TableInfo& info = schema_.table(table_id);
  const storage::Table& table = db_.table(info.name);
  const auto& sample = stats_.sample_rows(table_id);
  const double rows = static_cast<double>(stats_.table_rows(table_id));
  const auto preds = query.PredicatesOn(table_id);
  if (preds.empty() || sample.empty()) return std::max(rows, 1e-3);

  // Each predicate's column, and each LIKE's matching codes, once per call
  // rather than once per sample row.
  std::vector<const storage::Column*> cols(preds.size());
  std::vector<std::unordered_set<int64_t>> contains(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    cols[i] = &table.column(static_cast<size_t>(preds[i].column_idx));
    if (preds[i].op == query::PredOp::kContains) {
      contains[i] = engine::ContainsCodeSet(*cols[i], preds[i].value_str);
    }
  }
  size_t hits = 0;
  for (uint32_t row : sample) {
    bool all = true;
    for (size_t i = 0; i < preds.size(); ++i) {
      const std::unordered_set<int64_t>* contains_ptr =
          preds[i].op == query::PredOp::kContains ? &contains[i] : nullptr;
      if (!engine::MatchesPredicate(preds[i], cols[i]->CodeAt(row), contains_ptr)) {
        all = false;
        break;
      }
    }
    if (all) ++hits;
  }
  // Zero sample hits: fall back to a half-row floor (sampling can miss rare
  // values; commercial systems use similar floors).
  const double sel = hits == 0
                         ? 0.5 / static_cast<double>(sample.size())
                         : static_cast<double>(hits) / static_cast<double>(sample.size());
  return std::max(rows * sel, 1e-3);
}

double TrueCardEstimator::EstimatePredicate(const query::Query& query,
                                            const query::Predicate& pred) {
  // Exact single-predicate selectivity via direct evaluation (uncached: the
  // probe query is a temporary, so it must not enter the oracle's
  // pointer-keyed caches).
  query::Query probe;
  probe.id = query.id;
  probe.relations = {pred.table_id};
  probe.predicates = {pred};
  const double rows = static_cast<double>(oracle_->TableRows(pred.table_id));
  if (rows == 0) return 0.0;
  const engine::Selection sel = engine::EvaluatePredicates(
      oracle_->db(), oracle_->schema(), probe, pred.table_id);
  return static_cast<double>(sel.count) / rows;
}

double ErrorInjectingEstimator::Perturb(double value, uint64_t key) const {
  if (error_orders_ <= 0.0) return value;
  const uint64_t h = util::HashCombine(seed_, key);
  const double sign = (h & 1) ? 1.0 : -1.0;
  return value * std::pow(10.0, sign * error_orders_);
}

double ErrorInjectingEstimator::EstimateBase(const query::Query& query, int table_id) {
  return Perturb(inner_->EstimateBase(query, table_id),
                 util::HashCombine(static_cast<uint64_t>(query.id),
                                   static_cast<uint64_t>(table_id) + 0x51ULL));
}

double ErrorInjectingEstimator::EstimateSubset(const query::Query& query,
                                               uint64_t mask) {
  return Perturb(inner_->EstimateSubset(query, mask),
                 util::HashCombine(static_cast<uint64_t>(query.id), mask));
}

}  // namespace neo::optim
