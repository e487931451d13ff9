#include "src/optim/cost_model.h"

#include <algorithm>
#include <cmath>

#include "src/util/status.h"

namespace neo::optim {

namespace {

/// Fixed work every operator pays before its first row.
constexpr double kStartup = 50.0;

double Log2Safe(double x) { return std::log2(std::max(2.0, x)); }

bool IndexSupported(query::PredOp op) {
  using query::PredOp;
  return op == PredOp::kEq || op == PredOp::kLt || op == PredOp::kLe ||
         op == PredOp::kGt || op == PredOp::kGe;
}

}  // namespace

CostModel::NodeCost CostModel::CostNode(const query::Query& query,
                                        const plan::PlanNode& node) const {
  NodeCost result;

  if (!node.is_join) {
    const int table_id = node.table_id;
    const catalog::TableInfo& info = schema_.table(table_id);
    const auto preds = query.PredicatesOn(table_id);
    const double n_rows = std::max(1.0, estimator_->TableRows(table_id));
    result.out_card = std::max(1.0, estimator_->EstimateBase(query, table_id));

    if (node.scan_op == plan::ScanOp::kUnspecified) {
      // Partial plans: cost an unspecified scan as the cheaper of its two
      // specializations would be estimated (optimistic, admissible).
      result.work = kStartup + result.out_card * profile_.output_tuple;
      return result;
    }
    if (node.scan_op == plan::ScanOp::kTable) {
      result.work = kStartup +
                    n_rows * (profile_.seq_tuple +
                              profile_.filter_tuple * static_cast<double>(preds.size())) +
                    result.out_card * profile_.output_tuple;
      return result;
    }
    // Index scan: fetch rows matching the most selective indexed predicate.
    double best_sel = 1.0;
    int sort_gid = -1;
    for (const auto& p : preds) {
      if (!IndexSupported(p.op)) continue;
      const auto& col = info.columns[static_cast<size_t>(p.column_idx)];
      if (!col.indexed && info.primary_key != p.column_idx) continue;
      const double sel = std::max(1e-9, estimator_->EstimatePredicate(query, p));
      if (sel < best_sel) {
        best_sel = sel;
        sort_gid = col.global_id;
      }
    }
    const double fetched = n_rows * best_sel;
    result.work = kStartup + profile_.btree_depth * Log2Safe(n_rows) +
                  fetched * (profile_.index_tuple +
                             profile_.filter_tuple * static_cast<double>(preds.size())) +
                  result.out_card * profile_.output_tuple;
    result.sorted_gid = sort_gid;
    return result;
  }

  const NodeCost left = CostNode(query, *node.left);
  const NodeCost right = CostNode(query, *node.right);
  return CostJoin(query, node, left, right,
                  std::max(1.0, estimator_->EstimateSubset(query, node.rel_mask)));
}

CostModel::NodeCost CostModel::CostJoin(const query::Query& query,
                                        const plan::PlanNode& node,
                                        const NodeCost& left, const NodeCost& right,
                                        double out_card) const {
  NodeCost result;
  result.out_card = out_card;
  const double out = result.out_card;

  // Canonical join edge for sortedness decisions.
  int left_key_gid = -1;
  int right_key_gid = -1;
  int right_key_col = -1;
  int right_leaf_table = node.right->is_join ? -1 : node.right->table_id;
  for (const query::JoinEdge& j : query.joins) {
    const int li = query.RelationIndex(j.left_table);
    const int ri = query.RelationIndex(j.right_table);
    if (li < 0 || ri < 0) continue;
    const uint64_t lbit = 1ULL << li;
    const uint64_t rbit = 1ULL << ri;
    const bool forward =
        (node.left->rel_mask & lbit) && (node.right->rel_mask & rbit);
    const bool backward =
        (node.left->rel_mask & rbit) && (node.right->rel_mask & lbit);
    if (!forward && !backward) continue;
    const int lt = forward ? j.left_table : j.right_table;
    const int lc = forward ? j.left_column : j.right_column;
    const int rt = forward ? j.right_table : j.left_table;
    const int rc = forward ? j.right_column : j.left_column;
    left_key_gid = schema_.table(lt).columns[static_cast<size_t>(lc)].global_id;
    right_key_gid = schema_.table(rt).columns[static_cast<size_t>(rc)].global_id;
    if (rt == right_leaf_table) right_key_col = rc;
    break;
  }

  if (node.join_op == plan::JoinOp::kLoop) {
    // Index nested loop if the inner is an index scan with an indexed join
    // column; per-probe matches from the estimated output.
    if (!node.right->is_join && node.right->scan_op == plan::ScanOp::kIndex &&
        right_key_col >= 0) {
      const catalog::TableInfo& rinfo = schema_.table(right_leaf_table);
      const auto& col = rinfo.columns[static_cast<size_t>(right_key_col)];
      if (col.indexed || rinfo.primary_key == right_key_col) {
        // A scan's out_card is max(1, its base estimate): the inner's size.
        const double inner_rows = right.out_card;
        const double fetched = std::max(out, left.out_card);
        result.work = left.work + kStartup +
                      left.out_card * profile_.btree_depth * Log2Safe(inner_rows) +
                      fetched * profile_.index_tuple + out * profile_.output_tuple;
        result.sorted_gid = left.sorted_gid;
        return result;
      }
    }
    result.work = left.work + right.work + kStartup +
                  left.out_card * right.out_card * profile_.loop_tuple +
                  out * profile_.output_tuple;
    result.sorted_gid = left.sorted_gid;
    return result;
  }

  if (node.join_op == plan::JoinOp::kHash) {
    double join_work =
        right.out_card * profile_.hash_build + left.out_card * profile_.hash_probe;
    if (right.out_card > profile_.hash_mem_rows) join_work *= profile_.spill_factor;
    result.work =
        left.work + right.work + kStartup + join_work + out * profile_.output_tuple;
    result.sorted_gid = left.sorted_gid;
    return result;
  }

  // Merge join.
  auto sort_cost = [&](const NodeCost& side, int key_gid) {
    if (key_gid >= 0 && side.sorted_gid == key_gid) return 0.0;
    return side.out_card * Log2Safe(side.out_card) * profile_.sort_tuple;
  };
  result.work = left.work + right.work + kStartup + sort_cost(left, left_key_gid) +
                sort_cost(right, right_key_gid) +
                (left.out_card + right.out_card) * profile_.merge_tuple +
                out * profile_.output_tuple;
  result.sorted_gid = left_key_gid;
  return result;
}

double CostModel::CostTree(const query::Query& query, const plan::PlanNode& node) const {
  return CostNode(query, node).work;
}

double CostModel::CostPlan(const query::Query& query,
                           const plan::PartialPlan& plan) const {
  double total = 0.0;
  for (const auto& root : plan.roots) total += CostNode(query, *root).work;
  return total;
}

}  // namespace neo::optim
