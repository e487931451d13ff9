// Hand-crafted cost model for the classical optimizers (the component Neo
// replaces with its value network, Table 1 of the paper). Structurally
// similar to the engine's latency model but driven by *estimated*
// cardinalities — so its plan choices inherit the estimator's errors, exactly
// the failure mode the paper describes. The weights come from the engine
// profile (vendors tune cost models to their engines), but the model is
// intentionally simpler than the engine: it does not know about
// preferred-order index sweeps and trusts the inclusion formula for
// per-probe match counts.
#pragma once

#include "src/engine/engine_profile.h"
#include "src/optim/card_estimator.h"
#include "src/plan/plan.h"

namespace neo::optim {

class CostModel {
 public:
  CostModel(const catalog::Schema& schema, const engine::EngineProfile& profile,
            CardinalityEstimator* estimator)
      : schema_(schema), profile_(profile), estimator_(estimator) {}

  /// What a subtree's parent needs to cost itself: the subtree's estimated
  /// output rows, its total work (the subtree's cost) and the global id of
  /// the column its output is sorted on (-1 = unsorted).
  struct NodeCost {
    double out_card = 0.0;
    double work = 0.0;
    int sorted_gid = -1;
  };

  /// The cost of `node`'s subtree, recursively: a scan is costed from its
  /// base estimate, a join by `CostJoin` over its children's `CostNode`s.
  NodeCost CostNode(const query::Query& query, const plan::PlanNode& node) const;

  /// Costs the join `node` from its children's costs alone: `left` and
  /// `right` must be `CostNode` of `node.left` and `node.right`, and
  /// `out_card` must be max(1, EstimateSubset(query, node.rel_mask)). Then
  /// the result equals `CostNode(query, node)` bit for bit, without walking
  /// the subtrees again (its time does not grow with their size). The
  /// optimizers keep each candidate's `NodeCost` and estimate each relation
  /// subset once, so every candidate costs one call.
  NodeCost CostJoin(const query::Query& query, const plan::PlanNode& node,
                    const NodeCost& left, const NodeCost& right,
                    double out_card) const;

  /// Estimated cost (work units) of a complete or partial plan tree.
  double CostTree(const query::Query& query, const plan::PlanNode& node) const;

  /// Cost of a full plan (sums the forest).
  double CostPlan(const query::Query& query, const plan::PartialPlan& plan) const;

  CardinalityEstimator* estimator() const { return estimator_; }

 private:
  const catalog::Schema& schema_;
  const engine::EngineProfile& profile_;
  CardinalityEstimator* estimator_;
};

}  // namespace neo::optim
