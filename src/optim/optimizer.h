// Classical optimizer interface + the per-engine "native optimizer" factory.
//
// These play two roles from the paper:
//   1. the *expert* that bootstraps Neo's experience (§2, "Expertise
//      Collection") — we use the PostgreSQL-like DP + histogram optimizer;
//   2. the *native baselines* each engine is compared against in Fig. 9/10
//      (PostgreSQL, SQLite's simpler greedy planner, and the stronger
//      sampling-based commercial optimizers of MS SQL Server and Oracle).
#pragma once

#include <memory>
#include <string>

#include "src/engine/execution_engine.h"
#include "src/optim/cost_model.h"
#include "src/plan/plan.h"
#include "src/query/query.h"

namespace neo::optim {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Produces a complete physical plan for `query`.
  virtual plan::PartialPlan Optimize(const query::Query& query) = 0;

  virtual std::string name() const = 0;
};

/// Selinger-style dynamic programming over connected subgraphs with physical
/// operator + access path selection. Keeps the top-K plans per relation
/// subset to approximate "interesting orders". Each kept plan carries its
/// `CostModel::NodeCost`, and each connected subset is estimated once
/// (`EstimateSubset`), so a candidate join costs one `CostJoin` call instead
/// of a walk of its subtree; the costs, and so the plans, equal costing
/// every candidate with `CostTree`.
class DpOptimizer : public Optimizer {
 public:
  DpOptimizer(const catalog::Schema& schema, const CostModel* cost_model,
              int plans_per_subset = 3)
      : schema_(schema), cost_(cost_model), plans_per_subset_(plans_per_subset) {}

  plan::PartialPlan Optimize(const query::Query& query) override;
  std::string name() const override { return "dp+" + cost_->estimator()->name(); }

 private:
  const catalog::Schema& schema_;
  const CostModel* cost_;
  int plans_per_subset_;
};

/// SQLite-style greedy left-deep planner: start from the smallest estimated
/// relation, repeatedly add the join (relation, operator, access path) with
/// the lowest incremental cost. Like the DP, it keeps the current tree's
/// `NodeCost`, estimates each extended subset once and costs each candidate
/// with one `CostJoin` call.
class GreedyOptimizer : public Optimizer {
 public:
  GreedyOptimizer(const catalog::Schema& schema, const CostModel* cost_model)
      : schema_(schema), cost_(cost_model) {}

  plan::PartialPlan Optimize(const query::Query& query) override;
  std::string name() const override { return "greedy+" + cost_->estimator()->name(); }

 private:
  const catalog::Schema& schema_;
  const CostModel* cost_;
};

/// Uniform random complete plans (valid join orders, random operators and
/// access paths). Used by the no-demonstration experiment (§6.3.3) and as a
/// deliberately terrible bootstrap expert for the ablation bench.
class RandomOptimizer : public Optimizer {
 public:
  RandomOptimizer(const catalog::Schema& schema, uint64_t seed)
      : schema_(schema), rng_(seed) {}

  plan::PartialPlan Optimize(const query::Query& query) override;
  std::string name() const override { return "random"; }

 private:
  const catalog::Schema& schema_;
  util::Rng rng_;
};

/// All state backing a native optimizer (estimator + cost model + search).
struct NativeOptimizer {
  std::unique_ptr<catalog::Statistics> stats;
  std::unique_ptr<CardinalityEstimator> estimator;
  std::unique_ptr<CostModel> cost_model;
  std::unique_ptr<Optimizer> optimizer;
};

/// Builds the native optimizer matching an engine:
///   PostgreSQL -> DP + histograms        SQLite -> greedy + histograms
///   SQLServer  -> DP + sampling          Oracle -> DP + sampling
NativeOptimizer MakeNativeOptimizer(engine::EngineKind kind,
                                    const catalog::Schema& schema,
                                    const storage::Database& db);

}  // namespace neo::optim
