#include "src/optim/optimizer.h"

#include <algorithm>
#include <unordered_map>

#include "src/engine/latency_model.h"
#include "src/util/status.h"

namespace neo::optim {

namespace {

/// Scan candidates for one relation: table scan always, index scan when
/// usable for this query.
std::vector<plan::NodeRef> ScanCandidates(const catalog::Schema& schema,
                                          const query::Query& query, int rel_pos) {
  const int table_id = query.relations[static_cast<size_t>(rel_pos)];
  const uint64_t bit = 1ULL << rel_pos;
  std::vector<plan::NodeRef> out;
  out.push_back(plan::MakeScan(plan::ScanOp::kTable, table_id, bit));
  if (engine::IndexScanUsable(schema, query, table_id)) {
    out.push_back(plan::MakeScan(plan::ScanOp::kIndex, table_id, bit));
  }
  return out;
}

constexpr plan::JoinOp kAllJoinOps[] = {plan::JoinOp::kHash, plan::JoinOp::kMerge,
                                        plan::JoinOp::kLoop};

/// A subplan with its cost, kept so a join over it is costed by one
/// `CostJoin` call instead of a walk of the subplan.
struct Candidate {
  CostModel::NodeCost cost;
  plan::NodeRef node;
};

void KeepTopK(std::vector<Candidate>& cands, size_t k) {
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.cost.work < b.cost.work;
            });
  // Drop structural duplicates (same hash) keeping the cheapest.
  std::vector<Candidate> unique;
  for (const auto& c : cands) {
    bool dup = false;
    for (const auto& u : unique) {
      if (u.node->hash == c.node->hash) {
        dup = true;
        break;
      }
    }
    if (!dup) unique.push_back(c);
    if (unique.size() >= k) break;
  }
  cands = std::move(unique);
}

}  // namespace

plan::PartialPlan DpOptimizer::Optimize(const query::Query& query) {
  const size_t n = query.num_relations();
  NEO_CHECK(n >= 1);
  const uint64_t full = (n == 64) ? ~0ULL : ((1ULL << n) - 1);
  std::unordered_map<uint64_t, std::vector<Candidate>> dp;

  // Base: single relations.
  for (size_t i = 0; i < n; ++i) {
    std::vector<Candidate> cands;
    for (auto& scan : ScanCandidates(schema_, query, static_cast<int>(i))) {
      cands.push_back({cost_->CostNode(query, *scan), scan});
    }
    KeepTopK(cands, static_cast<size_t>(plans_per_subset_));
    dp[1ULL << i] = std::move(cands);
  }

  // Masks by increasing population count.
  std::vector<uint64_t> masks;
  for (uint64_t mask = 1; mask <= full; ++mask) {
    if (__builtin_popcountll(mask) >= 2 && query.SubsetConnected(mask)) {
      masks.push_back(mask);
    }
  }
  std::sort(masks.begin(), masks.end(), [](uint64_t a, uint64_t b) {
    const int pa = __builtin_popcountll(a);
    const int pb = __builtin_popcountll(b);
    return pa < pb || (pa == pb && a < b);
  });

  for (uint64_t mask : masks) {
    // Every candidate for `mask` has the same output estimate.
    const double out_card =
        std::max(1.0, cost_->estimator()->EstimateSubset(query, mask));
    std::vector<Candidate> cands;
    // All ordered partitions (left, right): orientation matters (probe/build,
    // outer/inner).
    for (uint64_t left = (mask - 1) & mask; left != 0; left = (left - 1) & mask) {
      const uint64_t right = mask ^ left;
      auto lit = dp.find(left);
      auto rit = dp.find(right);
      if (lit == dp.end() || rit == dp.end()) continue;
      if (!query.MasksJoinable(left, right)) continue;
      for (const Candidate& lc : lit->second) {
        for (const Candidate& rc : rit->second) {
          for (plan::JoinOp op : kAllJoinOps) {
            plan::NodeRef joined = plan::MakeJoin(op, lc.node, rc.node);
            cands.push_back(
                {cost_->CostJoin(query, *joined, lc.cost, rc.cost, out_card), joined});
          }
        }
      }
    }
    NEO_CHECK_MSG(!cands.empty(), "DP: no plan for connected subset");
    KeepTopK(cands, static_cast<size_t>(plans_per_subset_));
    dp[mask] = std::move(cands);
  }

  plan::PartialPlan result;
  result.query = &query;
  result.roots.push_back(dp[full].front().node);
  return result;
}

plan::PartialPlan GreedyOptimizer::Optimize(const query::Query& query) {
  const size_t n = query.num_relations();
  // Start from the relation with the smallest estimated filtered size.
  int start = 0;
  double best_base = 1e300;
  for (size_t i = 0; i < n; ++i) {
    const double base = cost_->estimator()->EstimateBase(query, query.relations[i]);
    if (base < best_base) {
      best_base = base;
      start = static_cast<int>(i);
    }
  }
  auto pick_scan = [&](int rel_pos) {
    Candidate best;
    best.cost.work = 1e300;
    for (auto& scan : ScanCandidates(schema_, query, rel_pos)) {
      const CostModel::NodeCost c = cost_->CostNode(query, *scan);
      if (c.work < best.cost.work) best = {c, scan};
    }
    return best;
  };

  Candidate current = pick_scan(start);
  uint64_t mask = 1ULL << start;
  const uint64_t full = (n == 64) ? ~0ULL : ((1ULL << n) - 1);

  while (mask != full) {
    Candidate best;
    best.cost.work = 1e300;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t bit = 1ULL << i;
      if (mask & bit) continue;
      if (!query.MasksJoinable(mask, bit)) continue;
      const double out_card =
          std::max(1.0, cost_->estimator()->EstimateSubset(query, mask | bit));
      for (auto& scan : ScanCandidates(schema_, query, static_cast<int>(i))) {
        const CostModel::NodeCost scan_cost = cost_->CostNode(query, *scan);
        for (plan::JoinOp op : kAllJoinOps) {
          plan::NodeRef joined = plan::MakeJoin(op, current.node, scan);
          const CostModel::NodeCost c =
              cost_->CostJoin(query, *joined, current.cost, scan_cost, out_card);
          if (c.work < best.cost.work) best = {c, std::move(joined)};
        }
      }
    }
    NEO_CHECK_MSG(best.node != nullptr, "greedy: stuck (disconnected?)");
    current = std::move(best);
    mask = current.node->rel_mask;
  }

  plan::PartialPlan result;
  result.query = &query;
  result.roots.push_back(current.node);
  return result;
}

plan::PartialPlan RandomOptimizer::Optimize(const query::Query& query) {
  const size_t n = query.num_relations();
  std::vector<plan::NodeRef> roots;
  for (size_t i = 0; i < n; ++i) {
    auto cands = ScanCandidates(schema_, query, static_cast<int>(i));
    roots.push_back(cands[rng_.NextBounded(cands.size())]);
  }
  while (roots.size() > 1) {
    // Random joinable pair, random operator.
    std::vector<std::pair<size_t, size_t>> joinable;
    for (size_t a = 0; a < roots.size(); ++a) {
      for (size_t b = 0; b < roots.size(); ++b) {
        if (a == b) continue;
        if (query.MasksJoinable(roots[a]->rel_mask, roots[b]->rel_mask)) {
          joinable.emplace_back(a, b);
        }
      }
    }
    NEO_CHECK(!joinable.empty());
    const auto [a, b] = joinable[rng_.NextBounded(joinable.size())];
    const plan::JoinOp op = kAllJoinOps[rng_.NextBounded(3)];
    plan::NodeRef joined = plan::MakeJoin(op, roots[a], roots[b]);
    std::vector<plan::NodeRef> next;
    for (size_t i = 0; i < roots.size(); ++i) {
      if (i != a && i != b) next.push_back(roots[i]);
    }
    next.push_back(joined);
    roots = std::move(next);
  }
  plan::PartialPlan result;
  result.query = &query;
  result.roots = std::move(roots);
  return result;
}

NativeOptimizer MakeNativeOptimizer(engine::EngineKind kind,
                                    const catalog::Schema& schema,
                                    const storage::Database& db) {
  NativeOptimizer native;
  native.stats = std::make_unique<catalog::Statistics>(schema, db);
  const engine::EngineProfile& profile = engine::GetEngineProfile(kind);
  switch (kind) {
    case engine::EngineKind::kPostgres:
      native.estimator = std::make_unique<HistogramEstimator>(schema, *native.stats, db);
      native.cost_model =
          std::make_unique<CostModel>(schema, profile, native.estimator.get());
      native.optimizer = std::make_unique<DpOptimizer>(schema, native.cost_model.get());
      break;
    case engine::EngineKind::kSqlite:
      native.estimator = std::make_unique<HistogramEstimator>(schema, *native.stats, db);
      native.cost_model =
          std::make_unique<CostModel>(schema, profile, native.estimator.get());
      native.optimizer =
          std::make_unique<GreedyOptimizer>(schema, native.cost_model.get());
      break;
    case engine::EngineKind::kMssql:
    case engine::EngineKind::kOracle:
      native.estimator = std::make_unique<SamplingEstimator>(schema, *native.stats, db);
      native.cost_model =
          std::make_unique<CostModel>(schema, profile, native.estimator.get());
      native.optimizer = std::make_unique<DpOptimizer>(schema, native.cost_model.get(),
                                                       /*plans_per_subset=*/4);
      break;
  }
  return native;
}

}  // namespace neo::optim
