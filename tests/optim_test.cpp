// Tests for the classical optimizer stack: estimators, cost model, DP /
// greedy / random optimizers, and the expected quality ordering between the
// emulated native optimizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <tuple>
#include <unordered_map>

#include "src/datagen/imdb_gen.h"
#include "src/engine/execution_engine.h"
#include "src/engine/latency_model.h"
#include "src/optim/optimizer.h"
#include "src/query/builder.h"
#include "src/query/job_workload.h"

namespace neo::optim {
namespace {

using engine::EngineKind;
using query::PredOp;
using query::Query;
using query::QueryBuilder;

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// ---- Reference optimizers ----------------------------------------------
// The DP and greedy written the direct way: every candidate is costed with
// `CostTree`, which walks its whole subtree. They generate and keep
// candidates in the same order as `DpOptimizer` / `GreedyOptimizer`, so those,
// which cost each candidate from its children's kept costs, must return the
// same plans at bit-for-bit the same cost.

std::vector<plan::NodeRef> ReferenceScans(const catalog::Schema& schema,
                                          const Query& query, int rel_pos) {
  const int table_id = query.relations[static_cast<size_t>(rel_pos)];
  const uint64_t bit = 1ULL << rel_pos;
  std::vector<plan::NodeRef> out;
  out.push_back(plan::MakeScan(plan::ScanOp::kTable, table_id, bit));
  if (engine::IndexScanUsable(schema, query, table_id)) {
    out.push_back(plan::MakeScan(plan::ScanOp::kIndex, table_id, bit));
  }
  return out;
}

constexpr plan::JoinOp kReferenceJoinOps[] = {plan::JoinOp::kHash, plan::JoinOp::kMerge,
                                              plan::JoinOp::kLoop};

struct ReferenceCandidate {
  double cost;
  plan::NodeRef node;
};

void ReferenceKeepTopK(std::vector<ReferenceCandidate>& cands, size_t k) {
  std::sort(cands.begin(), cands.end(),
            [](const ReferenceCandidate& a, const ReferenceCandidate& b) {
              return a.cost < b.cost;
            });
  std::vector<ReferenceCandidate> unique;
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

plan::PartialPlan ReferenceDp(const catalog::Schema& schema, const CostModel& cost,
                              const Query& query, int plans_per_subset) {
  const size_t n = query.num_relations();
  const uint64_t full = (1ULL << n) - 1;
  const size_t k = static_cast<size_t>(plans_per_subset);
  std::unordered_map<uint64_t, std::vector<ReferenceCandidate>> dp;
  for (size_t i = 0; i < n; ++i) {
    std::vector<ReferenceCandidate> cands;
    for (auto& scan : ReferenceScans(schema, query, static_cast<int>(i))) {
      cands.push_back({cost.CostTree(query, *scan), scan});
    }
    ReferenceKeepTopK(cands, k);
    dp[1ULL << i] = std::move(cands);
  }
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
    std::vector<ReferenceCandidate> cands;
    for (uint64_t left = (mask - 1) & mask; left != 0; left = (left - 1) & mask) {
      const uint64_t right = mask ^ left;
      auto lit = dp.find(left);
      auto rit = dp.find(right);
      if (lit == dp.end() || rit == dp.end()) continue;
      if (!query.MasksJoinable(left, right)) continue;
      for (const ReferenceCandidate& lc : lit->second) {
        for (const ReferenceCandidate& rc : rit->second) {
          for (plan::JoinOp op : kReferenceJoinOps) {
            plan::NodeRef joined = plan::MakeJoin(op, lc.node, rc.node);
            cands.push_back({cost.CostTree(query, *joined), joined});
          }
        }
      }
    }
    ReferenceKeepTopK(cands, k);
    dp[mask] = std::move(cands);
  }
  plan::PartialPlan result;
  result.query = &query;
  result.roots.push_back(dp[full].front().node);
  return result;
}

plan::PartialPlan ReferenceGreedy(const catalog::Schema& schema, const CostModel& cost,
                                  const Query& query) {
  const size_t n = query.num_relations();
  int start = 0;
  double best_base = 1e300;
  for (size_t i = 0; i < n; ++i) {
    const double base = cost.estimator()->EstimateBase(query, query.relations[i]);
    if (base < best_base) {
      best_base = base;
      start = static_cast<int>(i);
    }
  }
  plan::NodeRef current;
  double best_cost = 1e300;
  for (auto& scan : ReferenceScans(schema, query, start)) {
    const double c = cost.CostTree(query, *scan);
    if (c < best_cost) {
      best_cost = c;
      current = scan;
    }
  }
  const uint64_t full = (1ULL << n) - 1;
  while (current->rel_mask != full) {
    plan::NodeRef best;
    best_cost = 1e300;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t bit = 1ULL << i;
      if ((current->rel_mask & bit) || !query.MasksJoinable(current->rel_mask, bit)) {
        continue;
      }
      for (auto& scan : ReferenceScans(schema, query, static_cast<int>(i))) {
        for (plan::JoinOp op : kReferenceJoinOps) {
          plan::NodeRef joined = plan::MakeJoin(op, current, scan);
          const double c = cost.CostTree(query, *joined);
          if (c < best_cost) {
            best_cost = c;
            best = joined;
          }
        }
      }
    }
    current = best;
  }
  plan::PartialPlan result;
  result.query = &query;
  result.roots.push_back(current);
  return result;
}

/// Returns each estimate of one query the first time it was computed. For a
/// deterministic estimator (all of them) that is the same double, so a cost
/// model over the memo prices every plan bit for bit as one over `inner`;
/// it only spares the reference optimizers from re-estimating each subset
/// once per candidate that contains it, which would take minutes with the
/// sampling estimator.
class MemoEstimator : public CardinalityEstimator {
 public:
  explicit MemoEstimator(CardinalityEstimator* inner) : inner_(inner) {}

  double EstimateBase(const Query& query, int table_id) override {
    auto it = base_.find(table_id);
    if (it == base_.end()) {
      it = base_.emplace(table_id, inner_->EstimateBase(query, table_id)).first;
    }
    return it->second;
  }
  double EstimateSubset(const Query& query, uint64_t mask) override {
    auto it = subset_.find(mask);
    if (it == subset_.end()) {
      it = subset_.emplace(mask, inner_->EstimateSubset(query, mask)).first;
    }
    return it->second;
  }
  double EstimatePredicate(const Query& query, const query::Predicate& pred) override {
    const auto key = std::make_tuple(pred.table_id, pred.column_idx,
                                     static_cast<int>(pred.op), pred.value_code,
                                     pred.value_str);
    auto it = pred_.find(key);
    if (it == pred_.end()) {
      it = pred_.emplace(key, inner_->EstimatePredicate(query, pred)).first;
    }
    return it->second;
  }
  double TableRows(int table_id) const override { return inner_->TableRows(table_id); }
  std::string name() const override { return inner_->name(); }

 private:
  CardinalityEstimator* inner_;
  std::unordered_map<int, double> base_;
  std::unordered_map<uint64_t, double> subset_;
  std::map<std::tuple<int, int, int, int64_t, std::string>, double> pred_;
};

class OptimFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::GenOptions opt;
    opt.scale = 0.08;
    ds_ = new datagen::Dataset(datagen::GenerateImdb(opt));
    stats_ = new catalog::Statistics(ds_->schema, *ds_->db);
  }
  static void TearDownTestSuite() {
    delete stats_;
    delete ds_;
  }

  /// A 5-way query with a correlated keyword/genre pair (the paper's Fig. 8
  /// example query shape).
  static Query CorrelatedQuery(int id, const std::string& genre,
                               const std::string& stem) {
    QueryBuilder b(ds_->schema, *ds_->db, "fig8");
    b.JoinFk("movie_info", "title")
        .JoinFk("movie_info", "info_type")
        .JoinFk("movie_keyword", "title")
        .JoinFk("movie_keyword", "keyword")
        .PredStr("info_type", "info", PredOp::kEq, "genres")
        .PredStr("movie_info", "info", PredOp::kEq, genre)
        .PredStr("keyword", "keyword", PredOp::kContains, stem);
    Query q = b.Build();
    q.id = id;
    return q;
  }

  /// Runs `DpOptimizer` (top `k` per subset) and `GreedyOptimizer` against
  /// their `CostTree` references on every `step`-th JOB query: the same
  /// plans, at bit-for-bit the same cost.
  static void ExpectOptimizersMatchReferences(CardinalityEstimator* est,
                                              const engine::EngineProfile& profile,
                                              size_t step, int k) {
    const auto wl = query::MakeJobWorkload(ds_->schema, *ds_->db);
    CostModel cost(ds_->schema, profile, est);
    DpOptimizer dp(ds_->schema, &cost, k);
    GreedyOptimizer greedy(ds_->schema, &cost);
    for (size_t i = 0; i < wl.size(); i += step) {
      const Query& q = wl.query(i);
      MemoEstimator memo(est);
      const CostModel memo_cost(ds_->schema, profile, &memo);
      const plan::PartialPlan dp_plan = dp.Optimize(q);
      const plan::PartialPlan dp_want = ReferenceDp(ds_->schema, memo_cost, q, k);
      EXPECT_EQ(dp_plan.Hash(), dp_want.Hash()) << "dp+" << est->name() << " " << q.name;
      EXPECT_EQ(Bits(cost.CostPlan(q, dp_plan)), Bits(memo_cost.CostPlan(q, dp_want)))
          << "dp+" << est->name() << " " << q.name;
      const plan::PartialPlan greedy_plan = greedy.Optimize(q);
      const plan::PartialPlan greedy_want = ReferenceGreedy(ds_->schema, memo_cost, q);
      EXPECT_EQ(greedy_plan.Hash(), greedy_want.Hash())
          << "greedy+" << est->name() << " " << q.name;
      EXPECT_EQ(Bits(cost.CostPlan(q, greedy_plan)),
                Bits(memo_cost.CostPlan(q, greedy_want)))
          << "greedy+" << est->name() << " " << q.name;
    }
  }

  static datagen::Dataset* ds_;
  static catalog::Statistics* stats_;
};

datagen::Dataset* OptimFixture::ds_ = nullptr;
catalog::Statistics* OptimFixture::stats_ = nullptr;

TEST_F(OptimFixture, HistogramEstimatorBasics) {
  HistogramEstimator est(ds_->schema, *stats_, *ds_->db);
  QueryBuilder b(ds_->schema, *ds_->db, "q");
  b.Rel("title").Pred("title", "production_year", PredOp::kGe, 2000);
  Query q = b.Build();
  q.id = 1;
  const double base = est.EstimateBase(q, ds_->schema.TableId("title"));
  const double rows = est.TableRows(ds_->schema.TableId("title"));
  EXPECT_GT(base, 0.0);
  EXPECT_LT(base, rows);
}

TEST_F(OptimFixture, HistogramUnderestimatesCorrelatedJoin) {
  // The independence assumption must *underestimate* the aligned
  // genre/keyword pair (the JOB pathology that motivates Neo).
  HistogramEstimator est(ds_->schema, *stats_, *ds_->db);
  engine::CardinalityOracle oracle(ds_->schema, *ds_->db);
  Query q = CorrelatedQuery(2, "romance", "love");
  const uint64_t full = (1ULL << q.num_relations()) - 1;
  const double truth = oracle.Cardinality(q, full);
  const double est_card = est.EstimateSubset(q, full);
  ASSERT_GT(truth, 0.0);
  EXPECT_LT(est_card, truth);
}

TEST_F(OptimFixture, SamplingBeatsHistogramOnConjunction) {
  // Two correlated predicates on the same table (rating bucket + budget
  // bucket are both popularity/genre driven): sampling evaluates the
  // conjunction on real rows and should have lower log error on average.
  SamplingEstimator samp(ds_->schema, *stats_, *ds_->db);
  HistogramEstimator hist(ds_->schema, *stats_, *ds_->db);
  engine::CardinalityOracle oracle(ds_->schema, *ds_->db);

  double hist_err = 0.0, samp_err = 0.0;
  int trials = 0;
  for (int year = 1960; year <= 2000; year += 10) {
    QueryBuilder b(ds_->schema, *ds_->db, "conj");
    b.Rel("title")
        .Pred("title", "production_year", PredOp::kGe, year)
        .Pred("title", "production_year", PredOp::kLe, year + 5)
        .Pred("title", "popularity", PredOp::kLe, 2);
    Query q = b.Build();
    q.id = 100 + year;
    const int tid = ds_->schema.TableId("title");
    const double truth = std::max(1.0, oracle.BaseCardinality(q, tid));
    hist_err += std::fabs(std::log10(std::max(1.0, hist.EstimateBase(q, tid)) / truth));
    samp_err += std::fabs(std::log10(std::max(1.0, samp.EstimateBase(q, tid)) / truth));
    ++trials;
  }
  EXPECT_LE(samp_err, hist_err * 1.05) << "avg over " << trials << " queries";
}

TEST_F(OptimFixture, TrueEstimatorMatchesOracle) {
  engine::CardinalityOracle oracle(ds_->schema, *ds_->db);
  TrueCardEstimator est(&oracle);
  Query q = CorrelatedQuery(3, "action", "fight");
  const uint64_t full = (1ULL << q.num_relations()) - 1;
  EXPECT_DOUBLE_EQ(est.EstimateSubset(q, full), oracle.Cardinality(q, full));
}

TEST_F(OptimFixture, ErrorInjectionMagnitude) {
  engine::CardinalityOracle oracle(ds_->schema, *ds_->db);
  TrueCardEstimator inner(&oracle);
  ErrorInjectingEstimator err2(&inner, 2.0);
  Query q = CorrelatedQuery(4, "romance", "love");
  const uint64_t full = (1ULL << q.num_relations()) - 1;
  const double truth = inner.EstimateSubset(q, full);
  const double injected = err2.EstimateSubset(q, full);
  const double ratio = injected / truth;
  EXPECT_TRUE(std::fabs(ratio - 100.0) < 1e-6 || std::fabs(ratio - 0.01) < 1e-8);
  // Deterministic.
  EXPECT_DOUBLE_EQ(err2.EstimateSubset(q, full), injected);
  // Zero error is identity.
  ErrorInjectingEstimator err0(&inner, 0.0);
  EXPECT_DOUBLE_EQ(err0.EstimateSubset(q, full), truth);
}

TEST_F(OptimFixture, DpProducesCompleteValidPlans) {
  auto native = MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
  const auto wl = query::MakeJobWorkload(ds_->schema, *ds_->db);
  for (size_t i = 0; i < wl.size(); i += 17) {
    const Query& q = wl.query(i);
    const plan::PartialPlan p = native.optimizer->Optimize(q);
    EXPECT_TRUE(p.IsComplete()) << q.name;
    EXPECT_EQ(p.CoveredMask(), (1ULL << q.num_relations()) - 1) << q.name;
  }
}

TEST_F(OptimFixture, DpBeatsRandomOnAverage) {
  auto native = MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
  RandomOptimizer random(ds_->schema, 5);
  engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
  const auto wl = query::MakeJobWorkload(ds_->schema, *ds_->db);
  double dp_total = 0.0, random_total = 0.0;
  for (size_t i = 0; i < wl.size(); i += 11) {
    const Query& q = wl.query(i);
    dp_total += engine.ExecutePlan(q, native.optimizer->Optimize(q));
    random_total += engine.ExecutePlan(q, random.Optimize(q));
  }
  EXPECT_LT(dp_total, random_total);
}

TEST_F(OptimFixture, GreedyProducesLeftDeepPlans) {
  auto native = MakeNativeOptimizer(EngineKind::kSqlite, ds_->schema, *ds_->db);
  const Query q = CorrelatedQuery(5, "horror", "ghost");
  const plan::PartialPlan p = native.optimizer->Optimize(q);
  ASSERT_TRUE(p.IsComplete());
  // Left-deep: every right child is a leaf.
  const plan::PlanNode* node = p.roots[0].get();
  while (node->is_join) {
    EXPECT_FALSE(node->right->is_join);
    node = node->left.get();
  }
}

TEST_F(OptimFixture, RandomOptimizerDeterministicPerSeed) {
  const Query q = CorrelatedQuery(6, "comedy", "joke");
  RandomOptimizer r1(ds_->schema, 42), r2(ds_->schema, 42), r3(ds_->schema, 43);
  EXPECT_EQ(r1.Optimize(q).Hash(), r2.Optimize(q).Hash());
  // A different seed should usually differ (not guaranteed, but 5-way plans
  // have a large space; check across two queries).
  const Query q2 = CorrelatedQuery(7, "scifi", "robot");
  const bool same = r1.Optimize(q2).Hash() == r3.Optimize(q2).Hash();
  EXPECT_FALSE(same && r1.Optimize(q).Hash() == r3.Optimize(q).Hash());
}

TEST_F(OptimFixture, TrueCardDpNoWorseThanHistogramDp) {
  // With exact cardinalities the same DP should find plans at least as good
  // on average (paper §6.4.3 motivation).
  auto pg = MakeNativeOptimizer(EngineKind::kPostgres, ds_->schema, *ds_->db);
  engine::ExecutionEngine engine(ds_->schema, *ds_->db, EngineKind::kPostgres);
  TrueCardEstimator true_est(&engine.oracle());
  CostModel true_cost(ds_->schema, engine::GetEngineProfile(EngineKind::kPostgres),
                      &true_est);
  DpOptimizer true_dp(ds_->schema, &true_cost);

  const auto wl = query::MakeJobWorkload(ds_->schema, *ds_->db);
  double hist_total = 0.0, true_total = 0.0;
  for (size_t i = 0; i < wl.size(); i += 7) {
    const Query& q = wl.query(i);
    hist_total += engine.ExecutePlan(q, pg.optimizer->Optimize(q));
    true_total += engine.ExecutePlan(q, true_dp.Optimize(q));
  }
  EXPECT_LT(true_total, hist_total * 1.1);
}

TEST_F(OptimFixture, DpAndGreedyMatchCostTreeReferencesOnEveryJobQuery) {
  const engine::EngineProfile& pg = engine::GetEngineProfile(EngineKind::kPostgres);
  HistogramEstimator hist(ds_->schema, *stats_, *ds_->db);
  ExpectOptimizersMatchReferences(&hist, pg, /*step=*/1, /*k=*/3);
  ErrorInjectingEstimator error2(&hist, 2.0);
  ExpectOptimizersMatchReferences(&error2, pg, /*step=*/1, /*k=*/3);
}

TEST_F(OptimFixture, DpAndGreedyMatchCostTreeReferencesWithTrueAndSampledCards) {
  engine::CardinalityOracle oracle(ds_->schema, *ds_->db);
  TrueCardEstimator truth(&oracle);
  ExpectOptimizersMatchReferences(&truth, engine::GetEngineProfile(EngineKind::kPostgres),
                                  /*step=*/5, /*k=*/3);
  // The SQL Server / Oracle natives: DP over sampled estimates, top 4.
  SamplingEstimator sampling(ds_->schema, *stats_, *ds_->db);
  ExpectOptimizersMatchReferences(&sampling, engine::GetEngineProfile(EngineKind::kMssql),
                                  /*step=*/5, /*k=*/4);
}

/// The cost model's canonical edge between a join's two sides (the query's
/// first edge connecting them): key column ids per side, and the right
/// side's table and column.
struct CanonicalEdge {
  int left_gid = -1;
  int right_gid = -1;
  int right_table = -1;
  int right_col = -1;
};

CanonicalEdge EdgeOf(const catalog::Schema& schema, const Query& q,
                     const plan::PlanNode& node) {
  for (const query::JoinEdge& j : q.joins) {
    const int li = q.RelationIndex(j.left_table);
    const int ri = q.RelationIndex(j.right_table);
    if (li < 0 || ri < 0) continue;
    const uint64_t lbit = 1ULL << li;
    const uint64_t rbit = 1ULL << ri;
    const bool forward = (node.left->rel_mask & lbit) && (node.right->rel_mask & rbit);
    const bool backward = (node.left->rel_mask & rbit) && (node.right->rel_mask & lbit);
    if (!forward && !backward) continue;
    CanonicalEdge e;
    const int lt = forward ? j.left_table : j.right_table;
    const int lc = forward ? j.left_column : j.right_column;
    e.right_table = forward ? j.right_table : j.left_table;
    e.right_col = forward ? j.right_column : j.left_column;
    e.left_gid = schema.table(lt).columns[static_cast<size_t>(lc)].global_id;
    e.right_gid =
        schema.table(e.right_table).columns[static_cast<size_t>(e.right_col)].global_id;
    return e;
  }
  return {};
}

struct JoinCaseCounts {
  int joins = 0;
  int index_nested_loops = 0;
  int presorted_merges = 0;
  int spilling_hashes = 0;
};

/// At every join under `node`: `CostJoin` over the children's `CostNode`s
/// and the subset's estimate equals `CostNode` of the join (which is what
/// `CostTree` returns) in all three fields, bit for bit.
void ExpectCostJoinMatchesCostTree(const catalog::Schema& schema, const CostModel& cost,
                                   const engine::EngineProfile& profile, const Query& q,
                                   const plan::PlanNode& node, JoinCaseCounts* counts) {
  if (!node.is_join) return;
  ExpectCostJoinMatchesCostTree(schema, cost, profile, q, *node.left, counts);
  ExpectCostJoinMatchesCostTree(schema, cost, profile, q, *node.right, counts);
  const CostModel::NodeCost left = cost.CostNode(q, *node.left);
  const CostModel::NodeCost right = cost.CostNode(q, *node.right);
  const CostModel::NodeCost got = cost.CostJoin(
      q, node, left, right, std::max(1.0, cost.estimator()->EstimateSubset(q, node.rel_mask)));
  const CostModel::NodeCost want = cost.CostNode(q, node);
  EXPECT_EQ(Bits(got.work), Bits(want.work)) << q.name;
  EXPECT_EQ(Bits(got.work), Bits(cost.CostTree(q, node))) << q.name;
  EXPECT_EQ(Bits(got.out_card), Bits(want.out_card)) << q.name;
  EXPECT_EQ(got.sorted_gid, want.sorted_gid) << q.name;

  ++counts->joins;
  const CanonicalEdge e = EdgeOf(schema, q, node);
  if (node.join_op == plan::JoinOp::kLoop && !node.right->is_join &&
      node.right->scan_op == plan::ScanOp::kIndex && e.right_table == node.right->table_id) {
    const catalog::TableInfo& info = schema.table(e.right_table);
    if (info.columns[static_cast<size_t>(e.right_col)].indexed ||
        info.primary_key == e.right_col) {
      ++counts->index_nested_loops;
    }
  }
  if (node.join_op == plan::JoinOp::kMerge &&
      ((e.left_gid >= 0 && left.sorted_gid == e.left_gid) ||
       (e.right_gid >= 0 && right.sorted_gid == e.right_gid))) {
    ++counts->presorted_merges;
  }
  if (node.join_op == plan::JoinOp::kHash && right.out_card > profile.hash_mem_rows) {
    ++counts->spilling_hashes;
  }
}

TEST_F(OptimFixture, CostJoinOverChildCostsEqualsCostTreeAtEveryJoin) {
  const auto wl = query::MakeJobWorkload(ds_->schema, *ds_->db);
  const engine::EngineProfile& profile = engine::GetEngineProfile(EngineKind::kPostgres);
  HistogramEstimator hist(ds_->schema, *stats_, *ds_->db);
  ErrorInjectingEstimator error2(&hist, 2.0);
  // Random plans bring the loop and merge joins the optimizers avoid; the
  // inflated estimates make hash joins spill.
  for (CardinalityEstimator* est : {static_cast<CardinalityEstimator*>(&hist),
                                    static_cast<CardinalityEstimator*>(&error2)}) {
    SCOPED_TRACE(est->name());
    CostModel cost(ds_->schema, profile, est);
    DpOptimizer dp(ds_->schema, &cost);
    GreedyOptimizer greedy(ds_->schema, &cost);
    RandomOptimizer random(ds_->schema, 7);
    JoinCaseCounts counts;
    for (size_t i = 0; i < wl.size(); i += 3) {
      const Query& q = wl.query(i);
      for (const plan::PartialPlan& p :
           {dp.Optimize(q), greedy.Optimize(q), random.Optimize(q), random.Optimize(q)}) {
        ExpectCostJoinMatchesCostTree(ds_->schema, cost, profile, q, *p.roots[0], &counts);
      }
    }
    EXPECT_GT(counts.joins, 0);
    EXPECT_GT(counts.index_nested_loops, 0);
    EXPECT_GT(counts.presorted_merges, 0);
    if (est == &error2) {
      EXPECT_GT(counts.spilling_hashes, 0);
    }
  }
}

}  // namespace
}  // namespace neo::optim
