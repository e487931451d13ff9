// Parameterized property tests (TEST_P) sweeping queries from all three
// workloads. These check the DESIGN.md §4 invariants on every query shape
// the system generates, not just hand-picked cases:
//   - classical optimizers emit complete plans whose every join subtree is
//     a connected subgraph of the query's join graph;
//   - the latency model is positive, deterministic, and agrees across
//     engines on relative plan orderings only where expected;
//   - the cardinality oracle is deterministic and join-order independent;
//   - plan encodings satisfy the §3.2 union/one-hot structure;
//   - search children preserve the subplan relation and cover masks.
#include <gtest/gtest.h>

#include "src/core/neo.h"
#include "src/datagen/corp_gen.h"
#include "src/datagen/imdb_gen.h"
#include "src/datagen/tpch_gen.h"
#include "src/query/corp_workload.h"
#include "src/query/job_workload.h"
#include "src/query/tpch_workload.h"

namespace neo {
namespace {

struct WorkloadCase {
  const char* name;
  int query_stride;
};

class WorkloadPropertyTest : public ::testing::TestWithParam<WorkloadCase> {
 protected:
  struct Bundle {
    datagen::Dataset ds;
    query::Workload wl{"none"};
  };

  static Bundle* GetBundle(const std::string& name) {
    static std::map<std::string, std::unique_ptr<Bundle>> cache;
    auto it = cache.find(name);
    if (it != cache.end()) return it->second.get();
    auto bundle = std::make_unique<Bundle>();
    datagen::GenOptions opt;
    opt.scale = 0.04;
    if (name == "job") {
      bundle->ds = datagen::GenerateImdb(opt);
      bundle->wl = query::MakeJobWorkload(bundle->ds.schema, *bundle->ds.db);
    } else if (name == "extjob") {
      bundle->ds = datagen::GenerateImdb(opt);
      bundle->wl = query::MakeExtJobWorkload(bundle->ds.schema, *bundle->ds.db);
    } else if (name == "tpch") {
      bundle->ds = datagen::GenerateTpch(opt);
      bundle->wl = query::MakeTpchWorkload(bundle->ds.schema, *bundle->ds.db);
    } else {
      bundle->ds = datagen::GenerateCorp(opt);
      bundle->wl = query::MakeCorpWorkload(bundle->ds.schema, *bundle->ds.db);
    }
    return cache.emplace(name, std::move(bundle)).first->second.get();
  }

  std::vector<const query::Query*> SampledQueries() {
    Bundle* b = GetBundle(GetParam().name);
    std::vector<const query::Query*> out;
    for (size_t i = 0; i < b->wl.size();
         i += static_cast<size_t>(GetParam().query_stride)) {
      out.push_back(&b->wl.query(i));
    }
    return out;
  }
};

/// Every join subtree of a plan must cover a connected relation subset.
void CheckConnectedSubtrees(const query::Query& q, const plan::PlanNode& node) {
  if (!node.is_join) return;
  EXPECT_TRUE(q.SubsetConnected(node.rel_mask));
  CheckConnectedSubtrees(q, *node.left);
  CheckConnectedSubtrees(q, *node.right);
}

TEST_P(WorkloadPropertyTest, DpPlansAreValidAndConnected) {
  Bundle* b = GetBundle(GetParam().name);
  auto native = optim::MakeNativeOptimizer(engine::EngineKind::kPostgres,
                                           b->ds.schema, *b->ds.db);
  for (const query::Query* q : SampledQueries()) {
    const plan::PartialPlan p = native.optimizer->Optimize(*q);
    ASSERT_TRUE(p.IsComplete()) << q->name;
    EXPECT_EQ(p.CoveredMask(), (1ULL << q->num_relations()) - 1) << q->name;
    CheckConnectedSubtrees(*q, *p.roots[0]);
  }
}

TEST_P(WorkloadPropertyTest, GreedyPlansAreValid) {
  Bundle* b = GetBundle(GetParam().name);
  auto native =
      optim::MakeNativeOptimizer(engine::EngineKind::kSqlite, b->ds.schema, *b->ds.db);
  for (const query::Query* q : SampledQueries()) {
    const plan::PartialPlan p = native.optimizer->Optimize(*q);
    ASSERT_TRUE(p.IsComplete()) << q->name;
    CheckConnectedSubtrees(*q, *p.roots[0]);
  }
}

TEST_P(WorkloadPropertyTest, LatencyPositiveDeterministicOnAllEngines) {
  Bundle* b = GetBundle(GetParam().name);
  auto native = optim::MakeNativeOptimizer(engine::EngineKind::kPostgres,
                                           b->ds.schema, *b->ds.db);
  for (engine::EngineKind ek :
       {engine::EngineKind::kPostgres, engine::EngineKind::kSqlite,
        engine::EngineKind::kMssql, engine::EngineKind::kOracle}) {
    engine::ExecutionEngine e1(b->ds.schema, *b->ds.db, ek);
    engine::ExecutionEngine e2(b->ds.schema, *b->ds.db, ek);
    for (const query::Query* q : SampledQueries()) {
      const plan::PartialPlan p = native.optimizer->Optimize(*q);
      const double t1 = e1.ExecutePlan(*q, p);
      const double t2 = e2.ExecutePlan(*q, p);
      EXPECT_GT(t1, 0.0) << q->name;
      EXPECT_DOUBLE_EQ(t1, t2) << q->name;
    }
  }
}

TEST_P(WorkloadPropertyTest, OracleDeterministicAcrossInstances) {
  Bundle* b = GetBundle(GetParam().name);
  engine::CardinalityOracle o1(b->ds.schema, *b->ds.db);
  engine::CardinalityOracle o2(b->ds.schema, *b->ds.db);
  for (const query::Query* q : SampledQueries()) {
    const uint64_t full = (1ULL << q->num_relations()) - 1;
    EXPECT_DOUBLE_EQ(o1.Cardinality(*q, full), o2.Cardinality(*q, full)) << q->name;
    // Warm-cache re-read agrees.
    EXPECT_DOUBLE_EQ(o1.Cardinality(*q, full), o2.Cardinality(*q, full));
  }
}

TEST_P(WorkloadPropertyTest, PlanEncodingStructureInvariants) {
  Bundle* b = GetBundle(GetParam().name);
  featurize::Featurizer feat(b->ds.schema, *b->ds.db, {});
  auto native = optim::MakeNativeOptimizer(engine::EngineKind::kPostgres,
                                           b->ds.schema, *b->ds.db);
  const int t = b->ds.schema.num_tables();
  for (const query::Query* q : SampledQueries()) {
    const plan::PartialPlan p = native.optimizer->Optimize(*q);
    nn::TreeStructure tree;
    nn::Matrix feats;
    feat.EncodePlan(*q, p, &tree, &feats);
    ASSERT_EQ(static_cast<size_t>(feats.rows()), tree.NumNodes());
    for (int i = 0; i < feats.rows(); ++i) {
      const float* row = feats.Row(i);
      // At most one join-op bit.
      EXPECT_LE(row[0] + row[1] + row[2], 1.0f);
      const int l = tree.left[static_cast<size_t>(i)];
      const int r = tree.right[static_cast<size_t>(i)];
      ASSERT_EQ(l >= 0, r >= 0);  // Binary: both children or neither.
      if (l >= 0) {
        // Internal nodes: scan bits are the union of the children (§3.2).
        for (int c = 3; c < 3 + 2 * t; ++c) {
          EXPECT_FLOAT_EQ(row[c],
                          std::max(feats.At(l, c), feats.At(r, c)))
              << q->name << " channel " << c;
        }
      }
    }
  }
}

TEST_P(WorkloadPropertyTest, SearchChildrenPreserveSubplanRelation) {
  Bundle* b = GetBundle(GetParam().name);
  featurize::Featurizer feat(b->ds.schema, *b->ds.db, {});
  engine::ExecutionEngine engine(b->ds.schema, *b->ds.db,
                                 engine::EngineKind::kPostgres);
  core::NeoConfig cfg;
  cfg.net.query_fc = {16};
  cfg.net.tree_channels = {8};
  cfg.net.head_fc = {8};
  core::Neo neo(&feat, &engine, cfg);
  for (const query::Query* q : SampledQueries()) {
    const plan::PartialPlan initial = plan::PartialPlan::Initial(*q);
    // Walk two levels of children.
    const auto kids = neo.search().Children(*q, initial);
    ASSERT_FALSE(kids.empty()) << q->name;
    for (size_t i = 0; i < kids.size(); i += 3) {
      EXPECT_TRUE(plan::IsSubplanOf(initial, kids[i]));
      EXPECT_EQ(kids[i].CoveredMask(), initial.CoveredMask());
      const auto grandkids = neo.search().Children(*q, kids[i]);
      if (!kids[i].IsComplete()) {
        ASSERT_FALSE(grandkids.empty());
      }
      for (size_t g = 0; g < grandkids.size(); g += 5) {
        EXPECT_TRUE(plan::IsSubplanOf(kids[i], grandkids[g]));
      }
    }
  }
}

TEST_P(WorkloadPropertyTest, SearchProducesExecutablePlans) {
  Bundle* b = GetBundle(GetParam().name);
  featurize::Featurizer feat(b->ds.schema, *b->ds.db, {});
  engine::ExecutionEngine engine(b->ds.schema, *b->ds.db,
                                 engine::EngineKind::kPostgres);
  core::NeoConfig cfg;
  cfg.net.query_fc = {16};
  cfg.net.tree_channels = {8};
  cfg.net.head_fc = {8};
  cfg.search.max_expansions = 20;
  core::Neo neo(&feat, &engine, cfg);
  for (const query::Query* q : SampledQueries()) {
    const core::SearchResult r = neo.Plan(*q);
    ASSERT_TRUE(r.plan.IsComplete()) << q->name;
    CheckConnectedSubtrees(*q, *r.plan.roots[0]);
    EXPECT_GT(engine.ExecutePlan(*q, r.plan), 0.0) << q->name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadPropertyTest,
                         ::testing::Values(WorkloadCase{"job", 11},
                                           WorkloadCase{"extjob", 3},
                                           WorkloadCase{"tpch", 13},
                                           WorkloadCase{"corp", 17}),
                         [](const ::testing::TestParamInfo<WorkloadCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace neo
