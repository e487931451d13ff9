// Featurization tests: paper §3.2 invariants (adjacency encoding, scan-bit
// union, unspecified = table|index), encoding variants, cardinality channel.
#include <gtest/gtest.h>

#include "src/datagen/imdb_gen.h"
#include "src/featurize/featurizer.h"
#include "src/query/builder.h"

namespace neo::featurize {
namespace {

using plan::JoinOp;
using plan::MakeJoin;
using plan::MakeScan;
using plan::PartialPlan;
using plan::ScanOp;
using query::PredOp;
using query::Query;
using query::QueryBuilder;

class FeaturizeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::GenOptions opt;
    opt.scale = 0.04;
    ds_ = new datagen::Dataset(datagen::GenerateImdb(opt));
    stats_ = new catalog::Statistics(ds_->schema, *ds_->db);
    hist_ = new optim::HistogramEstimator(ds_->schema, *stats_, *ds_->db);
  }
  static void TearDownTestSuite() {
    delete hist_;
    delete stats_;
    delete ds_;
  }
  static Query ThreeWay(int id) {
    QueryBuilder b(ds_->schema, *ds_->db, "q");
    b.JoinFk("movie_keyword", "title")
        .JoinFk("movie_keyword", "keyword")
        .PredStr("keyword", "keyword", PredOp::kContains, "love")
        .Pred("title", "production_year", PredOp::kGe, 1990);
    Query q = b.Build();
    q.id = id;
    return q;
  }
  static datagen::Dataset* ds_;
  static catalog::Statistics* stats_;
  static optim::HistogramEstimator* hist_;
};

datagen::Dataset* FeaturizeFixture::ds_ = nullptr;
catalog::Statistics* FeaturizeFixture::stats_ = nullptr;
optim::HistogramEstimator* FeaturizeFixture::hist_ = nullptr;

TEST_F(FeaturizeFixture, DimsFor1Hot) {
  Featurizer f(ds_->schema, *ds_->db, {});
  const int t = ds_->schema.num_tables();
  EXPECT_EQ(f.query_dim(), t * (t - 1) / 2 + ds_->schema.num_columns());
  EXPECT_EQ(f.plan_dim(), 3 + 2 * t);
}

TEST_F(FeaturizeFixture, QueryEncodingAdjacencyAndPredicates) {
  Featurizer f(ds_->schema, *ds_->db, {});
  const Query q = ThreeWay(1);
  const nn::Matrix enc = f.EncodeQuery(q);

  // Exactly two join edges set in the adjacency part.
  const int t = ds_->schema.num_tables();
  const int adj = t * (t - 1) / 2;
  float adj_sum = 0;
  for (int i = 0; i < adj; ++i) adj_sum += enc.At(0, i);
  EXPECT_FLOAT_EQ(adj_sum, 2.0f);

  // Predicate slots: exactly the two predicated columns are hot.
  const int kw_gid = ds_->schema.GlobalColumnId("keyword", "keyword");
  const int year_gid = ds_->schema.GlobalColumnId("title", "production_year");
  float pred_sum = 0;
  for (int i = adj; i < f.query_dim(); ++i) pred_sum += enc.At(0, i);
  EXPECT_FLOAT_EQ(pred_sum, 2.0f);
  EXPECT_FLOAT_EQ(enc.At(0, adj + kw_gid), 1.0f);
  EXPECT_FLOAT_EQ(enc.At(0, adj + year_gid), 1.0f);
}

TEST_F(FeaturizeFixture, HistogramEncodingUsesSelectivities) {
  FeaturizerConfig cfg;
  cfg.encoding = PredicateEncoding::kHistogram;
  Featurizer f(ds_->schema, *ds_->db, cfg, hist_);
  const Query q = ThreeWay(2);
  const nn::Matrix enc = f.EncodeQuery(q);
  const int t = ds_->schema.num_tables();
  const int adj = t * (t - 1) / 2;
  const int year_gid = ds_->schema.GlobalColumnId("title", "production_year");
  const float sel = enc.At(0, adj + year_gid);
  EXPECT_GT(sel, 0.0f);
  EXPECT_LT(sel, 1.0f);  // A real selectivity, not a 1-hot bit.
}

TEST_F(FeaturizeFixture, PlanEncodingScanBitsPerPaper) {
  Featurizer f(ds_->schema, *ds_->db, {});
  const Query q = ThreeWay(3);
  PartialPlan p = PartialPlan::Initial(q);

  nn::TreeStructure tree;
  nn::Matrix feats;
  f.EncodePlan(q, p, &tree, &feats);
  ASSERT_EQ(feats.rows(), 3);
  // Unspecified scans: both table and index bits set (paper §3.2).
  for (int i = 0; i < 3; ++i) {
    const plan::PlanNode& leaf = *p.roots[static_cast<size_t>(i)];
    const float* row = feats.Row(i);
    EXPECT_FLOAT_EQ(row[3 + 2 * leaf.table_id], 1.0f);
    EXPECT_FLOAT_EQ(row[3 + 2 * leaf.table_id + 1], 1.0f);
    // No join bits on leaves.
    EXPECT_FLOAT_EQ(row[0] + row[1] + row[2], 0.0f);
  }
}

TEST_F(FeaturizeFixture, PlanEncodingInternalUnion) {
  Featurizer f(ds_->schema, *ds_->db, {});
  const Query q = ThreeWay(4);
  const int mk = ds_->schema.TableId("movie_keyword");
  const int kw = ds_->schema.TableId("keyword");
  const int ti = ds_->schema.TableId("title");
  auto join = MakeJoin(
      JoinOp::kMerge,
      MakeScan(ScanOp::kTable, ti, 1ULL << q.RelationIndex(ti)),
      MakeJoin(JoinOp::kLoop, MakeScan(ScanOp::kTable, kw, 1ULL << q.RelationIndex(kw)),
               MakeScan(ScanOp::kIndex, mk, 1ULL << q.RelationIndex(mk))));
  PartialPlan p;
  p.query = &q;
  p.roots = {join};

  nn::TreeStructure tree;
  nn::Matrix feats;
  f.EncodePlan(q, p, &tree, &feats);
  ASSERT_EQ(feats.rows(), 5);
  // Root (index 0, pre-order): merge join bit + union of all three scans.
  const float* root = feats.Row(0);
  EXPECT_FLOAT_EQ(root[static_cast<int>(JoinOp::kMerge)], 1.0f);
  EXPECT_FLOAT_EQ(root[3 + 2 * ti], 1.0f);      // title table bit
  EXPECT_FLOAT_EQ(root[3 + 2 * kw], 1.0f);      // keyword table bit
  EXPECT_FLOAT_EQ(root[3 + 2 * mk + 1], 1.0f);  // movie_keyword index bit
  EXPECT_FLOAT_EQ(root[3 + 2 * mk], 0.0f);      // not a table scan
  // Tree structure: root children are rows 1 (title leaf) and 2 (loop join).
  EXPECT_EQ(tree.left[0], 1);
  EXPECT_EQ(tree.right[0], 2);
  EXPECT_EQ(tree.left[1], -1);
  EXPECT_EQ(tree.left[2], 3);
  EXPECT_EQ(tree.right[2], 4);
}

TEST_F(FeaturizeFixture, ForestEncodesMultipleRoots) {
  Featurizer f(ds_->schema, *ds_->db, {});
  const Query q = ThreeWay(5);
  const PartialPlan p = PartialPlan::Initial(q);
  nn::TreeStructure tree;
  nn::Matrix feats;
  f.EncodePlan(q, p, &tree, &feats);
  // Three disconnected roots -> all children -1.
  for (size_t i = 0; i < tree.NumNodes(); ++i) {
    EXPECT_EQ(tree.left[i], -1);
    EXPECT_EQ(tree.right[i], -1);
  }
}

TEST_F(FeaturizeFixture, CardChannelAddsDimensionAndReactsToError) {
  engine::CardinalityOracle oracle(ds_->schema, *ds_->db);
  FeaturizerConfig cfg;
  cfg.card_channel = CardChannel::kTrue;
  Featurizer f(ds_->schema, *ds_->db, cfg, hist_, nullptr, &oracle);
  EXPECT_EQ(f.plan_dim(), 3 + 2 * ds_->schema.num_tables() + 1);

  const Query q = ThreeWay(6);
  const PartialPlan p = PartialPlan::Initial(q);
  nn::TreeStructure tree;
  nn::Matrix feats;
  f.EncodePlan(q, p, &tree, &feats);
  const int card_col = f.plan_dim() - 1;
  EXPECT_GT(feats.At(0, card_col), 0.0f);

  // With injected error the channel changes.
  FeaturizerConfig cfg_err = cfg;
  cfg_err.card_error_orders = 2.0;
  Featurizer f_err(ds_->schema, *ds_->db, cfg_err, hist_, nullptr, &oracle);
  nn::Matrix feats_err;
  nn::TreeStructure tree_err;
  f_err.EncodePlan(q, p, &tree_err, &feats_err);
  EXPECT_NE(feats.At(0, card_col), feats_err.At(0, card_col));
}

TEST_F(FeaturizeFixture, RVectorEncodingPopulatesEmbedding) {
  embedding::RowEmbeddingOptions ropt;
  ropt.mode = embedding::RowEmbeddingMode::kJoins;
  ropt.w2v.dim = 8;
  ropt.w2v.epochs = 1;
  embedding::RowEmbedding rvec(ds_->schema, *ds_->db, ropt);

  FeaturizerConfig cfg;
  cfg.encoding = PredicateEncoding::kRVector;
  Featurizer f(ds_->schema, *ds_->db, cfg, nullptr, &rvec);

  const Query q = ThreeWay(7);
  const nn::Matrix enc = f.EncodeQuery(q);
  const int t = ds_->schema.num_tables();
  const int adj = t * (t - 1) / 2;
  const int per_col = query::kNumPredOps + 1 + 8 + 1;
  EXPECT_EQ(f.query_dim(), adj + ds_->schema.num_columns() * per_col);

  // The keyword column slot: Contains op bit set, matched-count > 0.
  const int kw_gid = ds_->schema.GlobalColumnId("keyword", "keyword");
  const float* slot = enc.Row(0) + adj + kw_gid * per_col;
  EXPECT_FLOAT_EQ(slot[static_cast<int>(PredOp::kContains)], 1.0f);
  EXPECT_GT(slot[query::kNumPredOps], 0.0f);  // log1p(matched count)
  // Embedding portion non-zero.
  float mag = 0;
  for (int d = 0; d < 8; ++d) {
    mag += std::fabs(slot[query::kNumPredOps + 1 + d]);
  }
  EXPECT_GT(mag, 0.0f);
  // Un-predicated column slots stay zero.
  const int gender_gid = ds_->schema.GlobalColumnId("name", "gender");
  const float* empty_slot = enc.Row(0) + adj + gender_gid * per_col;
  for (int i = 0; i < per_col; ++i) EXPECT_EQ(empty_slot[i], 0.0f);
}

}  // namespace
}  // namespace neo::featurize
