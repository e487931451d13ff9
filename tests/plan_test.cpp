#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/datagen/imdb_gen.h"
#include "src/plan/plan.h"
#include "src/query/builder.h"
#include "src/util/rng.h"

namespace neo::plan {
namespace {

using query::PredOp;
using query::Query;
using query::QueryBuilder;

class PlanFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::GenOptions opt;
    opt.scale = 0.02;
    ds_ = new datagen::Dataset(datagen::GenerateImdb(opt));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }
  Query ThreeWay() const {
    QueryBuilder b(ds_->schema, *ds_->db, "q3");
    b.JoinFk("movie_keyword", "title").JoinFk("movie_keyword", "keyword");
    Query q = b.Build();
    q.id = 1;
    return q;
  }
  static datagen::Dataset* ds_;
};

datagen::Dataset* PlanFixture::ds_ = nullptr;

TEST_F(PlanFixture, InitialStateShape) {
  const Query q = ThreeWay();
  const PartialPlan p = PartialPlan::Initial(q);
  EXPECT_EQ(p.roots.size(), 3u);
  EXPECT_EQ(p.NumUnspecified(), 3u);
  EXPECT_FALSE(p.IsComplete());
  EXPECT_EQ(p.CoveredMask(), 0b111u);
}

TEST_F(PlanFixture, MakeJoinAggregatesMasks) {
  const Query q = ThreeWay();
  auto a = MakeScan(ScanOp::kTable, q.relations[0], 0b001);
  auto b = MakeScan(ScanOp::kUnspecified, q.relations[1], 0b010);
  auto j = MakeJoin(JoinOp::kMerge, a, b);
  EXPECT_EQ(j->rel_mask, 0b011u);
  EXPECT_EQ(j->num_unspecified, 1);
  EXPECT_EQ(j->NumNodes(), 3u);
}

TEST_F(PlanFixture, HashDistinguishesOperators) {
  const Query q = ThreeWay();
  auto a = MakeScan(ScanOp::kTable, q.relations[0], 0b001);
  auto b = MakeScan(ScanOp::kTable, q.relations[1], 0b010);
  auto hj = MakeJoin(JoinOp::kHash, a, b);
  auto mj = MakeJoin(JoinOp::kMerge, a, b);
  auto flipped = MakeJoin(JoinOp::kHash, b, a);
  EXPECT_NE(hj->hash, mj->hash);
  EXPECT_NE(hj->hash, flipped->hash);  // Orientation matters (build side).
}

TEST_F(PlanFixture, ForestHashOrderIndependent) {
  const Query q = ThreeWay();
  PartialPlan p1, p2;
  p1.query = &q;
  p2.query = &q;
  auto a = MakeScan(ScanOp::kTable, q.relations[0], 0b001);
  auto b = MakeScan(ScanOp::kIndex, q.relations[1], 0b010);
  p1.roots = {a, b};
  p2.roots = {b, a};
  EXPECT_EQ(p1.Hash(), p2.Hash());
}

TEST_F(PlanFixture, ForestHashMatchesSortedRootFormula) {
  // Hash() sorts the root hashes in a fixed on-stack buffer; the value must
  // equal the formula it replaced, written out here: Mix64(0xf0e57 + n)
  // folded with HashCombine over the ascending root hashes. Forests of 1, 2,
  // 17 and 64 (the most a 64-bit rel_mask allows) roots, in shuffled order.
  const auto formula = [](const PartialPlan& p) {
    std::vector<uint64_t> hashes;
    for (const NodeRef& r : p.roots) hashes.push_back(r->hash);
    std::sort(hashes.begin(), hashes.end());
    uint64_t h = util::Mix64(0xf0e57ULL + hashes.size());
    for (const uint64_t x : hashes) h = util::HashCombine(h, x);
    return h;
  };
  constexpr ScanOp kOps[] = {ScanOp::kTable, ScanOp::kIndex, ScanOp::kUnspecified};
  util::Rng rng(64);
  for (const size_t n : {size_t{1}, size_t{2}, size_t{17}, size_t{64}}) {
    PartialPlan p;
    for (size_t i = 0; i < n; ++i) {
      p.roots.push_back(MakeScan(kOps[i % 3], static_cast<int>(i), 1ULL << i));
    }
    if (n < 63) {
      // A join root over the spare relation bits, so not every root is a scan.
      p.roots[0] = MakeJoin(JoinOp::kMerge,
                            MakeScan(ScanOp::kTable, 100, 1ULL << n),
                            MakeScan(ScanOp::kIndex, 101, 1ULL << (n + 1)));
    }
    rng.Shuffle(p.roots);
    ASSERT_EQ(p.roots.size(), n);
    EXPECT_EQ(p.Hash(), formula(p)) << n << " roots";
  }
}

TEST_F(PlanFixture, SubtreeFingerprintMixesRelMask) {
  // The same table at different relation positions (different rel_mask)
  // must NOT share a subtree fingerprint: the search's subtree table is
  // keyed by it, and the cardinality channel keys off rel_mask.
  const auto a = MakeScan(ScanOp::kTable, 3, 1ULL << 0);
  const auto b = MakeScan(ScanOp::kTable, 3, 1ULL << 1);
  EXPECT_NE(a->subtree_fp, b->subtree_fp);
  EXPECT_EQ(a->hash, b->hash);  // The structural hash deliberately ignores it.
}

TEST_F(PlanFixture, ScanSpecializationChangesHash) {
  const Query q = ThreeWay();
  auto u = MakeScan(ScanOp::kUnspecified, q.relations[0], 0b001);
  auto t = MakeScan(ScanOp::kTable, q.relations[0], 0b001);
  auto i = MakeScan(ScanOp::kIndex, q.relations[0], 0b001);
  EXPECT_NE(u->hash, t->hash);
  EXPECT_NE(t->hash, i->hash);
}

TEST_F(PlanFixture, DecomposeForTrainingStates) {
  const Query q = ThreeWay();
  // Complete plan: HJ(MJ(T(r0), I(r1)), T(r2)).
  auto mj = MakeJoin(JoinOp::kMerge, MakeScan(ScanOp::kTable, q.relations[0], 0b001),
                     MakeScan(ScanOp::kIndex, q.relations[1], 0b010));
  auto hj = MakeJoin(JoinOp::kHash, mj, MakeScan(ScanOp::kTable, q.relations[2], 0b100));
  PartialPlan complete;
  complete.query = &q;
  complete.roots = {hj};
  ASSERT_TRUE(complete.IsComplete());

  const auto states = DecomposeForTraining(complete);
  // 5 subtrees + the initial state.
  EXPECT_EQ(states.size(), 6u);
  // Every relation must stay covered in every state.
  for (const auto& s : states) {
    EXPECT_EQ(s.CoveredMask(), 0b111u);
    EXPECT_TRUE(IsSubplanOf(s, complete));
  }
  // States must be distinct.
  std::set<uint64_t> hashes;
  for (const auto& s : states) hashes.insert(s.Hash());
  EXPECT_EQ(hashes.size(), states.size());
}

TEST_F(PlanFixture, IsSubplanOfRespectsOperators) {
  const Query q = ThreeWay();
  auto mj = MakeJoin(JoinOp::kMerge, MakeScan(ScanOp::kTable, q.relations[0], 0b001),
                     MakeScan(ScanOp::kIndex, q.relations[1], 0b010));
  auto full_root =
      MakeJoin(JoinOp::kHash, mj, MakeScan(ScanOp::kTable, q.relations[2], 0b100));
  PartialPlan full;
  full.query = &q;
  full.roots = {full_root};

  // Same shape but a hash join where full has a merge join: not a subplan.
  PartialPlan wrong_op;
  wrong_op.query = &q;
  wrong_op.roots = {
      MakeJoin(JoinOp::kHash, MakeScan(ScanOp::kTable, q.relations[0], 0b001),
               MakeScan(ScanOp::kIndex, q.relations[1], 0b010)),
      MakeScan(ScanOp::kUnspecified, q.relations[2], 0b100)};
  EXPECT_FALSE(IsSubplanOf(wrong_op, full));

  // Unspecified scans specialize to any scan type.
  PartialPlan unspec;
  unspec.query = &q;
  unspec.roots = {
      MakeJoin(JoinOp::kMerge, MakeScan(ScanOp::kUnspecified, q.relations[0], 0b001),
               MakeScan(ScanOp::kUnspecified, q.relations[1], 0b010)),
      MakeScan(ScanOp::kUnspecified, q.relations[2], 0b100)};
  EXPECT_TRUE(IsSubplanOf(unspec, full));
}

TEST_F(PlanFixture, ToStringRendersPaperNotation) {
  const Query q = ThreeWay();
  PartialPlan p = PartialPlan::Initial(q);
  const std::string s = p.ToString(ds_->schema);
  EXPECT_NE(s.find("U("), std::string::npos);
  EXPECT_NE(s.find("keyword"), std::string::npos);
}

// ---- Query IR tests -----------------------------------------------------

TEST_F(PlanFixture, QueryConnectivity) {
  const Query q = ThreeWay();
  EXPECT_TRUE(q.SubsetConnected(0b111));
  // movie_keyword connects title and keyword; title+keyword alone are not
  // directly joined.
  const int mk_pos = q.RelationIndex(ds_->schema.TableId("movie_keyword"));
  const uint64_t mk_bit = 1ULL << mk_pos;
  EXPECT_TRUE(q.SubsetConnected(mk_bit | (mk_bit == 1 ? 0b010 : 0b001)));
  EXPECT_FALSE(q.SubsetConnected(0b111 & ~mk_bit));
}

TEST_F(PlanFixture, QueryMasksJoinable) {
  const Query q = ThreeWay();
  const int mk_pos = q.RelationIndex(ds_->schema.TableId("movie_keyword"));
  const uint64_t mk_bit = 1ULL << mk_pos;
  const uint64_t others = 0b111 & ~mk_bit;
  EXPECT_TRUE(q.MasksJoinable(mk_bit, others));
  // title and keyword are not directly joinable.
  const uint64_t t_bit = others & (others - 1) ? (others & ~(others & (others - 1))) : others;
  const uint64_t k_bit = others & ~t_bit;
  if (t_bit && k_bit) {
    EXPECT_FALSE(q.MasksJoinable(t_bit, k_bit));
  }
}

TEST_F(PlanFixture, QuerySqlRendering) {
  QueryBuilder b(ds_->schema, *ds_->db, "render");
  b.JoinFk("movie_keyword", "keyword")
      .PredStr("keyword", "keyword", PredOp::kContains, "love")
      .Pred("movie_keyword", "movie_id", PredOp::kGe, 10);
  const Query q = b.Build();
  const std::string sql = q.ToSql(ds_->schema);
  EXPECT_NE(sql.find("SELECT count(*)"), std::string::npos);
  EXPECT_NE(sql.find("keyword.keyword LIKE '%love%'"), std::string::npos);
  EXPECT_NE(sql.find("movie_keyword.movie_id >= 10"), std::string::npos);
}

}  // namespace
}  // namespace neo::plan
