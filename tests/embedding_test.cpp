// Word2vec + row-embedding tests, including the paper's Table 2 property:
// correlated (keyword, genre) pairs get higher cosine similarity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/datagen/imdb_gen.h"
#include "src/embedding/row_embedding.h"

namespace neo::embedding {
namespace {

TEST(Word2VecTest, LearnsCooccurrence) {
  // Tokens 0/1 always co-occur, 2/3 always co-occur, the groups never mix.
  // After training, within-group similarity must exceed cross-group.
  std::vector<std::vector<int>> sentences;
  util::Rng rng(3);
  for (int i = 0; i < 600; ++i) {
    if (i % 2 == 0) {
      sentences.push_back({0, 1, 4});
    } else {
      sentences.push_back({2, 3, 5});
    }
  }
  Word2VecOptions opt;
  opt.dim = 8;
  opt.epochs = 8;
  Word2Vec w2v(opt);
  w2v.Train(sentences, 6);
  EXPECT_GT(w2v.Cosine(0, 1), w2v.Cosine(0, 2));
  EXPECT_GT(w2v.Cosine(2, 3), w2v.Cosine(1, 3));
  EXPECT_EQ(w2v.Count(0), 300);
}

TEST(Word2VecTest, DeterministicTraining) {
  std::vector<std::vector<int>> sentences = {{0, 1}, {1, 2}, {2, 0}, {0, 1, 2}};
  Word2VecOptions opt;
  opt.dim = 4;
  opt.epochs = 2;
  Word2Vec a(opt), b(opt);
  a.Train(sentences, 3);
  b.Train(sentences, 3);
  for (int d = 0; d < 4; ++d) EXPECT_FLOAT_EQ(a.Vector(1)[d], b.Vector(1)[d]);
}

TEST(CdfSamplerTest, GuideTableReturnsTheBinarySearchIndex) {
  // Weights as Word2Vec::Train builds them, count^0.75: one vocabulary with
  // zero-count tokens (flat runs in the CDF, at its start, middle and end),
  // one with a dominant token, and a one-token vocabulary.
  std::vector<double> zero_runs;
  for (int t = 0; t < 500; ++t) {
    const bool unseen = t % 7 == 0 || (t >= 100 && t < 180) || t >= 490;
    zero_runs.push_back(unseen ? 0.0 : std::pow(1.0 + (t * 37) % 23, 0.75));
  }
  std::vector<double> dominant(300, 1.0);
  dominant[123] = std::pow(1e7, 0.75);
  const std::vector<double> single = {std::pow(42.0, 0.75)};

  util::Rng rng(5);
  for (const std::vector<double>& weights : {zero_runs, dominant, single}) {
    std::vector<double> cdf;
    double acc = 0;
    for (double w : weights) {
      acc += w;
      cdf.push_back(acc);
    }
    const detail::CdfSampler sampler(cdf);
    auto expect_binary_search = [&](double r) {
      const size_t first_at_least =
          static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), r) - cdf.begin());
      EXPECT_EQ(sampler.Index(r), std::min(first_at_least, cdf.size() - 1))
          << "r = " << r << " over " << cdf.size() << " tokens";
    };
    const double inf = std::numeric_limits<double>::infinity();
    expect_binary_search(0.0);
    expect_binary_search(acc);
    for (double c : cdf) {
      expect_binary_search(c);
      if (c > 0) expect_binary_search(std::nextafter(c, -inf));
      expect_binary_search(std::nextafter(c, inf));
    }
    for (int i = 0; i < 2000; ++i) expect_binary_search(rng.NextDouble() * acc);
  }
}

TEST(Word2VecTest, MeanVector) {
  std::vector<std::vector<int>> sentences = {{0, 1}, {0, 1}};
  Word2VecOptions opt;
  opt.dim = 4;
  opt.epochs = 1;
  Word2Vec w2v(opt);
  w2v.Train(sentences, 2);
  float mean[4];
  w2v.MeanVector({0, 1}, mean);
  for (int d = 0; d < 4; ++d) {
    EXPECT_NEAR(mean[d], (w2v.Vector(0)[d] + w2v.Vector(1)[d]) / 2.0f, 1e-6);
  }
  // Empty token list -> zero vector.
  w2v.MeanVector({}, mean);
  for (int d = 0; d < 4; ++d) EXPECT_EQ(mean[d], 0.0f);
}

class RowEmbeddingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::GenOptions opt;
    opt.scale = 0.05;
    ds_ = new datagen::Dataset(datagen::GenerateImdb(opt));
    RowEmbeddingOptions ropt;
    ropt.mode = RowEmbeddingMode::kJoins;
    ropt.w2v.dim = 16;
    joins_ = new RowEmbedding(ds_->schema, *ds_->db, ropt);
  }
  static void TearDownTestSuite() {
    delete joins_;
    delete ds_;
  }
  static datagen::Dataset* ds_;
  static RowEmbedding* joins_;
};

datagen::Dataset* RowEmbeddingFixture::ds_ = nullptr;
RowEmbedding* RowEmbeddingFixture::joins_ = nullptr;

TEST_F(RowEmbeddingFixture, VocabularyCoversValues) {
  // Every keyword value must have a token.
  const auto& kw_col = ds_->db->table("keyword").ColumnByName("keyword");
  const int kw_gid = ds_->schema.GlobalColumnId("keyword", "keyword");
  for (size_t code = 0; code < std::min<size_t>(kw_col.dictionary_size(), 50);
       ++code) {
    EXPECT_GE(joins_->TokenFor(kw_gid, static_cast<int64_t>(code)), 0);
  }
  EXPECT_GT(joins_->vocab_size(), 100u);
  EXPECT_GT(joins_->num_sentences(), 1000u);
}

TEST_F(RowEmbeddingFixture, Table2CorrelationProperty) {
  // Cosine similarity between an aligned (keyword-stem, genre) pair must
  // exceed the similarity of a cross pair, averaged over stems (paper
  // Table 2: 'love'/romance > 'love'/horror).
  const int kw_gid = ds_->schema.GlobalColumnId("keyword", "keyword");
  const int info_gid = ds_->schema.GlobalColumnId("movie_info", "info");
  const auto& kw_col = ds_->db->table("keyword").ColumnByName("keyword");
  const auto& info_col = ds_->db->table("movie_info").ColumnByName("info");

  auto mean_sim_to_genre = [&](const std::string& stem, const std::string& genre) {
    const int64_t genre_code = info_col.LookupString(genre);
    EXPECT_GE(genre_code, 0) << genre;
    const auto matched = kw_col.CodesContaining(stem);
    EXPECT_FALSE(matched.empty()) << stem;
    double total = 0;
    for (int64_t code : matched) {
      total += joins_->Cosine(kw_gid, code, info_gid, genre_code);
    }
    return total / static_cast<double>(matched.size());
  };

  // 'love' stems belong to romance; 'space' stems to scifi.
  const double love_romance = mean_sim_to_genre("love", "romance");
  const double love_horror = mean_sim_to_genre("love", "horror");
  const double space_scifi = mean_sim_to_genre("space", "scifi");
  const double space_family = mean_sim_to_genre("space", "family");
  EXPECT_GT(love_romance, love_horror);
  EXPECT_GT(space_scifi, space_family);
}

TEST_F(RowEmbeddingFixture, UnseenValueYieldsZeroVector) {
  const int kw_gid = ds_->schema.GlobalColumnId("keyword", "keyword");
  std::vector<float> v(static_cast<size_t>(joins_->dim()), 1.0f);
  joins_->VectorFor(kw_gid, 99999999, v.data());
  for (float x : v) EXPECT_EQ(x, 0.0f);
  EXPECT_EQ(joins_->CountFor(kw_gid, 99999999), 0);
}

TEST_F(RowEmbeddingFixture, NoJoinsVariantBuilds) {
  RowEmbeddingOptions ropt;
  ropt.mode = RowEmbeddingMode::kNoJoins;
  ropt.w2v.dim = 8;
  ropt.w2v.epochs = 1;
  RowEmbedding no_joins(ds_->schema, *ds_->db, ropt);
  EXPECT_GT(no_joins.vocab_size(), 50u);
  // The joins variant sees strictly more sentences (every normalized table
  // row with >=2 attrs plus link-table sentences) - not necessarily, but it
  // must at least produce a usable vocabulary.
  const int kw_gid = ds_->schema.GlobalColumnId("keyword", "keyword");
  EXPECT_GE(no_joins.TokenFor(kw_gid, 0), -1);
}

}  // namespace
}  // namespace neo::embedding
