// Skip-gram word2vec with negative sampling (Mikolov et al. [36]), from
// scratch. Used by the R-Vector featurization (paper §5): sentences are
// database rows, "words" are (column, value) tokens. Sentences are treated
// as unordered bags (database rows have no token order), so context words
// are sampled from the whole sentence.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/rng.h"

namespace neo::embedding {

namespace detail {

/// Draws an index from a cumulative weight table `cdf` (non-decreasing, last
/// entry > 0): `Index(r)` returns the first i with cdf[i] >= r, or the last
/// index if there is none, which is exactly what a binary search over `cdf`
/// returns. Word2vec's negative sampler draws through it.
///
/// It finds that index through a guide table instead of a binary search.
/// With G = cdf.size() buckets and one monotone bucket function
/// b(x) = min(G - 1, floor(x * (G / cdf.back()))), guide[g] is the first i
/// with b(cdf[i]) >= g. A draw walks forward from guide[b(r)] while
/// cdf[i] < r. That is exact: every i before guide[b(r)] has
/// b(cdf[i]) < b(r), so cdf[i] < r, because b is monotone in floating point
/// too (a rounded product and floor are each monotone); the walk then stops
/// at the first cdf[i] >= r. Zero weights (flat runs of `cdf`) are never
/// returned for r > 0, as with the binary search. A uniform draw lands in
/// every bucket alike, so its walk passes G entries / G buckets = about one
/// entry on average, against log2(G) probes of the binary search.
class CdfSampler {
 public:
  explicit CdfSampler(std::vector<double> cdf);

  size_t Index(double r) const {
    size_t i = guide_[Bucket(r)];
    while (i + 1 < cdf_.size() && cdf_[i] < r) ++i;
    return i;
  }

 private:
  size_t Bucket(double x) const {
    const double t = x * scale_;
    return t < last_bucket_ ? static_cast<size_t>(t) : cdf_.size() - 1;
  }

  std::vector<double> cdf_;
  std::vector<uint32_t> guide_;
  double scale_ = 0.0;        ///< G / cdf.back().
  double last_bucket_ = 0.0;  ///< G - 1.
};

}  // namespace detail

struct Word2VecOptions {
  int dim = 16;
  int epochs = 4;
  int negatives = 5;           ///< Negative samples per positive pair.
  int max_context = 4;         ///< Context tokens sampled per center token.
  float lr = 0.05f;
  float min_lr = 0.001f;
  double unigram_power = 0.75; ///< Negative-sampling distribution exponent.
  /// Frequent-token subsampling threshold (Mikolov et al.): tokens with
  /// corpus frequency f are kept with probability sqrt(t/f) + t/f. Prevents
  /// ubiquitous tokens (hub attributes) from collapsing the space. 0 = off.
  double subsample_threshold = 0.0;
  uint64_t seed = 0x33cc77ULL;
};

class Word2Vec {
 public:
  explicit Word2Vec(Word2VecOptions options = {}) : options_(options) {}

  /// Trains on token-id sentences. `vocab_size` must exceed every token id.
  void Train(const std::vector<std::vector<int>>& sentences, int vocab_size);

  int dim() const { return options_.dim; }
  int vocab_size() const { return vocab_size_; }

  /// Input-embedding vector of a token (the conventional output of w2v).
  const float* Vector(int token) const;

  /// Number of occurrences of `token` in the training corpus.
  int64_t Count(int token) const;

  /// Cosine similarity between two token embeddings.
  double Cosine(int a, int b) const;

  /// Element-wise mean of several token vectors into `out` (size dim).
  void MeanVector(const std::vector<int>& tokens, float* out) const;

 private:
  Word2VecOptions options_;
  int vocab_size_ = 0;
  std::vector<float> in_vecs_;   ///< vocab x dim
  std::vector<float> out_vecs_;  ///< vocab x dim
  std::vector<int64_t> counts_;
};

}  // namespace neo::embedding
