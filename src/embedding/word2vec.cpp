#include "src/embedding/word2vec.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/status.h"

namespace neo::embedding {

namespace {

inline float Sigmoid(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

}  // namespace

namespace detail {

CdfSampler::CdfSampler(std::vector<double> cdf) : cdf_(std::move(cdf)) {
  NEO_CHECK(!cdf_.empty() && cdf_.back() > 0);
  NEO_CHECK(cdf_.size() <= UINT32_MAX);
  const size_t n = cdf_.size();
  scale_ = static_cast<double>(n) / cdf_.back();
  last_bucket_ = static_cast<double>(n - 1);
  // cdf is non-decreasing and Bucket monotone, so one sweep fills the table.
  // A bucket no entry reaches (only draws past cdf.back() land there) points
  // at the last index, the binary search's answer for such a draw.
  guide_.resize(n);
  size_t i = 0;
  for (size_t g = 0; g < n; ++g) {
    while (i < n && Bucket(cdf_[i]) < g) ++i;
    guide_[g] = static_cast<uint32_t>(std::min(i, n - 1));
  }
}

}  // namespace detail

void Word2Vec::Train(const std::vector<std::vector<int>>& sentences, int vocab_size) {
  NEO_CHECK(vocab_size > 0);
  vocab_size_ = vocab_size;
  const int dim = options_.dim;
  util::Rng rng(options_.seed);

  counts_.assign(static_cast<size_t>(vocab_size), 0);
  size_t total_tokens = 0;
  for (const auto& s : sentences) {
    for (int t : s) {
      NEO_CHECK(t >= 0 && t < vocab_size);
      ++counts_[static_cast<size_t>(t)];
      ++total_tokens;
    }
  }

  // Initialize: input vectors uniform small, output vectors zero (standard).
  in_vecs_.assign(static_cast<size_t>(vocab_size) * dim, 0.0f);
  out_vecs_.assign(static_cast<size_t>(vocab_size) * dim, 0.0f);
  for (auto& v : in_vecs_) {
    v = static_cast<float>(rng.NextUniform(-0.5, 0.5)) / static_cast<float>(dim);
  }

  // Negative-sampling table: unigram^power.
  std::vector<double> weights(static_cast<size_t>(vocab_size));
  for (int t = 0; t < vocab_size; ++t) {
    weights[static_cast<size_t>(t)] =
        std::pow(static_cast<double>(counts_[static_cast<size_t>(t)]),
                 options_.unigram_power);
  }
  // Alias-free sampling via cumulative table, drawn through a guide table
  // (the index a binary search would find, see detail::CdfSampler).
  std::vector<double> cdf(weights.size());
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    cdf[i] = acc;
  }
  const detail::CdfSampler negatives(std::move(cdf));
  auto sample_negative = [&]() {
    return static_cast<int>(negatives.Index(rng.NextDouble() * acc));
  };

  // Frequent-token keep probabilities (subsampling).
  std::vector<float> keep_prob;
  if (options_.subsample_threshold > 0.0 && total_tokens > 0) {
    keep_prob.resize(static_cast<size_t>(vocab_size), 1.0f);
    for (int t = 0; t < vocab_size; ++t) {
      const double f = static_cast<double>(counts_[static_cast<size_t>(t)]) /
                       static_cast<double>(total_tokens);
      if (f > options_.subsample_threshold) {
        const double ratio = options_.subsample_threshold / f;
        keep_prob[static_cast<size_t>(t)] =
            static_cast<float>(std::sqrt(ratio) + ratio);
      }
    }
  }

  std::vector<float> grad_center(static_cast<size_t>(dim));
  const size_t total_steps =
      static_cast<size_t>(options_.epochs) * std::max<size_t>(1, sentences.size());
  size_t step = 0;

  std::vector<size_t> order(sentences.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<int> kept;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t si : order) {
      const auto& full_sentence = sentences[si];
      const float progress =
          static_cast<float>(step++) / static_cast<float>(total_steps);
      const float lr = options_.lr + (options_.min_lr - options_.lr) * progress;

      // Apply subsampling per epoch pass.
      const std::vector<int>* sentence_ptr = &full_sentence;
      if (!keep_prob.empty()) {
        kept.clear();
        for (int t : full_sentence) {
          if (keep_prob[static_cast<size_t>(t)] >= 1.0f ||
              rng.NextDouble() < keep_prob[static_cast<size_t>(t)]) {
            kept.push_back(t);
          }
        }
        sentence_ptr = &kept;
      }
      const auto& sentence = *sentence_ptr;
      if (sentence.size() < 2) continue;

      for (size_t ci = 0; ci < sentence.size(); ++ci) {
        const int center = sentence[ci];
        float* v_in = &in_vecs_[static_cast<size_t>(center) * dim];
        const int contexts =
            std::min<int>(options_.max_context, static_cast<int>(sentence.size()) - 1);
        for (int k = 0; k < contexts; ++k) {
          // Unordered context: any other sentence token.
          size_t oi = rng.NextBounded(sentence.size() - 1);
          if (oi >= ci) ++oi;
          const int context = sentence[oi];

          std::fill(grad_center.begin(), grad_center.end(), 0.0f);
          // Positive pair + negatives.
          for (int neg = 0; neg <= options_.negatives; ++neg) {
            int target;
            float label;
            if (neg == 0) {
              target = context;
              label = 1.0f;
            } else {
              target = sample_negative();
              if (target == context) continue;
              label = 0.0f;
            }
            float* v_out = &out_vecs_[static_cast<size_t>(target) * dim];
            float dot = 0.0f;
            for (int d = 0; d < dim; ++d) dot += v_in[d] * v_out[d];
            const float g = (Sigmoid(dot) - label) * lr;
            for (int d = 0; d < dim; ++d) {
              grad_center[static_cast<size_t>(d)] += g * v_out[d];
              v_out[d] -= g * v_in[d];
            }
          }
          for (int d = 0; d < dim; ++d) v_in[d] -= grad_center[static_cast<size_t>(d)];
        }
      }
    }
  }
}

const float* Word2Vec::Vector(int token) const {
  NEO_CHECK(token >= 0 && token < vocab_size_);
  return &in_vecs_[static_cast<size_t>(token) * options_.dim];
}

int64_t Word2Vec::Count(int token) const {
  if (token < 0 || token >= vocab_size_) return 0;
  return counts_[static_cast<size_t>(token)];
}

double Word2Vec::Cosine(int a, int b) const {
  const float* va = Vector(a);
  const float* vb = Vector(b);
  double dot = 0, na = 0, nb = 0;
  for (int d = 0; d < options_.dim; ++d) {
    dot += static_cast<double>(va[d]) * vb[d];
    na += static_cast<double>(va[d]) * va[d];
    nb += static_cast<double>(vb[d]) * vb[d];
  }
  if (na <= 0 || nb <= 0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

void Word2Vec::MeanVector(const std::vector<int>& tokens, float* out) const {
  for (int d = 0; d < options_.dim; ++d) out[d] = 0.0f;
  if (tokens.empty()) return;
  for (int t : tokens) {
    const float* v = Vector(t);
    for (int d = 0; d < options_.dim; ++d) out[d] += v[d];
  }
  for (int d = 0; d < options_.dim; ++d) out[d] /= static_cast<float>(tokens.size());
}

}  // namespace neo::embedding
