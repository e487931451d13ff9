// Neo's experience (paper §2, §4): the executed complete plans of each query
// with their costs. Training states are the partial plans these contain,
// labeled with the minimum cost of any experienced complete plan containing
// them:
//     M(P_i) ~ min{ C(P_f) | P_i subplan of P_f, P_f in experience }.
//
// The states are plan::DecomposeForTraining's family: for each subtree S of
// an executed plan, the state {S} ∪ {U(r) | r outside S}. Each is deduplicated
// by (query, state hash) and keeps the minimum cost seen, so repeated
// executions of similar plans tighten the labels. The cost C is pluggable
// (paper §6.4.4): absolute latency, or latency relative to a per-query
// baseline.
//
// Nothing is featurized here. Each query keeps an owned copy of itself and
// its distinct plans, whose PlanNode trees the states share; encoding happens
// when a retrain draws states (SampleEncoder). The store holds at most
// kMaxQueries queries and evicts whole queries, least recently inserted into
// first.
#pragma once

#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/featurize/featurizer.h"
#include "src/plan/plan.h"

namespace neo::core {

enum class CostFunction { kLatency, kRelative };
const char* CostFunctionName(CostFunction f);

class Experience {
 public:
  /// Queries (by Query::fingerprint) held at most. Inserting a plan for a
  /// new query past the cap evicts the least recently inserted-into query
  /// with all its plans and states.
  static constexpr size_t kMaxQueries = 4096;

  Experience() = default;
  // States point at their query's entry and queries at their LRU position:
  // a copy would point into the original.
  Experience(const Experience&) = delete;
  Experience& operator=(const Experience&) = delete;

  /// Records a complete plan execution. `cost` is C(P_f) under the active
  /// cost function. A plan already held keeps its minimum cost; its states
  /// are indexed at once (their labels), but not encoded.
  void AddCompletePlan(const query::Query& query, const plan::PartialPlan& plan,
                       double cost);

  /// Minimum cost over the held plans of `query` (by fingerprint); +inf when
  /// the query is not held.
  double BestCost(const query::Query& query) const;

  /// One training state drawn by Sample. It holds its query, so it stays
  /// valid after the query is evicted.
  struct DrawnState {
    std::shared_ptr<const query::Query> query;
    plan::NodeRef subtree;  ///< S of the state plan::TrainingState(*query, S).
    uint64_t key = 0;       ///< (query fingerprint, state hash).
    float target = 0.0f;    ///< Normalized label.
  };

  /// Draws a (subsampled, shuffled) training set. Targets are natural logs of
  /// the labels (floored at 1e-6), standardized with a transform refitted on
  /// every state held.
  std::vector<DrawnState> Sample(size_t max_samples, util::Rng& rng);

  /// Normalizes a raw cost with the last-fitted transform (for diagnostics).
  float NormalizeCost(double cost) const;

  /// Distinct (query, state) pairs held.
  size_t NumStates() const { return states_.size(); }
  /// Distinct queries held, at most kMaxQueries.
  size_t NumQueries() const { return queries_.size(); }
  /// Executions recorded (AddCompletePlan calls), evicted ones included.
  size_t NumCompletePlans() const { return num_complete_; }

 private:
  struct StoredPlan {
    plan::NodeRef root;
    double cost;
  };
  struct QueryExperience {
    std::shared_ptr<const query::Query> query;  ///< Owned copy.
    std::unordered_map<uint64_t, StoredPlan> plans;  ///< Key: plan hash.
    std::vector<uint64_t> state_keys;  ///< This query's keys in states_.
    std::list<uint64_t>::iterator lru;  ///< Position in lru_.
  };
  struct State {
    const QueryExperience* owner;
    plan::NodeRef subtree;  ///< Shared with the owner's plans.
    double min_cost;
  };

  void EvictLeastRecent();

  std::unordered_map<uint64_t, QueryExperience> queries_;  ///< Key: fingerprint.
  std::list<uint64_t> lru_;  ///< Fingerprints, most recently inserted first.
  /// Key: (query fingerprint, state hash). One map across queries, so the
  /// sampling order depends only on the sequence of inserts.
  std::unordered_map<uint64_t, State> states_;
  size_t num_complete_ = 0;
  double target_mean_ = 0.0;
  double target_std_ = 1.0;
};

/// Encodes the states one retrain draws, over all its epochs. Each distinct
/// (query, state) is encoded at most once, and so is each distinct query's
/// vector, which all samples of that query share. Encodings are pure
/// functions of the featurizer's config, the query and the state, so a
/// cached sample never goes stale.
class SampleEncoder {
 public:
  explicit SampleEncoder(const featurize::Featurizer* featurizer)
      : featurizer_(featurizer) {}

  /// A training batch for ValueNetwork::TrainBatch: sample i is
  /// (*samples[i], *query_vecs[i]) with target targets[i]. The samples'
  /// own query_vec stays empty.
  struct Batch {
    std::vector<const nn::PlanSample*> samples;
    std::vector<const nn::Matrix*> query_vecs;
    std::vector<float> targets;
  };

  /// Encodes `drawn` in order. The pointers stay valid for this encoder's
  /// lifetime.
  Batch Encode(const std::vector<Experience::DrawnState>& drawn);

 private:
  const featurize::Featurizer* featurizer_;
  // Node-based maps: element addresses survive later inserts.
  std::unordered_map<uint64_t, nn::Matrix> query_vecs_;  ///< Key: fingerprint.
  std::unordered_map<uint64_t, nn::PlanSample> samples_;  ///< Key: DrawnState::key.
};

}  // namespace neo::core
