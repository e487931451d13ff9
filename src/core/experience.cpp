#include "src/core/experience.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace neo::core {

const char* CostFunctionName(CostFunction f) {
  switch (f) {
    case CostFunction::kLatency: return "workload-latency";
    case CostFunction::kRelative: return "relative-to-baseline";
  }
  return "?";
}

void Experience::AddCompletePlan(const query::Query& query,
                                 const plan::PartialPlan& plan, double cost) {
  NEO_CHECK(plan.IsComplete());
  ++num_complete_;

  auto [qit, fresh] = queries_.try_emplace(query.fingerprint);
  QueryExperience& entry = qit->second;
  if (fresh) {
    entry.query = std::make_shared<const query::Query>(query);
    entry.lru = lru_.insert(lru_.begin(), query.fingerprint);
  } else {
    lru_.splice(lru_.begin(), lru_, entry.lru);
  }

  auto [pit, new_plan] =
      entry.plans.try_emplace(plan.Hash(), StoredPlan{plan.roots[0], cost});
  if (!new_plan) {
    // Every state of a held plan already has a label <= the plan's cost.
    if (cost >= pit->second.cost) return;
    pit->second.cost = cost;
  }
  for (const plan::PartialPlan& state : plan::DecomposeForTraining(plan)) {
    const uint64_t key = util::HashCombine(query.fingerprint + 0x99ULL, state.Hash());
    auto [sit, new_state] = states_.try_emplace(key, State{&entry, state.roots[0], cost});
    if (new_state) {
      entry.state_keys.push_back(key);
    } else {
      sit->second.min_cost = std::min(sit->second.min_cost, cost);
    }
  }
  if (queries_.size() > kMaxQueries) EvictLeastRecent();
}

void Experience::EvictLeastRecent() {
  const auto it = queries_.find(lru_.back());
  lru_.pop_back();
  for (const uint64_t key : it->second.state_keys) states_.erase(key);
  queries_.erase(it);
}

double Experience::BestCost(const query::Query& query) const {
  double best = std::numeric_limits<double>::infinity();
  const auto it = queries_.find(query.fingerprint);
  if (it == queries_.end()) return best;
  for (const auto& [hash, stored] : it->second.plans) best = std::min(best, stored.cost);
  return best;
}

namespace {
// Pure-log transform with a floor: preserves multiplicative structure (a
// plan 10x slower is a constant offset away) regardless of the absolute
// latency scale, unlike log1p which degenerates to linear for costs << 1.
constexpr double kCostFloor = 1e-6;
double TransformCost(double cost) { return std::log(std::max(kCostFloor, cost)); }
}  // namespace

float Experience::NormalizeCost(double cost) const {
  return static_cast<float>((TransformCost(cost) - target_mean_) / target_std_);
}

std::vector<Experience::DrawnState> Experience::Sample(size_t max_samples,
                                                       util::Rng& rng) {
  // Refit the target transform.
  double sum = 0.0, sum2 = 0.0;
  for (const auto& [key, state] : states_) {
    const double t = TransformCost(state.min_cost);
    sum += t;
    sum2 += t * t;
  }
  const double n = std::max<double>(1.0, static_cast<double>(states_.size()));
  target_mean_ = sum / n;
  target_std_ = std::sqrt(std::max(1e-8, sum2 / n - target_mean_ * target_mean_));

  std::vector<const std::pair<const uint64_t, State>*> all;
  all.reserve(states_.size());
  for (const auto& entry : states_) all.push_back(&entry);
  rng.Shuffle(all);
  if (all.size() > max_samples) all.resize(max_samples);

  std::vector<DrawnState> drawn;
  drawn.reserve(all.size());
  for (const auto* entry : all) {
    const State& s = entry->second;
    drawn.push_back({s.owner->query, s.subtree, entry->first, NormalizeCost(s.min_cost)});
  }
  return drawn;
}

SampleEncoder::Batch SampleEncoder::Encode(
    const std::vector<Experience::DrawnState>& drawn) {
  Batch batch;
  batch.samples.reserve(drawn.size());
  batch.query_vecs.reserve(drawn.size());
  batch.targets.reserve(drawn.size());
  for (const Experience::DrawnState& d : drawn) {
    auto [qit, new_query] = query_vecs_.try_emplace(d.query->fingerprint);
    if (new_query) qit->second = featurizer_->EncodeQuery(*d.query);
    auto [sit, new_state] = samples_.try_emplace(d.key);
    if (new_state) {
      featurizer_->EncodePlan(*d.query, plan::TrainingState(*d.query, d.subtree),
                              &sit->second.tree, &sit->second.node_features);
    }
    batch.samples.push_back(&sit->second);
    batch.query_vecs.push_back(&qit->second);
    batch.targets.push_back(d.target);
  }
  return batch;
}

}  // namespace neo::core
