#include "src/core/neo.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "src/store/experience_store.h"
#include "src/util/stopwatch.h"

namespace neo::core {

Neo::Neo(const featurize::Featurizer* featurizer, engine::ExecutionEngine* engine,
         NeoConfig config)
    : featurizer_(featurizer),
      engine_(engine),
      config_(std::move(config)),
      search_(featurizer, nullptr),
      rng_(config_.seed) {
  config_.net.query_dim = featurizer_->query_dim();
  config_.net.plan_dim = featurizer_->plan_dim();
  config_.net.seed = util::HashCombine(config_.seed, 0x4e7ULL);
  net_ = std::make_unique<nn::ValueNetwork>(config_.net);
  search_ = PlanSearch(featurizer_, net_.get());
  breaker_ = CircuitBreaker(config_.guards.breaker);
  health_ = nn::ModelHealthMonitor(config_.guards.health);
  health_.Capture(*net_);
}

double Neo::EffectiveDeadline(const query::Query& query) const {
  const WatchdogOptions& w = config_.guards.watchdog;
  double deadline = w.deadline_ms > 0.0 ? w.deadline_ms : 0.0;
  if (w.baseline_factor > 0.0) {
    // Baseline() defaults to 1.0 for unknown ids — gate on actual presence
    // so un-bootstrapped queries don't get a meaningless 1ms-scale deadline.
    const auto it = baselines_.find(query.id);
    if (it != baselines_.end()) {
      const double relative = w.baseline_factor * std::max(1e-6, it->second);
      deadline = deadline > 0.0 ? std::min(deadline, relative) : relative;
    }
  }
  return deadline;
}

double Neo::Serve(const query::Query& query, const plan::PartialPlan& learned_plan,
                  bool learn, bool from_search) {
  std::lock_guard<std::mutex> lock(serve_mu_);
  return ServeAndMaybeLearn(query, learned_plan, learn, from_search);
}

double Neo::ServeAndMaybeLearn(const query::Query& query,
                               const plan::PartialPlan& learned_plan, bool learn,
                               bool from_search) {
  // The breaker engages only for fingerprints with a recorded expert
  // fallback; otherwise there is nothing safe to serve instead.
  const auto fb = fallback_plans_.find(query.fingerprint);
  const bool has_fallback = fb != fallback_plans_.end();
  const bool serve_learned = !has_fallback || breaker_.AllowLearned(query.fingerprint);
  const plan::PartialPlan& plan = serve_learned ? learned_plan : fb->second;

  // The watchdog covers learned AND fallback serves: a fallback execution
  // can also hit an injected spike, and bounding both is what makes guarded
  // workload latency <= baseline_factor x expert latency structural.
  const engine::ExecutionResult result =
      engine_->ExecutePlanGuarded(query, plan, EffectiveDeadline(query));
  if (serve_learned) ++learned_serves_;
  if (result.timed_out) ++timeouts_;

  if (serve_learned && has_fallback) {
    const bool regressed =
        !result.status.ok() ||
        result.latency_ms >
            breaker_.options().regression_factor * Baseline(query.id);
    breaker_.RecordLearnedOutcome(query.fingerprint, regressed);
  }
  if (learn) {
    // The incurred (deadline-clipped) latency of the plan that actually ran
    // is the honest observation — the same clipped-reward semantics as
    // NeoConfig::latency_clip_ms, applied at execution time.
    std::lock_guard<std::mutex> lock(experience_mu_);
    experience_.AddCompletePlan(query, plan, CostOf(query, result.latency_ms));
  }
  if (store_ != nullptr) {
    // A breaker-fallback serve did not come from a live search, whatever the
    // caller believed.
    store_->RecordServe(query, plan, result.latency_ms,
                        from_search && serve_learned);
  }
  return result.latency_ms;
}

GuardStats Neo::guard_stats() const {
  std::lock_guard<std::mutex> lock(serve_mu_);
  GuardStats s;
  s.learned_serves = learned_serves_;
  s.timeouts = timeouts_;
  const CircuitBreaker::Stats& b = breaker_.stats();
  s.fallback_serves = static_cast<int64_t>(b.fallback_serves);
  s.breaker_trips = static_cast<int64_t>(b.trips);
  s.health_rollbacks = health_.rollbacks();
  return s;
}

double Neo::Baseline(int query_id) const {
  auto it = baselines_.find(query_id);
  return it == baselines_.end() ? 1.0 : std::max(1e-6, it->second);
}

double Neo::CostOf(const query::Query& query, double latency_ms) const {
  double lat = latency_ms;
  if (config_.latency_clip_ms > 0.0) lat = std::min(lat, config_.latency_clip_ms);
  switch (config_.cost_function) {
    case CostFunction::kLatency: return lat;
    case CostFunction::kRelative: return lat / Baseline(query.id);
  }
  return lat;
}

void Neo::Bootstrap(const std::vector<const query::Query*>& queries,
                    optim::Optimizer* expert) {
  for (const query::Query* q : queries) {
    const plan::PartialPlan plan = expert->Optimize(*q);
    const double latency = engine_->ExecutePlan(*q, plan);
    SetBaseline(q->id, latency);
    // Remember the expert plan: it is what the circuit breaker serves for
    // this fingerprint while open (cheap — PartialPlan is a shared_ptr
    // forest). insert_or_assign so a re-bootstrap refreshes it.
    fallback_plans_.insert_or_assign(q->fingerprint, plan);
    std::lock_guard<std::mutex> lock(experience_mu_);
    experience_.AddCompletePlan(*q, plan, CostOf(*q, latency));
  }
}

float Neo::Retrain() {
  util::Stopwatch watch;
  float last_loss = 0.0f;
  // Owns this retrain's encodings: a state drawn again by a later epoch is
  // not re-encoded.
  SampleEncoder encoder(featurizer_);
  for (int epoch = 0; epoch < config_.epochs_per_episode; ++epoch) {
    // Only the draw holds the lock, against concurrent serves' inserts. Each
    // drawn state holds its query and subtree, so an eviction cannot free
    // them; encoding and training run unlocked and never stall serving.
    const std::vector<Experience::DrawnState> drawn = [&] {
      std::lock_guard<std::mutex> lock(experience_mu_);
      return experience_.Sample(config_.max_train_samples, rng_);
    }();
    if (drawn.empty()) break;
    const SampleEncoder::Batch batch = encoder.Encode(drawn);
    // Minibatches slice the batch by offset — no per-batch vector copies,
    // and the final under-sized batch trains in place like any other.
    for (size_t start = 0; start < batch.samples.size();
         start += static_cast<size_t>(config_.batch_size)) {
      const size_t len = std::min(batch.samples.size() - start,
                                  static_cast<size_t>(config_.batch_size));
      last_loss = net_->TrainBatch(batch.samples.data() + start,
                                   batch.targets.data() + start, len,
                                   batch.query_vecs.data() + start);
    }
  }
  total_nn_time_ms_ += watch.ElapsedMs();

  // Fault-injection site: a corrupting optimizer step, keyed by retrain
  // index. Deliberately independent of whether the health monitor is enabled
  // — the unguarded arm must demonstrate the divergence the guarded arm
  // recovers from.
  const uint64_t retrain_index = static_cast<uint64_t>(retrains_run_++);
  if (fault_injector_ != nullptr &&
      fault_injector_->DrawWeightCorruption(retrain_index)) {
    net_->DebugPoisonWeights(util::HashCombine(config_.seed, retrain_index));
  }
  // Post-retrain health screen: snapshot if healthy, roll back if not.
  // No-op when config_.guards.health.enabled is false.
  health_.Observe(net_.get(), last_loss);
  return last_loss;
}

EpisodeStats Neo::RunEpisode(const std::vector<const query::Query*>& queries) {
  EpisodeStats stats;
  stats.episode = ++episodes_run_;

  util::Stopwatch nn_watch;
  stats.retrain_loss = Retrain();
  stats.nn_time_ms = nn_watch.ElapsedMs();

  // Plan every training query (shuffled order), then execute and learn from
  // each. Planning runs against the network frozen by the Retrain above;
  // planner 0 is this thread with search_, planners 1..n-1 are std::threads
  // with episode_searches_, and each claims query indices from one counter.
  // Execution and experience updates then run serially in the shuffled
  // order, so the episode outcome does not depend on the planner count or
  // on thread scheduling at all.
  std::vector<const query::Query*> order = queries;
  rng_.Shuffle(order);
  util::Stopwatch search_watch;
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int planners = std::max(
      1, std::min<int>({config_.threads, static_cast<int>(order.size()), cores}));
  while (episode_searches_.size() + 1 < static_cast<size_t>(planners)) {
    episode_searches_.push_back(std::make_unique<PlanSearch>(featurizer_, net_.get()));
  }
  std::vector<SearchResult> found(order.size());
  std::atomic<size_t> next{0};
  // The first failure (a planner's exception, or a thread that would not
  // start) stops the other planners and is rethrown once all have joined.
  std::exception_ptr failure;
  std::mutex failure_mu;
  const auto fail = [&](std::exception_ptr e) {
    next = order.size();
    std::lock_guard<std::mutex> lock(failure_mu);
    if (!failure) failure = std::move(e);
  };
  const auto plan = [&](PlanSearch* searcher) {
    try {
      for (size_t i = next++; i < order.size(); i = next++) {
        found[i] = searcher->FindPlan(*order[i], config_.search);
      }
    } catch (...) {
      fail(std::current_exception());
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(planners - 1));
  try {
    for (int w = 1; w < planners; ++w) {
      workers.emplace_back(plan, episode_searches_[static_cast<size_t>(w - 1)].get());
    }
  } catch (...) {
    fail(std::current_exception());
  }
  plan(&search_);
  for (std::thread& t : workers) t.join();
  if (failure) std::rethrow_exception(failure);
  stats.search_time_ms = search_watch.ElapsedMs();
  // Guarded or not, serving decisions happen here in the serial phase — the
  // breaker state machine advances in shuffled query order, so guardrails
  // never break planner-count invariance.
  for (size_t i = 0; i < order.size(); ++i) {
    stats.train_total_latency_ms +=
        ServeAndMaybeLearn(*order[i], found[i].plan, /*learn=*/true);
  }
  stats.experience_states = experience_.NumStates();
  return stats;
}

SearchResult Neo::Plan(const query::Query& query) {
  return search_.FindPlan(query, config_.search);
}

double Neo::PlanAndExecute(const query::Query& query) {
  const SearchResult found = search_.FindPlan(query, config_.search);
  return ServeAndMaybeLearn(query, found.plan, /*learn=*/false);
}

double Neo::EvaluateTotalLatency(const std::vector<const query::Query*>& queries) {
  double total = 0.0;
  for (const query::Query* q : queries) total += PlanAndExecute(*q);
  return total;
}

double Neo::ExecuteAndLearn(const query::Query& query) {
  const SearchResult found = search_.FindPlan(query, config_.search);
  return ServeAndMaybeLearn(query, found.plan, /*learn=*/true);
}

}  // namespace neo::core
