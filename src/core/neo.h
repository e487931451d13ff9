// Neo (Neural Optimizer): the end-to-end learned query optimizer of the
// paper, tying together featurization, the value network, DNN-guided search,
// the experience store, and the execution engine.
//
// Lifecycle (paper §2, Figure 1):
//   1. Bootstrap(queries, expert)  - "Expertise Collection": execute the
//      expert optimizer's plans, seed the experience store, record per-query
//      baselines (used by the relative cost function).
//   2. RunEpisode(queries)         - "Model Building + Plan Search + Model
//      Refinement": retrain the value network on experience, then for each
//      training query search a plan, execute it, and add the observed
//      latency back to experience (value iteration).
//   3. Plan / PlanAndExecute       - inference on arbitrary queries.
//
// Guardrails (serving robustness; see also circuit_breaker.h, model_health.h,
// util/fault_injector.h). A learned optimizer in the serving path needs a
// bounded worst case, not just a good average — one bad retrain or one
// mispredicted plan must not dominate workload latency. Three independent,
// individually-toggleable layers provide that bound:
//
//   1. Execution watchdog (GuardrailConfig::watchdog): every guarded serve
//      carries a deadline — an absolute ms budget and/or a multiple of the
//      query's recorded expert baseline, whichever is tighter. An execution
//      that exceeds it is reported as DEADLINE_EXCEEDED and incurs only the
//      deadline latency; the clipped observation still feeds experience (the
//      same semantics as NeoConfig::latency_clip_ms, applied at execution
//      time). The deadline applies to learned AND fallback serves, so total
//      guarded latency is structurally bounded by
//      baseline_factor x (expert workload latency), whatever faults occur.
//   2. Per-query circuit breaker (GuardrailConfig::breaker): after
//      `trip_after` consecutive regressed learned serves of one fingerprint,
//      the expert's bootstrap plan is served instead, with exponential-
//      backoff half-open probes to re-admit the learned plan once it
//      recovers. Deterministic state machine — see circuit_breaker.h.
//   3. Model-health monitor (GuardrailConfig::health): after each Retrain,
//      the network is screened for non-finite loss/weights and loss
//      divergence; unhealthy retrains roll back to the last-good snapshot
//      (weights + Adam moments; before the first healthy retrain, the
//      network Neo was built with), bumping the weight version so every
//      search cache invalidates — see model_health.h.
//
// Determinism: guards change only *which* plan executes and *how* its
// latency is accounted, decided serially at execution time; the planning
// phase always searches the learned plan (even when a breaker is open), so
// episode results remain bit-identical at any thread count. There is one
// serve path. With every guard disabled (the default) it runs the learned
// plan with the latency an unguarded execution reports: the deadline is 0,
// and a disabled breaker admits every serve and records nothing. The serve
// counter still counts (GuardStats::learned_serves).
#pragma once

#include <memory>
#include <mutex>

#include "src/core/circuit_breaker.h"
#include "src/core/experience.h"
#include "src/core/search.h"
#include "src/engine/execution_engine.h"
#include "src/nn/model_health.h"
#include "src/optim/optimizer.h"
#include "src/util/fault_injector.h"

namespace neo::store {
class ExperienceStore;
}

namespace neo::core {

/// Execution-watchdog deadlines (0 = that bound disabled).
struct WatchdogOptions {
  /// Absolute per-execution deadline in ms.
  double deadline_ms = 0.0;
  /// Deadline as a multiple of the query's recorded expert baseline; only
  /// applies to queries with a baseline (Bootstrap records one per query).
  /// When both bounds are set the tighter one wins.
  double baseline_factor = 0.0;
};

/// The three guardrail layers. All disabled by default; see the file-level
/// guardrail notes above.
struct GuardrailConfig {
  WatchdogOptions watchdog;
  CircuitBreakerOptions breaker;
  nn::ModelHealthOptions health;
};

/// Aggregate guardrail counters (local serve counters + breaker stats +
/// health-monitor rollbacks). The breaker's full counts are
/// CircuitBreaker::stats(); injected faults are counted by the injector.
struct GuardStats {
  int64_t learned_serves = 0;     ///< Serves that ran the learned plan.
  int64_t fallback_serves = 0;    ///< Serves answered with the expert plan.
  int64_t timeouts = 0;           ///< Serves cut off by the watchdog.
  int64_t breaker_trips = 0;
  int64_t health_rollbacks = 0;
};

struct NeoConfig {
  CostFunction cost_function = CostFunction::kLatency;
  int epochs_per_episode = 2;
  int batch_size = 64;
  size_t max_train_samples = 3000;
  SearchOptions search;
  /// Planning concurrency (1 = fully serial). RunEpisode plans up to this
  /// many queries at once, the calling thread plus threads - 1 std::threads,
  /// one PlanSearch each, clamped to the episode's query count and to
  /// std::thread::hardware_concurrency() so planners never outnumber cores.
  /// Everything else (retraining, execution, experience updates) runs on the
  /// calling thread. Results are identical at any setting: every query is
  /// planned against the frozen network before any executes, and execution
  /// + experience updates run serially in the shuffled query order
  /// afterwards.
  int threads = 1;
  /// Latency clipping applied when adding experience (0 = off). Used by the
  /// no-demonstration experiment (§6.3.3): clipping destroys the reward
  /// signal beyond the timeout.
  double latency_clip_ms = 0.0;
  /// Serving guardrails (watchdog / breaker / health). All off by default;
  /// see the guardrail notes at the top of this file.
  GuardrailConfig guards;
  nn::ValueNetConfig net;  ///< query_dim / plan_dim are filled from the featurizer.
  uint64_t seed = 17;
};

struct EpisodeStats {
  int episode = 0;
  double train_total_latency_ms = 0.0;  ///< Executed latency over the episode.
  float retrain_loss = 0.0f;            ///< Final minibatch MSE.
  double nn_time_ms = 0.0;              ///< Wall time spent on network training.
  double search_time_ms = 0.0;          ///< Wall time of the planning phase.
  size_t experience_states = 0;
};

class Neo {
 public:
  Neo(const featurize::Featurizer* featurizer, engine::ExecutionEngine* engine,
      NeoConfig config);

  /// Collects expert demonstrations: for each query, runs the expert's plan
  /// on the engine, records it as experience and as the per-query baseline.
  void Bootstrap(const std::vector<const query::Query*>& queries,
                 optim::Optimizer* expert);

  /// One full training episode over the training queries.
  EpisodeStats RunEpisode(const std::vector<const query::Query*>& queries);

  /// Search a plan with the current value network (no execution).
  SearchResult Plan(const query::Query& query);

  /// Search + execute; returns observed latency (ms). Does not learn.
  double PlanAndExecute(const query::Query& query);

  /// Total latency of the current policy over a set of queries (no learning).
  double EvaluateTotalLatency(const std::vector<const query::Query*>& queries);

  /// Executes a query with learning: plan, execute, add to experience.
  /// Returns observed latency. Used by the Ext-JOB incremental-learning
  /// experiment (§6.4.2).
  double ExecuteAndLearn(const query::Query& query);

  /// Re-fits the value network on current experience (called automatically
  /// by RunEpisode; exposed for Fig. 13/14 style offline training).
  float Retrain();

  /// Thread-safe serve entry point for the serving core: executes
  /// `learned_plan` through the guarded choke point (ServeAndMaybeLearn)
  /// under an internal serve mutex, so N request workers may call this
  /// concurrently — with each other AND with a background Retrain. The
  /// breaker/watchdog state machines, guard counters, and engine accounting
  /// all advance atomically per serve; experience inserts additionally
  /// synchronize with Retrain's sampling via a second internal mutex.
  /// A single caller sees exactly ServeAndMaybeLearn's semantics.
  /// `from_search` distinguishes live search results from pinned/fallback
  /// plans for the experience store's mode machine (see store/).
  double Serve(const query::Query& query, const plan::PartialPlan& learned_plan,
               bool learn, bool from_search = true);

  void SetBaseline(int query_id, double latency_ms) {
    baselines_[query_id] = latency_ms;
  }
  double Baseline(int query_id) const;

  /// The bootstrap expert plan recorded for `fingerprint`, or nullptr when
  /// none exists. This is what the circuit breaker serves while open, and
  /// what the serving core's degradation ladder serves at its no-search
  /// level when the experience store has no best-known plan. The map is
  /// populated only by Bootstrap (which must precede serving), so reading it
  /// concurrently from request workers is safe.
  const plan::PartialPlan* FallbackPlan(uint64_t fingerprint) const {
    const auto it = fallback_plans_.find(fingerprint);
    return it == fallback_plans_.end() ? nullptr : &it->second;
  }

  Experience& experience() { return experience_; }
  nn::ValueNetwork& net() { return *net_; }
  PlanSearch& search() { return search_; }
  engine::ExecutionEngine& engine() { return *engine_; }
  const featurize::Featurizer& featurizer() const { return *featurizer_; }
  const NeoConfig& config() const { return config_; }

  double total_nn_time_ms() const { return total_nn_time_ms_; }
  int episodes_run() const { return episodes_run_; }

  /// Attaches a fault injector driving Retrain's weight-corruption site
  /// (latency spikes / execution failures attach to the engine instead, via
  /// ExecutionEngine::SetFaultInjector). nullptr detaches. Not owned; must
  /// outlive this object or be detached first.
  void SetFaultInjector(util::FaultInjector* injector) { fault_injector_ = injector; }

  /// Attaches the durable per-query-type experience store: every serve
  /// through the choke point is recorded (ExperienceStore::RecordServe: its
  /// latency, and the plan when it is the type's new best). nullptr
  /// detaches; a detached store records nothing. Not owned; must outlive
  /// this object or be detached first.
  void SetExperienceStore(store::ExperienceStore* store) { store_ = store; }

  GuardStats guard_stats() const;
  CircuitBreaker& breaker() { return breaker_; }
  nn::ModelHealthMonitor& health() { return health_; }

 private:
  double CostOf(const query::Query& query, double latency_ms) const;

  /// The watchdog deadline for one serve of `query` (0 = none): the tighter
  /// of the absolute deadline and baseline_factor x recorded baseline.
  double EffectiveDeadline(const query::Query& query) const;

  /// The single serve choke point: every execution of a searched plan
  /// (RunEpisode, PlanAndExecute, ExecuteAndLearn) funnels through here. It
  /// consults the breaker for the plan to serve (learned vs the query's
  /// bootstrap fallback), executes it under the watchdog deadline, reports
  /// the outcome back to the breaker, feeds the (possibly deadline-clipped)
  /// observation of the plan that actually ran into experience when `learn`,
  /// and records the serve in the attached store. Returns the incurred
  /// latency.
  double ServeAndMaybeLearn(const query::Query& query,
                            const plan::PartialPlan& learned_plan, bool learn,
                            bool from_search = true);

  const featurize::Featurizer* featurizer_;
  engine::ExecutionEngine* engine_;
  NeoConfig config_;
  std::unique_ptr<nn::ValueNetwork> net_;
  Experience experience_;
  PlanSearch search_;
  /// The PlanSearch instances of RunEpisode's planners 1..n-1 (created
  /// lazily; planner w uses entry w - 1, and planner 0, the calling thread,
  /// uses search_), so subtree tables and inference scratch are never shared
  /// across threads.
  std::vector<std::unique_ptr<PlanSearch>> episode_searches_;
  util::Rng rng_;
  std::unordered_map<int, double> baselines_;
  /// Expert bootstrap plan per Query::fingerprint — what the breaker serves
  /// while open. The breaker only engages for fingerprints present here.
  std::unordered_map<uint64_t, plan::PartialPlan> fallback_plans_;
  CircuitBreaker breaker_;
  nn::ModelHealthMonitor health_;
  util::FaultInjector* fault_injector_ = nullptr;  ///< Not owned; may be null.
  store::ExperienceStore* store_ = nullptr;        ///< Not owned; may be null.
  /// Serializes concurrent Serve() calls through the guarded choke point
  /// (breaker + watchdog + counters advance atomically per serve); mutable so
  /// guard_stats() reads a consistent snapshot. The single-threaded episode
  /// paths never take it — they call ServeAndMaybeLearn directly.
  mutable std::mutex serve_mu_;
  /// Synchronizes experience mutation (serves learning) with Retrain's draws.
  /// A draw copies out what it needs (the query by shared_ptr, the state's
  /// subtree, the label), so Retrain encodes into its own SampleEncoder and
  /// trains outside the lock, while serves may insert and evict.
  std::mutex experience_mu_;
  double total_nn_time_ms_ = 0.0;
  int episodes_run_ = 0;
  int64_t retrains_run_ = 0;
  // Local guard counters (breaker/health keep their own; composed by
  // guard_stats()).
  int64_t learned_serves_ = 0;
  int64_t timeouts_ = 0;
};

}  // namespace neo::core
