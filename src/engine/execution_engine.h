// Facade bundling one emulated engine: profile + oracle + latency model +
// a plan-latency memo cache. Plays the role of "the database execution
// engine" in Figure 1 of the paper: Neo submits a complete plan, gets back a
// latency.
//
// Guardrail surface (paper §6.3.3, Fig. 14): `ExecutePlanGuarded` runs a plan
// under a watchdog deadline — a plan whose (possibly fault-injected) latency
// exceeds the deadline is killed, reported via a util::Status, and charged
// only the deadline's worth of simulated execution time, exactly like a
// production timeout. An optional util::FaultInjector perturbs executions
// with deterministic latency spikes and mid-flight failures so the guardrails
// above (Neo's circuit breaker, the experience clipping) can be exercised
// reproducibly.
//
// Thread safety: the latency memo, its counters, and the simulated-time
// accumulator live behind one internal mutex, so concurrent guarded serves
// (the serving core overlapping a background retrain, or tests hammering the
// engine from many threads) keep every counter exact. A single mutex — not a
// sharded cache — is deliberate: the memo's exact global LRU order is pinned
// by tests (cap=1 eviction sequences), and real serve call sites already
// serialize execution, so the lock is uncontended in practice.
#pragma once

#include <memory>
#include <mutex>

#include "src/engine/cardinality_oracle.h"
#include "src/engine/engine_profile.h"
#include "src/engine/latency_model.h"
#include "src/util/fault_injector.h"
#include "src/util/lru_map.h"
#include "src/util/status.h"

namespace neo::engine {

/// Outcome of one guarded plan execution.
struct ExecutionResult {
  /// Latency the caller incurred: the model latency, clipped at the deadline
  /// when the watchdog fired (the query was killed at the deadline).
  double latency_ms = 0.0;
  /// The engine model's full latency (after fault injection, before the
  /// watchdog clip). Equal to latency_ms unless timed_out.
  double model_latency_ms = 0.0;
  bool timed_out = false;          ///< Watchdog killed the execution.
  util::Status status;             ///< Ok / DeadlineExceeded / Aborted.
};

class ExecutionEngine {
 public:
  /// Default bound on the plan-latency memo cache (entries). The model is
  /// deterministic, so eviction only costs recomputation, never correctness.
  static constexpr size_t kDefaultLatencyCacheCap = 1 << 20;

  ExecutionEngine(const catalog::Schema& schema, const storage::Database& db,
                  EngineKind kind)
      : kind_(kind),
        profile_(GetEngineProfile(kind)),
        oracle_(std::make_unique<CardinalityOracle>(schema, db)),
        model_(profile_, oracle_.get()) {
    latency_cache_.Clear(kDefaultLatencyCacheCap);
  }

  /// Executes a complete plan, returning its latency in (simulated) ms.
  /// Deterministic; memoized on (query, plan) so RL retraining loops are
  /// cheap, but every call still accrues simulated execution time. Equivalent
  /// to ExecutePlanGuarded with no deadline (the unguarded seam: Bootstrap's
  /// expert executions, the benches and the tests use it).
  double ExecutePlan(const query::Query& query, const plan::PartialPlan& plan);

  /// Executes under a watchdog deadline (<= 0 disables it). When the plan's
  /// latency — including any injected spike — exceeds the deadline, the
  /// execution is killed: `latency_ms` is clipped at the deadline,
  /// `timed_out` is set, and `status` reports kDeadlineExceeded. Injected
  /// mid-flight failures report kAborted (the incurred latency still
  /// accrues: the work was done before the crash).
  ExecutionResult ExecutePlanGuarded(const query::Query& query,
                                     const plan::PartialPlan& plan,
                                     double deadline_ms);

  /// Attaches a fault injector (nullptr detaches). Not owned; must outlive
  /// the engine or be detached first. Injection draws are deterministic per
  /// (injector seed, plan key, occurrence) — see util::FaultInjector.
  void SetFaultInjector(util::FaultInjector* injector) {
    std::lock_guard<std::mutex> lock(mu_);
    injector_ = injector;
  }

  /// Re-caps the latency memo cache, dropping all entries (0 = unbounded).
  void SetLatencyCacheCap(size_t cap) {
    std::lock_guard<std::mutex> lock(mu_);
    latency_cache_.Clear(cap);
  }

  EngineKind kind() const { return kind_; }
  const EngineProfile& profile() const { return profile_; }
  CardinalityOracle& oracle() { return *oracle_; }
  const LatencyModel& model() const { return model_; }

  /// Simulated wall-clock spent executing queries (counts cache hits too:
  /// a real deployment executes each submitted plan). Timed-out executions
  /// accrue only up to the deadline — the watchdog killed them. Used by the
  /// Fig. 11 training-time accounting.
  double simulated_execution_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return simulated_execution_ms_;
  }
  size_t num_executions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return num_executions_;
  }
  /// Distinct plans currently memoized (bounded by the cache cap).
  size_t num_distinct_plans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return latency_cache_.size();
  }

  size_t latency_cache_hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_hits_;
  }
  size_t latency_cache_misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_misses_;
  }
  size_t latency_cache_evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_evictions_;
  }
  size_t num_timeouts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return num_timeouts_;
  }

 private:
  EngineKind kind_;
  const EngineProfile& profile_;
  std::unique_ptr<CardinalityOracle> oracle_;
  LatencyModel model_;
  /// Guards the memo, counters, injector pointer, and simulated time (see the
  /// thread-safety notes in the file header).
  mutable std::mutex mu_;
  /// Plan-latency memo, bounded LRU (it previously grew without limit — a
  /// leak under any serving-shaped workload). Stores the model's un-injected
  /// latency; fault perturbation applies per execution on top.
  util::LruMap<uint64_t, double> latency_cache_;
  util::FaultInjector* injector_ = nullptr;
  double simulated_execution_ms_ = 0.0;
  size_t num_executions_ = 0;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;
  size_t cache_evictions_ = 0;
  size_t num_timeouts_ = 0;
};

}  // namespace neo::engine
