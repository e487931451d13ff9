#include "src/engine/execution_engine.h"

#include "src/util/rng.h"

namespace neo::engine {

double ExecutionEngine::ExecutePlan(const query::Query& query,
                                    const plan::PartialPlan& plan) {
  return ExecutePlanGuarded(query, plan, /*deadline_ms=*/0.0).latency_ms;
}

ExecutionResult ExecutionEngine::ExecutePlanGuarded(const query::Query& query,
                                                    const plan::PartialPlan& plan,
                                                    double deadline_ms) {
  ExecutionResult result;
  const uint64_t key = util::HashCombine(plan.Hash(), query.fingerprint);
  // Whole-body lock: memo probe, model recompute, injector draws, and the
  // accounting must be one atomic step so concurrent serves observe exact
  // hit/miss/eviction sequences (the model is deterministic, so serializing
  // recomputes changes no values, only keeps the counters exact).
  std::lock_guard<std::mutex> lock(mu_);
  ++num_executions_;

  double base;
  if (const double* hit = latency_cache_.Find(key)) {
    base = *hit;
    ++cache_hits_;
  } else {
    base = model_.Execute(query, plan).latency_ms;
    ++cache_misses_;
    if (latency_cache_.Insert(key, base)) ++cache_evictions_;
  }

  double ms = base;
  if (injector_ != nullptr && injector_->enabled()) {
    ms = injector_->PerturbLatency(key, ms);
    if (injector_->DrawExecutionFailure(key)) {
      result.status = util::Status::Aborted("injected execution failure");
    }
  }
  result.model_latency_ms = ms;

  if (deadline_ms > 0.0 && ms > deadline_ms) {
    // Watchdog: the execution is killed at the deadline; only the deadline's
    // worth of work was incurred, and the true latency is unobserved.
    result.timed_out = true;
    ++num_timeouts_;
    result.latency_ms = deadline_ms;
    result.status = util::Status::DeadlineExceeded("plan exceeded watchdog deadline");
  } else {
    result.latency_ms = ms;
  }

  simulated_execution_ms_ += result.latency_ms;
  return result;
}

}  // namespace neo::engine
