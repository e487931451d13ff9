// Optimizer-as-a-service: the concurrent serving front over Neo.
//
// ============================ Architecture =================================
//
//             Submit(query) ──► [ request queue (deque + cv) ]
//                                       │ pop
//             ┌─────────────────────────┼─────────────────────────┐
//         worker 0                  worker 1        ...       worker N-1
//        (dedicated std::thread, owns one core::PlanSearch)
//             │ 1. ModelRcu::Acquire()      — wait-free weight snapshot
//             │ 2. search.Rebind(snapshot)  — + BindScoreCache(generation):
//             │                               the score-cache key salt
//             │ 3. FindPlan()               — scores through the shared
//             │                               score cache
//             │ 4. Neo::Serve()             — guarded execute/learn
//             ▼
//        per-request ServeResult
//        (latency histograms record)
//
// The pieces and why they exist:
//
// 1. Request queue + worker threads. Requests enqueue without blocking and
//    drain through a fixed pool of workers, each owning one PlanSearch (its
//    inference scratch and subtree table are never shared). Workers are
//    dedicated std::threads, and a request's search runs serially on its
//    worker, so request concurrency is the only parallelism in the serving
//    core.
//
// 2. One scoring path. Each worker's search scores its own candidate
//    batches through the same subtree table and ValueNetwork row-set calls
//    a standalone PlanSearch uses; requests never wait on each other's
//    scoring rounds (concurrent searches rarely reach a round together, so
//    waiting to merge their batches costs more than a larger GEMM saves).
//    Network inference writes only the worker's own scratch (after the
//    snapshot's once-per-version weight-split refresh), so N workers score
//    one RCU snapshot concurrently without locks. Within one search, each
//    distinct subtree is scored once through the search's own table (see
//    search.h), which the next search starts over.
//
// 3. One shared score cache (util::ScoreCache), the only mutable state
//    searches share. Every worker's search probes one process-global flat,
//    fixed-capacity, 8-way set-associative score table with one lock per
//    stripe of sets before scoring, and inserts what it scores, so repeat
//    queries hit scores cached by ANY worker. Hits are copied out under the
//    stripe lock; no pointer into the table escapes. Keys are salted with
//    (query fp, net version, kernel arm, RCU generation): invalidation is
//    free — entries of dead snapshots simply stop being probed and are
//    evicted as their sets fill.
//
// 4. RCU weight snapshots (model_rcu.h). Background retraining mutates only
//    Neo's primary network; PublishWeights()/RetrainAndPublish() snapshot it
//    into a standby and atomically swap the serving pointer. In-flight
//    searches finish on the snapshot they acquired; retraining NEVER stalls
//    serving and serving never reads half-written weights.
//
// Determinism: a single-client (workers=1) serving loop is bit-identical to
// calling FindPlan + ServeAndMaybeLearn inline on a twin Neo at the same
// published weights; multi-client runs produce the same per-request
// scores/plans whenever the cache state they observe is value-equal (the
// score cache only ever stores bitwise-recomputable values).
//
// Ordering: guarded execution (breaker/watchdog/experience) is serialized
// inside Neo::Serve; the order concurrent requests reach it is scheduling-
// dependent, which is inherent to concurrent serving, not an artifact.
//
// ======================= Overload resilience ===============================
//
// ServingOptions::admission (see overload.h) arms three layers; with it
// disabled (the default) every one of them is bypassed and serving is the
// literal pre-admission code path (bit-identical, tested).
//
// 5. Deadline-aware admission control. Submit takes a per-request deadline
//    and priority (SubmitOptions); the queue is bounded at
//    admission.queue_cap. A full queue sheds by policy — kRejectNewest
//    rejects the arrival, kEvictExpiredFirst first evicts queued requests
//    whose deadline already passed (their futures fail kDeadlineExceeded)
//    and only then rejects; an arrival with strictly higher priority than
//    the lowest-priority queued request evicts that victim instead of being
//    rejected. Every shed/evicted/rejected submission completes its future
//    immediately with a non-ok util::Status (kResourceExhausted /
//    kDeadlineExceeded / kFailedPrecondition after Stop) — no future is
//    EVER abandoned, under any overload or shutdown sequence. Workers drop
//    queued requests whose deadline expired while waiting (counted as
//    expired_in_queue, never executed): an admitted-and-served request
//    therefore has queue_ms <= its deadline STRUCTURALLY, which is the
//    overload acceptance bound (tested by
//    OverloadFixture.AcceptanceBurstKeepsAdmittedWithinDeadline).
//
// 6. Graceful-degradation ladder (overload.h). A queue-pressure controller
//    (EWMA of queue depth / cap and queue wait / deadline headroom, folded
//    at every worker pickup — and at every shed arrival while at level 3,
//    which is what lets an idle system recover — under the queue mutex)
//    walks four levels with
//    per-level hysteresis bands and a min-dwell transition rate limit:
//      0 full search -> 1 reduced search budget (max_expansions /
//      l1_expansion_divisor) -> 2 no search (the
//      store's best-known plan, else the query's bootstrap expert plan) ->
//      3 shed at admission (kResourceExhausted).
//    Degraded serves still flow through Neo's guarded choke point
//    (from_search=false at level 2) and complete with ok status,
//    ServeResult::degraded=true, and the deciding level in
//    ServeResult::ladder_level. The controller is a pure function of its
//    observation trace — identical traces replay identical level sequences
//    (the determinism contract; see overload.h). Transitions and per-level
//    entries are counted in ServingStats. Follow-on: the background
//    superoptimization daemon (ROADMAP) must gate its re-search work on
//    ladder level 0 — spending idle-cycle budget while the ladder is
//    degrading live traffic would be self-defeating.
//
// 7. Worker crash containment. The serve body runs under a catch-all: a
//    throwing search/execution fails only that request's future
//    (kInternal + worker_exceptions counter) and the worker keeps serving.
//    Paired with util::FaultInjector's kServeException site (a "poisoned
//    request") and kServeStall site (slow-serve stalls) for chaos tests;
//    ServingOptions::fault_injector arms both.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/neo.h"
#include "src/serve/model_rcu.h"
#include "src/serve/overload.h"
#include "src/store/experience_store.h"
#include "src/util/fault_injector.h"
#include "src/util/latency_histogram.h"
#include "src/util/score_cache.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace neo::serve {

/// Lock-stripe count of the shared score cache.
inline constexpr int kScoreCacheStripes = 16;

struct ServingOptions {
  int workers = 2;  ///< Request worker threads (clamped to >= 1).
  bool coalesce = false;  ///< Ignored; kept so existing callers compile.
  /// Entry cap of the shared score cache: 1,048,576 scores by default. The
  /// cap (>= 1) is an upper bound rounded down to whole 8-way sets — a
  /// power-of-two number of them, so the default is exact — and is exact
  /// below 8 (one set of `cap` ways).
  size_t shared_score_cap = 1 << 20;
  core::SearchOptions search;
  /// Durable per-query-type experience store (see store/experience_store.h).
  /// Not owned; may be null (store-less serving is the literal unchanged
  /// path). The constructor attaches it to Neo's serve choke point; workers
  /// consult ExperienceStore::Decide before searching — an exploit/frozen
  /// type serves its pinned best plan and skips search entirely — and the
  /// WAL is fsynced every `store_sync_every` requests, on Drain(), and
  /// before workers join in Stop().
  store::ExperienceStore* store = nullptr;
  int store_sync_every = 64;
  /// Deadline-aware admission control + degradation ladder (overload.h).
  /// Disabled by default: serving is then the literal pre-admission path.
  AdmissionOptions admission;
  /// Arms the serving-side chaos sites (kServeStall / kServeException) for
  /// the overload tests. Not owned; may be null (no injection).
  util::FaultInjector* fault_injector = nullptr;
};

/// Per-request admission parameters for Submit.
struct SubmitOptions {
  /// Wall-clock budget from Submit to worker pickup (0: none, or the
  /// admission default). A request past its deadline is dropped — at
  /// admission-time eviction or at worker pickup — with kDeadlineExceeded.
  double deadline_ms = 0.0;
  /// Shed order under a full queue: an arrival with strictly higher
  /// priority evicts the lowest-priority queued request instead of being
  /// rejected. Ties favor what is already queued.
  int priority = 0;
};

/// Everything one request observed, returned through the Submit future.
struct ServeResult {
  double latency_ms = 0.0;     ///< Executed (guarded) plan latency.
  float predicted_cost = 0.0f;
  uint64_t plan_hash = 0;
  double queue_ms = 0.0;       ///< Submit -> worker pickup.
  double plan_ms = 0.0;        ///< FindPlan wall time.
  double total_ms = 0.0;       ///< Submit -> serve complete.
  uint64_t generation = 0;     ///< RCU weight generation served under.
  /// True: the experience store pinned this serve (exploit/frozen mode) and
  /// no search ran; predicted_cost is the store's best-known latency.
  bool served_from_store = false;
  bool store_probe = false;    ///< This pinned serve was a drift probe.
  /// Ok: the request executed (possibly degraded). kResourceExhausted: shed
  /// at admission (ladder level 3 or full queue). kDeadlineExceeded: the
  /// deadline passed while queued — dropped, never executed.
  /// kFailedPrecondition: submitted after Stop. kInternal: the serve body
  /// threw (the worker survived). Non-ok results carry queue_ms/ladder_level
  /// best-effort and zeros elsewhere.
  util::Status status;
  int ladder_level = 0;  ///< Ladder level this request was decided at.
  bool degraded = false; ///< Served below full search (level 1 or 2).
  core::SearchResult search;
};

struct ServingStats {
  util::LatencyHistogram total_latency;  ///< Per-request total_ms.
  uint64_t requests = 0;
  uint64_t generation = 0;
  util::CacheStats score_cache;
  /// Node rows the workers' searches served from their subtree tables
  /// (hits) and computed (misses); the other fields stay 0.
  util::CacheStats activation_cache;
  /// Serves this core answered with the store's pinned plan. The store's
  /// own counters are ExperienceStore::stats().
  uint64_t store_pinned_serves = 0;
  // Overload / admission counters. `requests` above counts every Submit;
  // the disjoint outcomes below account for each exactly once:
  //   requests == admitted + shed_admission + shed_queue_full
  //             + rejected_post_stop
  //   admitted == served (total_latency.count()) + expired_at_admission
  //             + expired_in_queue + evicted_lower_priority
  //             + worker_exceptions
  uint64_t admitted = 0;
  uint64_t shed_admission = 0;         ///< Shed at ladder level 3.
  uint64_t shed_queue_full = 0;        ///< Rejected: queue at cap.
  uint64_t evicted_lower_priority = 0; ///< Evicted for a higher-priority arrival.
  uint64_t expired_at_admission = 0;   ///< Past-deadline queued, evicted by policy.
  uint64_t expired_in_queue = 0;       ///< Dropped at pickup: deadline passed.
  uint64_t rejected_post_stop = 0;     ///< Submit after Stop.
  uint64_t degraded_budget_serves = 0; ///< Level-1 reduced-budget searches.
  uint64_t degraded_pinned_serves = 0; ///< Level-2 no-search serves.
  uint64_t worker_exceptions = 0;      ///< Serve bodies that threw (contained).
  size_t queue_depth_hwm = 0;          ///< Queue depth high-water mark.
  int ladder_level = 0;                ///< Current ladder level.
  uint64_t ladder_transitions = 0;
  std::array<uint64_t, 4> ladder_level_entries{};
  util::LatencyHistogram queue_wait;   ///< Submit -> pickup, every pickup.
};

class ServingCore {
 public:
  /// `neo` must be bootstrapped (baselines/fallbacks recorded) before
  /// serving starts and must outlive this object. The constructor publishes
  /// the primary network's current weights as generation 1 and starts the
  /// workers.
  ServingCore(core::Neo* neo, ServingOptions options);
  ~ServingCore();

  ServingCore(const ServingCore&) = delete;
  ServingCore& operator=(const ServingCore&) = delete;

  /// Enqueues one request. `query` must stay alive until the future
  /// resolves. `learn` feeds the observation back into experience (under
  /// Neo's internal synchronization). The future ALWAYS resolves — served,
  /// degraded, shed, expired, or failed (see ServeResult::status); after
  /// Stop it resolves immediately with kFailedPrecondition.
  std::future<ServeResult> Submit(const query::Query& query, bool learn) {
    return Submit(query, learn, SubmitOptions{});
  }
  std::future<ServeResult> Submit(const query::Query& query, bool learn,
                                  const SubmitOptions& submit);

  /// Submit + wait.
  ServeResult ServeSync(const query::Query& query, bool learn);

  /// Snapshots the primary network's weights into the RCU as a new serving
  /// generation (e.g. after an external Retrain / weight load).
  uint64_t PublishWeights();

  /// Retrains Neo's primary network on current experience, then publishes
  /// the result. Safe to call from a background thread while requests are
  /// being served — serving keeps scoring on the previous generation until
  /// the publish lands. Returns the final minibatch loss.
  float RetrainAndPublish();

  /// Blocks until the queue is empty and no request is in flight, then
  /// flushes the experience-store WAL (every recorded observation is
  /// durable once Drain returns).
  void Drain();

  /// Graceful shutdown: stops intake, waits for queued + in-flight requests
  /// to finish, flushes the experience-store WAL, then joins the workers.
  /// Called by the destructor; idempotent.
  void Stop();

  ServingStats stats() const;

  core::Neo& neo() { return *neo_; }
  const ServingOptions& options() const { return options_; }

 private:
  struct Task {
    const query::Query* query = nullptr;
    bool learn = false;
    std::promise<ServeResult> promise;
    util::Stopwatch queued;  ///< Starts at Submit.
    double deadline_ms = 0.0;  ///< 0: no deadline.
    int priority = 0;
    uint64_t seq = 0;          ///< Submission sequence number (chaos keys).
    double picked_wait_ms = 0.0;  ///< Queue wait measured at worker pickup.
  };

  void WorkerLoop(int worker_index);
  ServeResult ServeOne(core::PlanSearch& search, const Task& task, int level);
  /// Completes a task's future with a non-ok status (shed/expired/failed).
  static void FailTask(Task&& task, util::Status status, int level);
  /// Pays the periodic store WAL fsync every store_sync_every requests.
  void MaybeSyncStore();

  core::Neo* neo_;
  ServingOptions options_;
  ModelRcu rcu_;
  util::ScoreCache score_cache_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable drain_cv_;
  std::deque<Task> queue_;
  int in_flight_ = 0;
  bool stopping_ = false;
  uint64_t requests_ = 0;
  // Admission accounting + ladder controller, all guarded by queue_mu_.
  uint64_t admitted_ = 0;
  uint64_t shed_admission_ = 0;
  uint64_t shed_queue_full_ = 0;
  uint64_t evicted_lower_priority_ = 0;
  uint64_t expired_at_admission_ = 0;
  uint64_t rejected_post_stop_ = 0;
  size_t queue_depth_hwm_ = 0;
  std::unique_ptr<DegradationController> controller_;  ///< Null if disabled.
  /// Level-1 search budget, derived from options_.search in the ctor.
  core::SearchOptions degraded_search_;

  std::mutex retrain_mu_;  ///< Serializes RetrainAndPublish callers.

  mutable std::mutex stats_mu_;
  util::LatencyHistogram total_hist_;
  util::LatencyHistogram queue_wait_hist_;
  std::atomic<uint64_t> expired_in_queue_{0};
  std::atomic<uint64_t> degraded_budget_serves_{0};
  std::atomic<uint64_t> degraded_pinned_serves_{0};
  std::atomic<uint64_t> worker_exceptions_{0};
  std::atomic<uint64_t> activation_hits_{0};
  std::atomic<uint64_t> activation_misses_{0};
  std::atomic<uint64_t> store_pinned_serves_{0};
  /// Requests since start, for the store_sync_every cadence.
  std::atomic<uint64_t> store_ops_{0};

  std::vector<std::unique_ptr<core::PlanSearch>> searches_;  ///< One per worker.
  std::vector<std::thread> threads_;
};

}  // namespace neo::serve
