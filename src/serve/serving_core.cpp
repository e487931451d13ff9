#include "src/serve/serving_core.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace neo::serve {

ServingCore::ServingCore(core::Neo* neo, ServingOptions options)
    : neo_(neo),
      options_(std::move(options)),
      rcu_(neo->net().config()),
      score_cache_(options_.shared_score_cap, kScoreCacheStripes) {
  options_.workers = std::max(1, options_.workers);
  if (options_.store != nullptr) {
    // Every serve through the choke point records into the store; Decide()
    // consultation happens in ServeOne before search.
    neo_->SetExperienceStore(options_.store);
  }
  if (options_.admission.enabled && options_.admission.ladder.enabled) {
    controller_ =
        std::make_unique<DegradationController>(options_.admission.ladder);
  }
  // Level-1 budget: a real search, just a cheaper one. Derived once so the
  // worker's per-request choice is a pointer pick, not a recompute.
  degraded_search_ = options_.search;
  const LadderOptions& ladder = options_.admission.ladder;
  if (degraded_search_.max_expansions > 0) {
    degraded_search_.max_expansions =
        std::max(1, degraded_search_.max_expansions /
                        std::max(1, ladder.l1_expansion_divisor));
  } else {
    degraded_search_.max_expansions = std::max(1, ladder.l1_unlimited_expansions);
  }
  rcu_.Publish(neo_->net());
  searches_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    searches_.push_back(
        std::make_unique<core::PlanSearch>(&neo_->featurizer(), nullptr));
  }
  threads_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ServingCore::~ServingCore() { Stop(); }

void ServingCore::FailTask(Task&& task, util::Status status, int level) {
  ServeResult r;
  r.queue_ms = task.queued.ElapsedMs();
  r.status = std::move(status);
  r.ladder_level = level;
  task.promise.set_value(std::move(r));
}

std::future<ServeResult> ServingCore::Submit(const query::Query& query,
                                             bool learn,
                                             const SubmitOptions& submit) {
  const AdmissionOptions& adm = options_.admission;
  Task task;
  task.query = &query;
  task.learn = learn;
  task.deadline_ms = submit.deadline_ms > 0.0 ? submit.deadline_ms
                                              : adm.default_deadline_ms;
  task.priority = submit.priority;
  std::future<ServeResult> future = task.promise.get_future();
  // Tasks failed under the lock complete their futures after it drops.
  std::vector<Task> failed_expired;
  Task failed_victim;
  bool have_victim = false;
  util::Status reject;  // Ok = admitted.
  int level = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    ++requests_;
    task.seq = requests_;
    if (stopping_) {
      ++rejected_post_stop_;
      reject = util::Status::FailedPrecondition("Submit after Stop");
    } else if (adm.enabled) {
      level = controller_ != nullptr ? controller_->level() : 0;
      if (level >= 3) {
        // Level 3 admits nothing, so pickups — the controller's usual
        // observation source — stop once the queue drains, and the ladder
        // could never recover. Fold the shed arrival itself as an
        // observation (depth pressure only; it never waited), so an idle
        // system decays pressure and re-opens admission.
        level = controller_->Observe(/*queue_wait_ms=*/0.0,
                                     /*deadline_ms=*/0.0, queue_.size(),
                                     adm.queue_cap);
      }
      if (level >= 3) {
        // The ladder's terminal level: protect queued work by refusing new
        // work outright — the cheapest possible serve of this request.
        ++shed_admission_;
        reject = util::Status::ResourceExhausted("overload: shedding at admission");
      } else if (adm.queue_cap > 0 && queue_.size() >= adm.queue_cap) {
        if (adm.policy == ShedPolicy::kEvictExpiredFirst) {
          // Past-deadline queued requests can never be served in time;
          // evicting them first converts dead queue slots into live ones.
          for (auto it = queue_.begin(); it != queue_.end();) {
            if (it->deadline_ms > 0.0 &&
                it->queued.ElapsedMs() > it->deadline_ms) {
              ++expired_at_admission_;
              failed_expired.push_back(std::move(*it));
              it = queue_.erase(it);
            } else {
              ++it;
            }
          }
        }
        if (queue_.size() >= adm.queue_cap) {
          // Priority shed: a strictly higher-priority arrival evicts the
          // lowest-priority queued request; ties keep what is queued.
          auto victim = queue_.end();
          for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (it->priority < task.priority &&
                (victim == queue_.end() || it->priority < victim->priority)) {
              victim = it;
            }
          }
          if (victim != queue_.end()) {
            ++evicted_lower_priority_;
            failed_victim = std::move(*victim);
            have_victim = true;
            queue_.erase(victim);
          } else {
            ++shed_queue_full_;
            reject = util::Status::ResourceExhausted("overload: queue full");
          }
        }
      }
    }
    if (reject.ok()) {
      ++admitted_;
      queue_.push_back(std::move(task));
      queue_depth_hwm_ = std::max(queue_depth_hwm_, queue_.size());
    }
  }
  for (Task& t : failed_expired) {
    FailTask(std::move(t),
             util::Status::DeadlineExceeded("deadline passed while queued"),
             level);
  }
  if (have_victim) {
    FailTask(std::move(failed_victim),
             util::Status::ResourceExhausted(
                 "overload: evicted for a higher-priority arrival"),
             level);
  }
  if (!reject.ok()) {
    FailTask(std::move(task), std::move(reject), level);
    return future;
  }
  queue_cv_.notify_one();
  return future;
}

ServeResult ServingCore::ServeSync(const query::Query& query, bool learn) {
  return Submit(query, learn).get();
}

uint64_t ServingCore::PublishWeights() { return rcu_.Publish(neo_->net()); }

float ServingCore::RetrainAndPublish() {
  std::lock_guard<std::mutex> lock(retrain_mu_);
  // Retrain mutates only the primary network, which no worker reads — every
  // in-flight search scores on an RCU standby — so this blocks nothing.
  const float loss = neo_->Retrain();
  rcu_.Publish(neo_->net());
  return loss;
}

void ServingCore::Drain() {
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drain_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  }
  // Every observation recorded so far is now in the WAL buffer; make it
  // durable before reporting the core idle.
  if (options_.store != nullptr) options_.store->Sync();
}

void ServingCore::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  // Explicit shutdown ordering: (1) wait until queued AND in-flight requests
  // finish — workers only exit on an empty queue, but in-flight serves must
  // have *recorded* before the flush below; (2) flush the store WAL so no
  // accepted request's observation is lost; (3) join.
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drain_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  }
  if (options_.store != nullptr) options_.store->Sync();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ServingCore::WorkerLoop(int worker_index) {
  core::PlanSearch& search = *searches_[static_cast<size_t>(worker_index)];
  const bool admission = options_.admission.enabled;
  for (;;) {
    Task task;
    int level = 0;
    bool expired = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Stopping and fully drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      task.picked_wait_ms = task.queued.ElapsedMs();
      if (controller_ != nullptr) {
        // One pickup = one controller observation (under the queue mutex,
        // so the observation sequence is totally ordered).
        level = controller_->Observe(task.picked_wait_ms, task.deadline_ms,
                                     queue_.size(), options_.admission.queue_cap);
      }
      expired = admission && task.deadline_ms > 0.0 &&
                task.picked_wait_ms > task.deadline_ms;
      if (expired) {
        // The caller stopped waiting before we could start: drop without
        // executing. This is what makes queue_ms <= deadline structural for
        // every request that does execute.
        if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
      } else {
        ++in_flight_;
      }
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      queue_wait_hist_.Record(task.picked_wait_ms);
    }
    if (expired) {
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      FailTask(std::move(task),
               util::Status::DeadlineExceeded("deadline passed while queued"),
               level);
      continue;
    }
    ServeResult result;
    // Crash containment: a throwing serve fails only this request's future;
    // the worker (and every other queued request) survives.
    try {
      util::FaultInjector* chaos = options_.fault_injector;
      if (chaos != nullptr) {
        const double stall_ms = chaos->DrawServeStall(task.seq);
        if (stall_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(stall_ms));
        }
        if (chaos->DrawServeException(task.seq)) {
          throw std::runtime_error("injected poisoned request");
        }
      }
      result = ServeOne(search, task, level);
    } catch (const std::exception& e) {
      worker_exceptions_.fetch_add(1, std::memory_order_relaxed);
      result = ServeResult();
      result.queue_ms = task.picked_wait_ms;
      result.ladder_level = level;
      result.status = util::Status::Internal(e.what());
    } catch (...) {
      worker_exceptions_.fetch_add(1, std::memory_order_relaxed);
      result = ServeResult();
      result.queue_ms = task.picked_wait_ms;
      result.ladder_level = level;
      result.status = util::Status::Internal("unknown serve exception");
    }
    task.promise.set_value(std::move(result));
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
    }
  }
}

ServeResult ServingCore::ServeOne(core::PlanSearch& search, const Task& task,
                                  int level) {
  ServeResult out;
  out.queue_ms = task.picked_wait_ms;
  out.ladder_level = level;

  // 1. Choose the plan: a pinned plan (no search), else a search.
  plan::PartialPlan pinned;
  double pinned_latency_ms = 0.0;
  bool have_pinned = false;
  store::ExperienceStore* store = options_.store;
  if (store != nullptr) {
    store::Decision decision = store->Decide(*task.query);
    if (decision.use_pinned) {
      // Exploit/frozen type: serve the best-known plan, skip search.
      out.served_from_store = true;
      out.store_probe = decision.is_probe;
      pinned = std::move(decision.pinned);
      pinned_latency_ms = decision.pinned_latency_ms;
      have_pinned = true;
    }
  }
  if (!have_pinned && level >= 2) {
    // Ladder level 2: no search. Serve the store's best-known plan, else
    // the query's bootstrap expert plan. With neither, fall through to a
    // reduced-budget search — still strictly cheaper than full service.
    have_pinned = store != nullptr &&
                  store->BestPlanFor(*task.query, &pinned, &pinned_latency_ms);
    if (!have_pinned) {
      const plan::PartialPlan* fb = neo_->FallbackPlan(task.query->fingerprint);
      if (fb != nullptr) {
        pinned = *fb;  // cheap: shared_ptr roots
        pinned.query = task.query;
        pinned_latency_ms = neo_->Baseline(task.query->id);
        have_pinned = true;
      }
    }
    out.degraded = have_pinned;
  }

  const bool searched = !have_pinned;
  ModelRcu::Ref ref;
  core::SearchResult found;
  if (searched) {
    ref = rcu_.Acquire();
    NEO_CHECK(ref.net != nullptr);
    out.generation = ref.generation;
    // Rebind to this request's snapshot; the generation re-salts every
    // score-cache key so entries from other snapshots are never served.
    search.Rebind(ref.net.get());
    search.BindScoreCache(&score_cache_, ref.generation);

    const bool reduced_budget = level >= 1;
    if (reduced_budget) {
      out.degraded = true;
      degraded_budget_serves_.fetch_add(1, std::memory_order_relaxed);
    }
    util::Stopwatch plan_watch;
    found = search.FindPlan(*task.query,
                            reduced_budget ? degraded_search_ : options_.search);
    out.plan_ms = plan_watch.ElapsedMs();
  }

  // 2. One tail. Every serve flows through Neo's guarded choke point
  // (watchdog, breaker, experience, store recording); a pinned serve tells
  // the store's mode machine it did not come from a search.
  const plan::PartialPlan& plan = searched ? found.plan : pinned;
  out.latency_ms =
      neo_->Serve(*task.query, plan, task.learn, /*from_search=*/searched);
  out.predicted_cost =
      searched ? found.predicted_cost : static_cast<float>(pinned_latency_ms);
  out.plan_hash = plan.Hash();
  if (!searched) out.generation = rcu_.generation();
  // Stamped before the periodic store sync: the request that pays for a sync
  // leaves it out of total_ms (neobench's serve.handoff shows it).
  out.total_ms = task.queued.ElapsedMs();
  if (searched) {
    activation_hits_.fetch_add(found.activation_hits, std::memory_order_relaxed);
    // rows_recomputed sums over the conv layers; the misses count node rows.
    activation_misses_.fetch_add(
        found.rows_recomputed / ref.net->config().tree_channels.size(),
        std::memory_order_relaxed);
    out.search = std::move(found);
  } else {
    (out.served_from_store ? store_pinned_serves_ : degraded_pinned_serves_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  MaybeSyncStore();

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    total_hist_.Record(out.total_ms);
  }
  return out;
}

ServingStats ServingCore::stats() const {
  ServingStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.total_latency = total_hist_;
    s.queue_wait = queue_wait_hist_;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    s.requests = requests_;
    s.admitted = admitted_;
    s.shed_admission = shed_admission_;
    s.shed_queue_full = shed_queue_full_;
    s.evicted_lower_priority = evicted_lower_priority_;
    s.expired_at_admission = expired_at_admission_;
    s.rejected_post_stop = rejected_post_stop_;
    s.queue_depth_hwm = queue_depth_hwm_;
    if (controller_ != nullptr) {
      s.ladder_level = controller_->level();
      s.ladder_transitions = controller_->transitions();
      s.ladder_level_entries = controller_->level_entries();
    }
  }
  s.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  s.degraded_budget_serves =
      degraded_budget_serves_.load(std::memory_order_relaxed);
  s.degraded_pinned_serves =
      degraded_pinned_serves_.load(std::memory_order_relaxed);
  s.worker_exceptions = worker_exceptions_.load(std::memory_order_relaxed);
  s.generation = rcu_.generation();
  s.score_cache = score_cache_.TotalStats();
  s.activation_cache.hits = activation_hits_.load(std::memory_order_relaxed);
  s.activation_cache.misses = activation_misses_.load(std::memory_order_relaxed);
  s.store_pinned_serves = store_pinned_serves_.load(std::memory_order_relaxed);
  return s;
}

void ServingCore::MaybeSyncStore() {
  if (options_.store == nullptr || options_.store_sync_every <= 0) return;
  const uint64_t n = store_ops_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Amortized durability: one worker pays an fsync (and possibly a
  // snapshot) every store_sync_every requests; Drain()/Stop() cover the
  // tail.
  if (n % static_cast<uint64_t>(options_.store_sync_every) == 0) {
    options_.store->Sync();
  }
}

}  // namespace neo::serve
