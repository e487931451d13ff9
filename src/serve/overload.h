// Overload resilience for the serving core: deadline-aware admission control
// over a bounded request queue, and a graceful-degradation ladder driven by
// queue pressure.
//
// ============================ The ladder ===================================
//
//   level 0  full search            (the normal serving path)
//   level 1  reduced search budget  (SearchOptions::max_expansions divided by
//                                    l1_expansion_divisor — still a live
//                                    search, just a cheaper one)
//   level 2  no search              (serve the experience store's best-known
//                                    plan, else the query's bootstrap expert
//                                    plan; falls back to a level-1 search only
//                                    when neither exists)
//   level 3  shed at admission      (Submit returns a kResourceExhausted
//                                    future immediately; nothing is queued)
//
// ======================= The controller signal =============================
//
// The DegradationController is a pure state machine over an observation
// sequence. Each worker pickup contributes one observation (and, at level 3
// only, each shed arrival contributes a depth-only observation — level 3
// admits nothing, so without it the controller would starve of observations
// once the queue drained and could never recover):
//
//   x = max(queue_depth / queue_cap,  queue_wait_ms / deadline_ms)
//
// (the deadline term only when the request carries a deadline; x clamped to
// max_observation so one pathological wait cannot saturate the signal), and
// the controller folds it into an EWMA:
//
//   pressure += ewma_alpha * (x - pressure)
//
// Pressure ~0 means requests are picked up instantly into an empty queue;
// pressure ~1 means the queue is pinned at its cap and/or waits are eating
// the whole deadline budget.
//
// ====================== Hysteresis + determinism ===========================
//
// Transitions move ONE level at a time and only after min_dwell observations
// at the current level; rising uses rise[level] and falling uses
// fall[level-1], with fall[i] < rise[i] opening a hysteresis band so a
// pressure value sitting between the two thresholds never flaps the level.
//
// Determinism contract: the controller is a pure function of its observation
// sequence — replaying the same (wait, deadline, depth, cap) trace from a
// fresh controller reproduces the exact same level sequence, transition
// count, and per-level entry counts (tested). In live serving the
// observation sequence itself depends on scheduling, which is inherent to
// concurrent serving; what the contract buys is that overload behavior is
// unit-testable against recorded traces and identical across reruns of the
// same trace.
//
// Thread model: the controller is not internally synchronized — ServingCore
// calls Observe()/level() under its queue mutex.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace neo::serve {

/// How Submit makes room (or refuses to) when the bounded queue is full.
enum class ShedPolicy {
  /// Reject the arriving request (kResourceExhausted).
  kRejectNewest,
  /// First evict queued requests whose deadline already passed (their
  /// futures fail kDeadlineExceeded — they could never be served in time
  /// anyway); if the queue is still full, fall back to kRejectNewest.
  kEvictExpiredFirst,
};

/// Degradation-ladder tuning. See the file header for the level semantics.
struct LadderOptions {
  bool enabled = true;
  double ewma_alpha = 0.25;
  /// Pressure at or above rise[i] moves level i -> i+1.
  std::array<double, 3> rise = {0.5, 0.75, 0.92};
  /// Pressure below fall[i] moves level i+1 -> i. Keep fall[i] < rise[i].
  std::array<double, 3> fall = {0.3, 0.55, 0.8};
  /// Observations required at a level before the next transition may fire.
  int min_dwell = 4;
  /// Clamp on a single observation's pressure contribution.
  double max_observation = 2.0;
  /// Level-1 budget: full max_expansions / divisor (>= 1). An unlimited
  /// (<= 0) full budget degrades to l1_unlimited_expansions.
  int l1_expansion_divisor = 4;
  int l1_unlimited_expansions = 16;
};

/// Admission control for ServingCore. Disabled by default: with
/// enabled=false, Submit/serving is the literal pre-admission code path
/// (bit-identical — the parity contract, tested).
struct AdmissionOptions {
  bool enabled = false;
  /// Bounded queue capacity (queued, not in-flight). Submissions beyond it
  /// shed by `policy`.
  size_t queue_cap = 256;
  ShedPolicy policy = ShedPolicy::kEvictExpiredFirst;
  /// Deadline applied to requests submitted without one (0 = none). A
  /// request whose deadline expires while queued is dropped at worker
  /// pickup — counted, never executed.
  double default_deadline_ms = 0.0;
  LadderOptions ladder;
};

/// The queue-pressure -> ladder-level state machine (see file header).
class DegradationController {
 public:
  explicit DegradationController(const LadderOptions& options)
      : options_(options) {}

  /// Folds one worker-pickup observation and returns the level after it.
  /// `depth` is the queue depth after the pickup; `deadline_ms` <= 0 means
  /// the request carried no deadline.
  int Observe(double queue_wait_ms, double deadline_ms, size_t depth,
              size_t cap);

  int level() const { return level_; }
  double pressure() const { return pressure_; }
  uint64_t transitions() const { return transitions_; }
  /// Times each level was entered (entries[0] counts recoveries to full
  /// service, not the initial state).
  const std::array<uint64_t, 4>& level_entries() const { return entries_; }

 private:
  LadderOptions options_;
  double pressure_ = 0.0;
  int level_ = 0;
  int dwell_ = 0;  ///< Observations since the last transition.
  uint64_t transitions_ = 0;
  std::array<uint64_t, 4> entries_{};
};

}  // namespace neo::serve
