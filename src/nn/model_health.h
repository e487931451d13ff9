// Model-health monitor: post-retrain weight/loss screening with a snapshot
// ring and last-good rollback (the guardrail PR's "model health" leg).
//
// Why: the RL loop retrains the value network every episode on its own
// execution experience. A single diverging retrain (bad batch, exploding
// gradients, or — in the fault-injection harness — a corrupted optimizer
// step) poisons every subsequent plan choice: the search trusts scores from
// a network whose weights hold NaN/Inf or whose loss has left its operating
// band. The monitor screens the network after each retrain; healthy states
// are snapshotted into a small in-memory ring, unhealthy ones are rolled
// back to the most recent good snapshot. Rollback restores Adam moments
// alongside the weights (restoring weights under diverged moments would let
// the very next step re-corrupt them) and bumps the weight version, so every
// search cache keyed on (query, version, ...) invalidates instead of serving
// stale scores.
#pragma once

#include <cstdint>
#include <deque>

#include "src/nn/value_network.h"

namespace neo::nn {

struct ModelHealthOptions {
  bool enabled = false;
  /// Snapshots retained. 1 is enough for single-step faults; a deeper ring
  /// tolerates delayed detection (divergence noticed N retrains in).
  int snapshot_ring = 3;
  /// A retrain loss above `loss_divergence_factor` x the median of the
  /// recent healthy-loss window is treated as divergence. 0 disables the
  /// loss screen (non-finite screens stay on).
  double loss_divergence_factor = 0.0;
  /// Healthy losses remembered for the divergence median. The screen only
  /// engages once the window is full, so early-training loss swings (where
  /// no stable operating band exists yet) never trip it.
  int loss_window = 8;
};

/// Deterministic, serial-phase-only (called between retrain and search, where
/// Neo is single-threaded by construction).
class ModelHealthMonitor {
 public:
  enum class Verdict {
    kHealthy = 0,
    kNonFiniteLoss,     ///< Retrain reported NaN/Inf loss.
    kNonFiniteWeights,  ///< A parameter scan found NaN/Inf.
    kLossDiverged,      ///< Loss left the recent healthy band.
  };

  explicit ModelHealthMonitor(ModelHealthOptions options = {})
      : options_(options) {}

  /// Screens `net` after a retrain that reported mean loss `loss`. Healthy:
  /// snapshots the network into the ring and returns kHealthy. Unhealthy:
  /// rolls `net` back to the most recent good snapshot (if any) and returns
  /// the failing screen. Disabled: always kHealthy, no snapshots.
  Verdict Observe(ValueNetwork* net, double loss);

  /// Pushes `net`'s weights and Adam state onto the ring as the last-good
  /// state. Observe calls it on every healthy retrain; Neo calls it once on
  /// the network it was built with, so that an unhealthy first retrain rolls
  /// back too (with an empty ring every later loss would be NaN and no
  /// snapshot would ever be taken). No-op when disabled.
  void Capture(const ValueNetwork& net);

  static const char* VerdictName(Verdict v);

  int64_t rollbacks() const { return rollbacks_; }
  int64_t snapshots_taken() const { return snapshots_taken_; }
  bool has_snapshot() const { return !ring_.empty(); }
  const ModelHealthOptions& options() const { return options_; }

 private:
  bool LossDiverged(double loss) const;

  ModelHealthOptions options_;
  std::deque<ValueNetwork::WeightSnapshot> ring_;  ///< Oldest at front.
  std::deque<double> recent_losses_;               ///< Healthy losses only.
  int64_t rollbacks_ = 0;
  int64_t snapshots_taken_ = 0;
};

}  // namespace neo::nn
