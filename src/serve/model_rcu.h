// RCU-style (read-copy-update) weight snapshots for the serving core.
//
// Problem: a background Retrain mutates the primary ValueNetwork's weights
// in place, so serving searches must never read it mid-step — but stalling
// every in-flight search for the duration of a retrain is exactly the
// latency cliff a serving system cannot afford.
//
// Solution: serving never reads the primary network at all. ModelRcu keeps a
// pool of standby networks; Publish() captures the primary's weights
// (ValueNetwork::CaptureSnapshot), restores them into an idle standby, and
// atomically swaps it in as the current serving net with a fresh monotonic
// generation number. Readers Acquire() a shared_ptr to whatever net is
// current — a wait-free pointer load — and keep scoring on that snapshot for
// the whole request even if a newer generation publishes mid-search. The
// retrain thread therefore never blocks a serve, and a serve never observes
// half-written weights.
//
// Idle-standby reuse: a pool entry is reusable iff nothing outside the pool
// references it (use_count() == 1) and it is not the currently published
// net. A non-current net can only LOSE references (Acquire only hands out
// the current one), so the check cannot race into a restore-under-reader.
// The pool never shrinks: nets stay alive for the ModelRcu's lifetime, so a
// PlanSearch that was rebound to an old net between requests holds a valid
// (if stale) pointer until its next rebind.
//
// Generations vs versions: RestoreSnapshot bumps the standby's own weight
// version, but two different standbys can coincidentally carry equal version
// numbers while holding different weights. The generation — unique across
// publishes — is what the shared score cache folds into its keys (see
// core::PlanSearch::BindScoreCache).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "src/nn/value_network.h"

namespace neo::serve {

class ModelRcu {
 public:
  /// A reader's lease on one published snapshot. Holding the shared_ptr
  /// keeps the standby from being recycled by a later Publish.
  struct Ref {
    std::shared_ptr<nn::ValueNetwork> net;
    uint64_t generation = 0;
  };

  /// `config` must be the primary network's exact architecture (dims filled);
  /// standbys are constructed from it and RestoreSnapshot checks shapes.
  explicit ModelRcu(const nn::ValueNetConfig& config) : config_(config) {}

  /// Wait-free reader acquire of the current snapshot. Ref.net is null only
  /// before the first Publish.
  Ref Acquire() const;

  /// Snapshots `source`'s weights into an idle (or new) standby and makes it
  /// current. Serialized internally; returns the new generation. The caller
  /// must ensure `source` is not being trained during the capture (the
  /// retrain thread publishes after its own Retrain completes, so this holds
  /// by construction in the serving core).
  uint64_t Publish(const nn::ValueNetwork& source);

  uint64_t generation() const { return Acquire().generation; }
  /// Standby networks ever allocated (diagnostic; stabilizes at roughly
  /// 1 + max concurrent in-flight generations).
  size_t pool_size() const;

 private:
  struct Published {
    std::shared_ptr<nn::ValueNetwork> net;
    uint64_t generation = 0;
  };

  nn::ValueNetConfig config_;
  mutable std::mutex publish_mu_;  ///< Serializes Publish; guards pool_.
  /// Swapped via std::atomic_load/store so Acquire never takes publish_mu_.
  std::shared_ptr<const Published> current_;
  std::vector<std::shared_ptr<nn::ValueNetwork>> pool_;
  uint64_t generation_ = 0;  ///< Guarded by publish_mu_.
};

}  // namespace neo::serve
