#include "src/nn/model_health.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace neo::nn {

bool ModelHealthMonitor::LossDiverged(double loss) const {
  if (options_.loss_divergence_factor <= 0.0) return false;
  if (static_cast<int>(recent_losses_.size()) < options_.loss_window) return false;
  // Median of the healthy window: robust to the occasional high-loss batch
  // that a mean would let drag the band upward.
  std::vector<double> sorted(recent_losses_.begin(), recent_losses_.end());
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  return loss > options_.loss_divergence_factor * median;
}

ModelHealthMonitor::Verdict ModelHealthMonitor::Observe(ValueNetwork* net,
                                                        double loss) {
  if (!options_.enabled) return Verdict::kHealthy;

  Verdict verdict = Verdict::kHealthy;
  if (!std::isfinite(loss)) {
    verdict = Verdict::kNonFiniteLoss;
  } else if (LossDiverged(loss)) {
    verdict = Verdict::kLossDiverged;
  } else if (net->HasNonFiniteParams()) {
    // Weight scan last: it is the most expensive screen.
    verdict = Verdict::kNonFiniteWeights;
  }

  if (verdict == Verdict::kHealthy) {
    Capture(*net);
    recent_losses_.push_back(loss);
    while (static_cast<int>(recent_losses_.size()) > std::max(1, options_.loss_window)) {
      recent_losses_.pop_front();
    }
    return verdict;
  }

  // An empty ring (nothing captured before this retrain) leaves nothing to
  // roll back to; the verdict still reaches the caller, whose circuit
  // breaker / watchdog are the remaining lines of defense.
  if (!ring_.empty()) {
    net->RestoreSnapshot(ring_.back());
    ++rollbacks_;
  }
  return verdict;
}

void ModelHealthMonitor::Capture(const ValueNetwork& net) {
  if (!options_.enabled) return;
  ring_.emplace_back();
  net.CaptureSnapshot(&ring_.back());
  ++snapshots_taken_;
  while (static_cast<int>(ring_.size()) > std::max(1, options_.snapshot_ring)) {
    ring_.pop_front();
  }
}

const char* ModelHealthMonitor::VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kHealthy: return "healthy";
    case Verdict::kNonFiniteLoss: return "non_finite_loss";
    case Verdict::kNonFiniteWeights: return "non_finite_weights";
    case Verdict::kLossDiverged: return "loss_diverged";
  }
  return "unknown";
}

}  // namespace neo::nn
