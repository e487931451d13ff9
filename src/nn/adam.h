// Adam optimizer (Kingma & Ba [19]; paper §6.1 trains with Adam).
#pragma once

#include <cstdint>
#include <vector>

#include "src/nn/layers.h"

namespace neo::nn {

struct AdamOptions {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
  float grad_clip = 5.0f;  ///< Global-norm clip; 0 disables.
};

/// Step skips every parameter row that cannot change. With weight_decay 0,
/// a row whose gradient is all +0 and whose moments are all +0 updates to
/// w - (lr * 0) / (sqrt(0) + eps) = w, keeps m = v = +0, adds +0 to the clip
/// norm and has no gradient to reset, so leaving it out of the norm, the
/// clip's scale, the update and the reset changes no bit. The query stack's
/// first Linear is where this pays: its input rows that no training query
/// uses never get a gradient. A row joins the live set the first time its
/// gradient is non-zero and stays in it, since its moments may be non-zero
/// from then on; with weight_decay > 0 every row is live.
class Adam {
 public:
  explicit Adam(std::vector<Param*> params, AdamOptions options = {});

  /// Applies one update from the accumulated gradients, then zeroes them.
  void Step();

  int64_t steps() const { return t_; }

  /// Copies the optimizer state (first/second moments + step count) out /
  /// back in. Used by the model-health snapshot ring: rolling weights back
  /// without their moments would let diverged moments re-corrupt the next
  /// step. Restore requires shapes captured from this same optimizer, and
  /// re-derives the live rows from the restored moments.
  void CaptureState(std::vector<Matrix>* m, std::vector<Matrix>* v,
                    int64_t* steps) const;
  void RestoreState(const std::vector<Matrix>& m, const std::vector<Matrix>& v,
                    int64_t steps);

 private:
  /// Elements [begin, end) of parameter `param`: a run of live rows.
  struct Span {
    size_t param;
    int64_t begin;
    int64_t end;
  };

  /// Marks the rows whose gradient turned non-zero, then fills spans_ with
  /// the runs of live rows, parameters in order.
  void CollectLiveSpans();

  std::vector<Param*> params_;
  AdamOptions options_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  /// One flag per parameter row, parameters in order (row_begin_[k] is
  /// parameter k's first): 1 once the row's moments may be non-zero.
  std::vector<uint8_t> live_;
  std::vector<size_t> row_begin_;
  /// This step's live spans; capacity for one per row, so Step never
  /// allocates.
  std::vector<Span> spans_;
  int64_t t_ = 0;
};

}  // namespace neo::nn
