#pragma once

#include <array>
#include <vector>

#include "cost/calibration.h"

namespace costdb {

/// One observed execution, in the vocabulary of the cost model: what the
/// estimator's term predicted for it and what the engine measured.
struct CalibrationObservation {
  int pipeline_id = 0;
  Seconds predicted = 0.0;
  Seconds actual = 0.0;
};

/// The disjoint groups HardwareCalibration's time fields split into. Each
/// group is learned from its own measured signal:
///   kPipeline - per-pipeline wall times against
///               CostEstimator::PipelineDuration (the core operator rates
///               and fixed latencies);
///   kShuffle  - exchange copy time (ShuffleCopyTime + ShuffleDispatch);
///   kLink     - serialize + transfer share of exchanges (LinkTermTime);
///   kStorage  - cold-block fetch+decode time (ColdReadTime).
/// A kPipeline round rescales every group, since every predicted duration
/// includes the core terms' notion of how fast this hardware is; the
/// other terms rescale only their own group.
enum class CalibrationTerm { kPipeline, kShuffle, kLink, kStorage };

/// What one feedback round did to the calibration.
struct CalibrationReport {
  int pipelines_observed = 0;
  /// Geometric-mean q-error max(pred/act, act/pred) before/after the update.
  double q_error_before = 1.0;
  double q_error_after = 1.0;
  /// Multiplier applied to the observed term group's time fields this
  /// round (1.0 = no change).
  double applied_scale = 1.0;

  bool changed(double threshold = 0.05) const {
    return applied_scale > 1.0 + threshold ||
           applied_scale < 1.0 / (1.0 + threshold);
  }
};

/// Closes the paper's calibration loop (Section 3.1 calibrates "before the
/// service starts"; this keeps calibrating *while* it runs): measured
/// times are compared against the cost model's predictions and the shared
/// HardwareCalibration is nudged so subsequent estimates tighten. Within a
/// group all time fields scale together — rates divided, fixed latencies
/// multiplied — which preserves the group's *relative* costs while
/// correcting the absolute scale the hardware actually delivers.
///
/// Each round moves the group by the geometric-mean actual/predicted
/// ratio raised to an EWMA learning rate of 0.5, clamped to [1/8, 8] per
/// round and to [1/1024, 1024] cumulative per group — a runaway guard so
/// a pathological measurement cannot destroy the model. The cumulative
/// clamp is wide because a laptop-local engine legitimately sits orders
/// of magnitude away from the modeled cloud node's fixed latencies.
class CalibrationUpdater {
 public:
  explicit CalibrationUpdater(HardwareCalibration* hw) : hw_(hw) {}

  /// Fold (predicted, actual) pairs for `term` into the calibration.
  /// Predictions must come from the term's own model at the current
  /// calibration. Pairs with a non-positive side carry no ratio and are
  /// skipped; a round with none left is a no-op report.
  CalibrationReport Observe(CalibrationTerm term,
                            const std::vector<CalibrationObservation>& pairs);

  /// Cumulative movement of `term`'s group relative to the initial
  /// calibration: the product of its own rounds' scales and of every
  /// kPipeline scale (which moves every group). For kPipeline, the
  /// product of the kPipeline scales alone.
  double total_scale(CalibrationTerm term) const {
    return total_scale_[static_cast<size_t>(term)];
  }

  /// Rounds that moved (or tried to move) the calibration.
  int rounds() const { return rounds_; }

 private:
  static constexpr size_t kTerms = 4;

  void Rescale(CalibrationTerm term, double scale);

  HardwareCalibration* hw_;
  std::array<double, kTerms> total_scale_ = {1.0, 1.0, 1.0, 1.0};
  int rounds_ = 0;
};

}  // namespace costdb
