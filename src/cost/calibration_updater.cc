#include "cost/calibration_updater.h"

#include <algorithm>
#include <cmath>

namespace costdb {

namespace {

constexpr double kLearningRate = 0.5;
constexpr double kMaxStep = 8.0;
constexpr double kMaxTotalDrift = 1024.0;

using Field = double HardwareCalibration::*;

/// One group of time fields. Times are volume/rate plus fixed seconds, so
/// dividing the rates and multiplying the fixed latencies by `scale`
/// multiplies every duration the group prices by exactly `scale`.
struct TermGroup {
  std::vector<Field> rates;
  std::vector<Field> latencies;
};

/// Indexed by CalibrationTerm. Sizes (vector_batch_rows), the parallel
/// decay and the configured transport are not times and never move.
const std::array<TermGroup, 4>& TermGroups() {
  using HW = HardwareCalibration;
  static const std::array<TermGroup, 4> groups = {{
      {{&HW::scan_gibps_per_node, &HW::network_gibps_per_node,
        &HW::filter_rows_per_sec, &HW::project_rows_per_sec,
        &HW::hash_build_rows_per_sec, &HW::hash_probe_rows_per_sec,
        &HW::agg_rows_per_sec, &HW::agg_merge_groups_per_sec,
        &HW::sort_rows_per_sec, &HW::exchange_rows_per_sec},
       {&HW::shuffle_sync_per_node, &HW::pipeline_startup,
        &HW::worker_spinup_seconds, &HW::batch_dispatch_seconds}},
      {{&HW::shuffle_gibps}, {&HW::shuffle_dispatch_seconds}},
      {{&HW::wire_serialize_gibps, &HW::link_gibps}, {&HW::link_rtt_seconds}},
      {{&HW::storage_read_gibps}, {&HW::storage_get_seconds}},
  }};
  return groups;
}

double QError(double predicted, double actual) {
  if (predicted <= 0.0 || actual <= 0.0) return 1.0;
  return std::max(predicted / actual, actual / predicted);
}

double GeoMeanQError(const std::vector<CalibrationObservation>& pairs) {
  if (pairs.empty()) return 1.0;
  double log_sum = 0.0;
  for (const auto& p : pairs) log_sum += std::log(QError(p.predicted, p.actual));
  return std::exp(log_sum / static_cast<double>(pairs.size()));
}

}  // namespace

CalibrationReport CalibrationUpdater::Observe(
    CalibrationTerm term,
    const std::vector<CalibrationObservation>& observed) {
  std::vector<CalibrationObservation> pairs;
  for (const auto& p : observed) {
    if (p.predicted > 0.0 && p.actual > 0.0) pairs.push_back(p);
  }
  CalibrationReport report;
  report.pipelines_observed = static_cast<int>(pairs.size());
  if (pairs.empty()) return report;
  report.q_error_before = GeoMeanQError(pairs);

  // Geometric mean of actual/predicted: the single multiplier that, applied
  // to every predicted duration, minimizes the aggregate log error.
  double log_ratio = 0.0;
  for (const auto& p : pairs) log_ratio += std::log(p.actual / p.predicted);
  log_ratio /= static_cast<double>(pairs.size());
  double scale = std::exp(log_ratio * kLearningRate);
  scale = std::clamp(scale, 1.0 / kMaxStep, kMaxStep);
  // Keep the group's cumulative drift bounded relative to the initial
  // calibration.
  const double so_far = total_scale(term);
  const double proposed = std::clamp(so_far * scale, 1.0 / kMaxTotalDrift,
                                     kMaxTotalDrift);
  scale = proposed / so_far;

  if (term == CalibrationTerm::kPipeline) {
    // The core terms sit under every predicted duration: move every group
    // and every group's drift tracker.
    for (size_t g = 0; g < kTerms; ++g) {
      Rescale(static_cast<CalibrationTerm>(g), scale);
    }
  } else {
    Rescale(term, scale);
  }
  ++rounds_;
  report.applied_scale = scale;

  // Every time term of the group scales linearly in `scale`, so the
  // post-update q-error is exact without re-invoking the model.
  for (auto& p : pairs) p.predicted *= scale;
  report.q_error_after = GeoMeanQError(pairs);
  return report;
}

void CalibrationUpdater::Rescale(CalibrationTerm term, double scale) {
  const size_t g = static_cast<size_t>(term);
  const TermGroup& group = TermGroups()[g];
  for (Field f : group.rates) hw_->*f /= scale;
  for (Field f : group.latencies) hw_->*f *= scale;
  total_scale_[g] *= scale;
}

}  // namespace costdb
