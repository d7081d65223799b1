#include "src/core/right_sizer.h"

#include <cmath>

#include "src/common/check.h"

namespace lithos {

namespace {
// Exploration: shrink factor applied while probing down the scaling curve.
constexpr double kProbeFactor = 0.5;
}  // namespace

int RightSizer::ChooseTpcs(const OperatorKey& key, const KernelDesc& kernel,
                           int available_tpcs) const {
  LITHOS_CHECK_GT(available_tpcs, 0);
  if (!config_.enable_rightsizing) {
    return available_tpcs;
  }

  // Step 1: occupancy filter — an intuitive upper bound on useful TPCs that
  // also covers hard-to-model short kernels (§4.5 "Filtering Outliers").
  const int occupancy_bound = OccupancyUpperBound(kernel);
  int bound = std::min(available_tpcs, occupancy_bound);
  if (bound <= 1) {
    return 1;
  }

  // Step 2: model-based minimisation once the scaling curve is known (the
  // predictor fits it from two or more distinct allocations).
  ScalingFit fit;
  if (predictor_->GetScalingFit(key, &fit)) {
    const double l_full = fit.Latency(static_cast<double>(bound));
    const double budget = config_.rightsizing_slip * l_full;
    // l(t) = m/t + b <= budget  =>  t >= m / (budget - b).
    if (budget <= fit.b || fit.m <= 0) {
      return bound;  // Serial floor dominates; shrinking buys nothing safe.
    }
    const int t_min = static_cast<int>(std::ceil(fit.m / (budget - fit.b)));
    return std::clamp(t_min, 1, bound);
  }

  // Step 3: exploration. One observation exists at some allocation; grant a
  // reduced allocation once to obtain the second curve point. The probe
  // factor bounds the worst-case slip of the probing run itself.
  if (predictor_->DistinctTpcPoints(key) == 1) {
    const int probe = std::max(
        1, static_cast<int>(std::lround(static_cast<double>(bound) *
                                        kProbeFactor)));
    return std::min(probe, bound);
  }

  // Unseen operator: run at the full (occupancy-filtered) allocation so the
  // first observation is the curve's anchor point.
  return bound;
}

}  // namespace lithos
