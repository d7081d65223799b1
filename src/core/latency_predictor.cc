#include "src/core/latency_predictor.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace lithos {

namespace {
// TPC allocations are bucketed to integers for the per-allocation EWMA table.
int TpcBucket(double tpcs) { return std::max(1, static_cast<int>(std::lround(tpcs))); }
}  // namespace

double LatencyPredictor::FreqFactor(int freq_mhz, double sensitivity) const {
  if (freq_mhz <= 0 || freq_mhz >= spec_.max_mhz) {
    return 1.0;
  }
  const double ratio = static_cast<double>(spec_.max_mhz) / static_cast<double>(freq_mhz);
  return 1.0 + sensitivity * (ratio - 1.0);
}

const ScalingFit& LatencyPredictor::Fit(const OperatorModel& m) const {
  if (m.fit_stale) {
    std::vector<double> ts, ls;
    ts.reserve(m.by_tpcs.size());
    ls.reserve(m.by_tpcs.size());
    for (const auto& [t, l] : m.by_tpcs) {
      ts.push_back(static_cast<double>(t));
      ls.push_back(l);
    }
    m.fit = FitInverseScaling(ts, ls);
    m.fit_stale = false;
  }
  return m.fit;
}

DurationNs LatencyPredictor::Predict(const OperatorKey& key, const ExecConditions& cond) const {
  const double frac = std::clamp(cond.block_fraction, 1e-9, 1.0);

  auto it = ops_.find(key);
  if (it == ops_.end()) {
    // Unseen operator: queue-wide mean, else kDefaultLatency. The prior is
    // deliberately rough; it only has to be good enough to decide whether a
    // first execution is worth atomizing.
    double base = static_cast<double>(kDefaultLatency);
    auto qit = queue_mean_.find(key.queue_id);
    if (qit != queue_mean_.end()) {
      base = qit->second.mean;
    }
    return static_cast<DurationNs>(base * frac * FreqFactor(cond.freq_mhz, 1.0));
  }

  const OperatorModel& m = it->second;
  const double ff = FreqFactor(cond.freq_mhz, m.freq_sensitivity);

  if (m.by_tpcs.size() >= 2) {
    // Enough distinct allocations: fit l = m/t + b over canonical points.
    const double lat = Fit(m).Latency(std::max(cond.tpcs, 1e-6));
    return static_cast<DurationNs>(std::max(1.0, lat * frac * ff));
  }

  // One allocation point: conservative optimal-linear-scaling extrapolation
  // (an operator seen at 100% of the GPU is predicted to take 2x at 50%).
  const auto& [t0, canonical] = *m.by_tpcs.begin();
  const double scale = static_cast<double>(t0) / std::max(cond.tpcs, 1e-6);
  return static_cast<DurationNs>(std::max(1.0, canonical * scale * frac * ff));
}

void LatencyPredictor::Record(const OperatorKey& key, const ExecConditions& cond,
                              DurationNs observed, DurationNs predicted) {
  LITHOS_CHECK_GT(observed, 0);
  const double frac = std::clamp(cond.block_fraction, 1e-9, 1.0);

  OperatorModel& m = ops_[key];

  // Estimate frequency sensitivity when the same allocation has been seen at
  // f_max: s = (l_f / l_fmax - 1) / (f_max/f - 1).
  const int bucket = TpcBucket(cond.tpcs);
  if (cond.freq_mhz > 0 && cond.freq_mhz < spec_.max_mhz) {
    auto bit = m.by_tpcs.find(bucket);
    if (bit != m.by_tpcs.end() && bit->second > 0) {
      const double l_fmax = bit->second * frac;
      const double k_obs = static_cast<double>(observed) / l_fmax - 1.0;
      const double denom =
          static_cast<double>(spec_.max_mhz) / static_cast<double>(cond.freq_mhz) - 1.0;
      if (denom > 1e-9) {
        const double s = std::clamp(k_obs / denom, 0.0, 1.0);
        m.freq_sensitivity = m.sensitivity_known
                                 ? (1.0 - kEwmaAlpha) * m.freq_sensitivity + kEwmaAlpha * s
                                 : s;
        m.sensitivity_known = true;
      }
    }
  }

  // Canonicalise to full grid at f_max using the current sensitivity belief.
  const double ff = FreqFactor(cond.freq_mhz, m.freq_sensitivity);
  const double canonical = static_cast<double>(observed) / frac / ff;

  auto [bit, inserted] = m.by_tpcs.emplace(bucket, canonical);
  if (!inserted) {
    bit->second = (1.0 - kEwmaAlpha) * bit->second + kEwmaAlpha * canonical;
  }
  m.fit_stale = true;

  // Queue-wide running mean prior.
  QueueMean& q = queue_mean_[key.queue_id];
  ++q.count;
  q.mean += (canonical - q.mean) / static_cast<double>(q.count);

  // Accuracy accounting (§7.4): misprediction if |error| > 50us.
  if (predicted > 0) {
    ++stats_.predictions;
    const double err_us = std::abs(static_cast<double>(observed - predicted)) / kMicrosecond;
    stats_.abs_error_us.Add(err_us);
    if (err_us > kMispredictionThresholdUs) {
      ++stats_.mispredictions;
    }
  }
}

bool LatencyPredictor::GetScalingFit(const OperatorKey& key, ScalingFit* fit) const {
  auto it = ops_.find(key);
  if (it == ops_.end() || it->second.by_tpcs.size() < 2) {
    return false;
  }
  *fit = Fit(it->second);
  return true;
}

int LatencyPredictor::DistinctTpcPoints(const OperatorKey& key) const {
  auto it = ops_.find(key);
  return it == ops_.end() ? 0 : static_cast<int>(it->second.by_tpcs.size());
}

double LatencyPredictor::FreqSensitivity(const OperatorKey& key) const {
  auto it = ops_.find(key);
  if (it == ops_.end() || !it->second.sensitivity_known) {
    return -1.0;
  }
  return it->second.freq_sensitivity;
}

}  // namespace lithos
