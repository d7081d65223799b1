// Online latency prediction (paper Section 4.7).
//
// The predictor learns per-operator execution times entirely online — no
// offline profiling — and feeds the other LithOS components: the Kernel
// Atomizer's split counts, the right-sizer's scaling curves, and the DVFS
// manager's sensitivity estimates.
//
// Operators are identified by (launch queue, batch ordinal, launch signature):
// a single kernel function reused across layers with different tensor shapes
// maps to distinct operators, exactly the pitfall Section 4.7 calls out.
//
// Observations are normalised to canonical conditions (full grid fraction,
// reference frequency) assuming optimal linear scaling, the paper's stated
// conservative assumption when metadata for the exact conditions is missing.
// Once two or more distinct TPC allocations have been observed, the predictor
// fits the scaling law l = m/t + b and uses it instead.
#ifndef LITHOS_CORE_LATENCY_PREDICTOR_H_
#define LITHOS_CORE_LATENCY_PREDICTOR_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/gpu/gpu_spec.h"

namespace lithos {

// Identity of a model operator as reconstructible from driver-level data.
struct OperatorKey {
  int queue_id = 0;        // launch queue (stream)
  uint32_t ordinal = 0;    // k-th kernel since batch start
  uint64_t signature = 0;  // launch-configuration hash

  bool operator==(const OperatorKey& o) const {
    return queue_id == o.queue_id && ordinal == o.ordinal && signature == o.signature;
  }
};

struct OperatorKeyHash {
  size_t operator()(const OperatorKey& k) const {
    uint64_t h = k.signature;
    h ^= (static_cast<uint64_t>(k.queue_id) << 32) | k.ordinal;
    h *= 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

// Execution conditions under which a latency was observed or is predicted.
struct ExecConditions {
  double tpcs = 1;          // allocated TPCs
  int freq_mhz = 0;         // device clock
  double block_fraction = 1.0;  // atom size relative to the full grid
};

struct PredictionStats {
  uint64_t predictions = 0;
  uint64_t mispredictions = 0;  // |error| > threshold
  PercentileDigest abs_error_us;

  double MispredictionRate() const {
    return predictions == 0 ? 0.0
                            : static_cast<double>(mispredictions) / static_cast<double>(predictions);
  }
};

class LatencyPredictor {
 public:
  // Prior for never-seen operators.
  static constexpr DurationNs kDefaultLatency = FromMicros(100);
  // EWMA smoothing for repeated observations under identical conditions.
  static constexpr double kEwmaAlpha = 0.3;

  explicit LatencyPredictor(const GpuSpec& spec) : spec_(spec) {}

  // Predicts operator latency under `cond`. Falls back to the queue-wide
  // running mean, then kDefaultLatency, when the operator is unseen.
  DurationNs Predict(const OperatorKey& key, const ExecConditions& cond) const;

  // True if at least one observation exists for this operator.
  bool HasSeen(const OperatorKey& key) const { return ops_.count(key) > 0; }

  // Records an observed execution. `predicted` is what the caller used for
  // scheduling (pass 0 to skip accuracy accounting).
  void Record(const OperatorKey& key, const ExecConditions& cond, DurationNs observed,
              DurationNs predicted = 0);

  // Fitted scaling curve for an operator, if enough distinct TPC points have
  // been observed (used by the right-sizer). Returns false otherwise.
  bool GetScalingFit(const OperatorKey& key, ScalingFit* fit) const;

  // Distinct TPC allocations observed for the operator.
  int DistinctTpcPoints(const OperatorKey& key) const;

  // Learned frequency sensitivity s in [0,1]; negative when no cross-
  // frequency evidence exists yet (the DVFS manager then assumes s = 1).
  double FreqSensitivity(const OperatorKey& key) const;

  // Accuracy accounting: mispredictions are absolute errors > 50us (§7.4).
  const PredictionStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PredictionStats{}; }
  // Sorts the error digest; call once recording is done, before reading
  // error percentiles through stats().
  void FinalizeStats() { stats_.abs_error_us.Finalize(); }

  static constexpr double kMispredictionThresholdUs = 50.0;

 private:
  struct OperatorModel {
    // EWMA latency per distinct TPC allocation, normalised to full grid
    // fraction and max frequency with the operator's estimated sensitivity.
    std::map<int, double> by_tpcs;  // rounded tpcs -> canonical ns
    // Frequency sensitivity estimate (s in [0,1]); starts at the conservative
    // linear assumption s = 1.
    double freq_sensitivity = 1.0;
    bool sensitivity_known = false;
    // l = m/t + b over by_tpcs, refitted lazily: Record marks it stale, and
    // the first Predict or GetScalingFit after that refits once.
    mutable ScalingFit fit;
    mutable bool fit_stale = true;
  };

  double FreqFactor(int freq_mhz, double sensitivity) const;
  // The model's scaling fit; requires by_tpcs.size() >= 2.
  const ScalingFit& Fit(const OperatorModel& m) const;

  GpuSpec spec_;
  std::unordered_map<OperatorKey, OperatorModel, OperatorKeyHash> ops_;
  // Per-queue running mean used as a prior for unseen operators.
  struct QueueMean {
    double mean = 0;
    uint64_t count = 0;
  };
  std::unordered_map<int, QueueMean> queue_mean_;
  PredictionStats stats_;
};

}  // namespace lithos

#endif  // LITHOS_CORE_LATENCY_PREDICTOR_H_
