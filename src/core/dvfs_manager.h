// Transparent power management via sequence-based DVFS (paper Section 4.6).
//
// Per-kernel sensitivities s and runtime weights w are aggregated per stream
// into S = sum(w * s); the device frequency is set to
//
//   f_final = f_max / (1 + k / S)
//
// clamped to the supported state table, where k is the latency-slip
// parameter. Compute-bound kernels (s near 1) pull the clock toward f_max;
// memory-bound kernels (s near 0) push it down in proportion to their share
// of runtime.
//
// Because frequency switches cost ~50 ms, the manager re-evaluates on a slow
// cadence and starts with a learning period at f_max: unseen kernels are
// assumed compute-bound (s = 1, the conservative direction) until observed.
#ifndef LITHOS_CORE_DVFS_MANAGER_H_
#define LITHOS_CORE_DVFS_MANAGER_H_

#include <unordered_map>

#include "src/common/time.h"
#include "src/core/config.h"
#include "src/core/latency_predictor.h"
#include "src/gpu/execution_engine.h"
#include "src/sim/simulator.h"

namespace lithos {

class DvfsManager {
 public:
  // Latency-slip parameter k of f_final (k = 1.1, §7.3).
  static constexpr double kSlip = 1.10;
  // Re-evaluation cadence of the frequency target; much larger than the
  // hardware switch latency to avoid thrashing (§4.6).
  static constexpr DurationNs kPeriod = FromMillis(250);

  DvfsManager(Simulator* sim, ExecutionEngine* engine, const LithosConfig& config);

  // Starts the periodic evaluation loop (no-op when DVFS is disabled).
  void Start();

  // Feeds an observed kernel execution: its stream, canonical runtime, and
  // the sensitivity estimate (from the latency predictor; pass a negative
  // value when unknown).
  void RecordKernel(int queue_id, DurationNs runtime_ns, double sensitivity);

  // Marks a batch boundary on a queue; the learning period is counted in
  // batches (§4.6 "Operation").
  void OnBatchBoundary(int queue_id);

  // Computes the target frequency from current aggregates (exposed for tests
  // and the Fig. 18 harness).
  int ComputeTargetMhz() const;

  // Aggregate sensitivity S over all streams, runtime-weighted.
  double AggregateSensitivity() const;

  bool InLearningPeriod() const;

 private:
  struct QueueState {
    double total_runtime_ns = 0;
    double weighted_sensitivity = 0;  // sum(runtime * s)
    int batches_seen = 0;
  };

  void Evaluate();

  Simulator* sim_;
  ExecutionEngine* engine_;
  LithosConfig config_;
  std::unordered_map<int, QueueState> queues_;
  bool started_ = false;
};

}  // namespace lithos

#endif  // LITHOS_CORE_DVFS_MANAGER_H_
