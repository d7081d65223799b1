#include "src/core/dvfs_manager.h"

#include <algorithm>

namespace lithos {

DvfsManager::DvfsManager(Simulator* sim, ExecutionEngine* engine, const LithosConfig& config)
    : sim_(sim), engine_(engine), config_(config) {}

void DvfsManager::Start() {
  if (!config_.enable_dvfs || started_) {
    return;
  }
  started_ = true;
  sim_->ScheduleAfter(kPeriod, [this] { Evaluate(); });
}

void DvfsManager::RecordKernel(int queue_id, DurationNs runtime_ns, double sensitivity) {
  if (runtime_ns <= 0) {
    return;
  }
  // Unknown sensitivity: assume linear scaling (s = 1), the conservative
  // direction — it keeps the clock high until evidence justifies lowering it.
  const double s = sensitivity < 0 ? 1.0 : std::clamp(sensitivity, 0.0, 1.0);
  QueueState& q = queues_[queue_id];
  q.total_runtime_ns += static_cast<double>(runtime_ns);
  q.weighted_sensitivity += static_cast<double>(runtime_ns) * s;
}

void DvfsManager::OnBatchBoundary(int queue_id) { ++queues_[queue_id].batches_seen; }

bool DvfsManager::InLearningPeriod() const {
  if (queues_.empty()) {
    return true;
  }
  for (const auto& [id, q] : queues_) {
    if (q.batches_seen < config_.dvfs_learning_batches) {
      return true;
    }
  }
  return false;
}

double DvfsManager::AggregateSensitivity() const {
  // Each stream contributes its runtime-weighted mean sensitivity, weighted
  // by the stream's share of total runtime — equivalent to sum(w * s) with w
  // the kernel's share of cumulative runtime across the device.
  double total_runtime = 0;
  double weighted = 0;
  for (const auto& [id, q] : queues_) {
    total_runtime += q.total_runtime_ns;
    weighted += q.weighted_sensitivity;
  }
  if (total_runtime <= 0) {
    return 1.0;
  }
  return weighted / total_runtime;
}

int DvfsManager::ComputeTargetMhz() const {
  const GpuSpec& spec = engine_->spec();
  if (InLearningPeriod()) {
    return spec.max_mhz;
  }
  const double S = AggregateSensitivity();
  const double k = kSlip - 1.0;  // slip expressed as fractional slowdown
  if (S <= 1e-9) {
    return spec.min_mhz;  // Fully memory-bound: no latency cost to the floor.
  }
  const double f_final = static_cast<double>(spec.max_mhz) / (1.0 + k / S);
  return spec.ClampFrequency(static_cast<int>(f_final));
}

void DvfsManager::Evaluate() {
  engine_->RequestFrequencyMhz(ComputeTargetMhz());
  sim_->ScheduleAfter(kPeriod, [this] { Evaluate(); });
}

}  // namespace lithos
