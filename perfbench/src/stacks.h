// The benchmark's three workloads, built and driven through the library's
// public entry points only.
//
// The benchmark owns the run loop: it generates every arrival from its seed,
// calls BatchingInferenceServer::Submit (gpu_stack) or
// ClusterDispatcher::Dispatch (fleet_*) at each arrival instant from its own
// events, ticks the gray-node detector and the remediation controller on its
// own control grid, and advances the simulator one Simulator::Step at a time.
// Library calls are timed from outside; nothing inside the library changes.
#ifndef PERFBENCH_STACKS_H_
#define PERFBENCH_STACKS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace lithos {
class Simulator;
class SpanBuilder;
class TraceRecorder;
}  // namespace lithos

namespace perfbench {

// Simulated timeline of one workload (all runs of it share it).
struct Timeline {
  lithos::DurationNs warmup = 0;   // arrivals before this are not measured
  lithos::TimeNs arrivals_end = 0; // last arrival instant (exclusive)
  lithos::TimeNs horizon = 0;      // arrivals_end + drain; the loop stops here
};

// Everything a run consumes. The arrival schedule itself is not stored: each
// run draws it lazily from per-target Poisson streams seeded from `seed`, so
// the benchmark's own memory stays out of the process's high-water mark.
struct Inputs {
  std::string workload;
  uint64_t seed = 0;
  Timeline timeline;
  // Arrivals per simulated second of each target: a fleet model index, or a
  // gpu_stack service index.
  std::vector<double> rates;
};

// Fills the timeline and per-target rates of `workload` for `seed`.
// `measure_s` overrides the measured window (0 keeps the default). Returns
// false for an unknown workload name.
bool MakeInputs(const std::string& workload, uint64_t seed, double measure_s,
                Inputs* out);

// Fixed-size log-linear histogram of host durations in ns (32 sub-buckets
// per power of two, ~3% wide), so per-call timing costs no memory that grows
// with the number of calls. Percentiles interpolate linearly inside a bucket.
class NsHistogram {
 public:
  void Add(int64_t ns);
  double Percentile(double q) const;  // q in [0, 100]; 0 when empty
  double sum_ns() const { return sum_ns_; }

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kBuckets = (64 - kSubBits + 1) << kSubBits;
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  double sum_ns_ = 0;
};

// Host-time layers of the traced split. An event of the library is charged to
// the layer of the first non-sim trace record it appends, or to `untagged` if
// it appends none. The benchmark's own events (arrivals, control ticks, phase
// marks) are `bench`, except the time spent inside the library call each one
// makes, which goes to the layer called: Submit -> clients, Dispatch ->
// cluster, detector and remediation ticks -> control.
enum HostLayer {
  kBench,
  kClients,
  kEngine,
  kCluster,
  kControl,
  kFault,
  kUntagged,
  kNumHostLayers
};
const char* HostLayerName(int layer);

// Host-side measurements of one run (never part of the digest).
struct HostSample {
  double setup_s = 0;
  double run_s = 0;                      // the Step loop, wall time
  NsHistogram call_ns;         // each Dispatch / Submit call
  NsHistogram detect_tick_ns;  // each GrayNodeDetector::Tick
  NsHistogram remedy_tick_ns;  // each RemediationController::Tick
  std::array<int64_t, kNumHostLayers> layer_ns{};  // traced runs only
};

// A named simulated quantity. Simulated values repeat exactly for a seed.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Simulated outputs of one run.
struct SimSample {
  std::vector<Metric> metrics;          // e2e + per-layer, in fixed order
  std::vector<std::string> violations;  // failed output checks
  uint64_t attempted = 0;               // requests the benchmark submitted
};

// Runs one full simulation of `in`. With `traced`, a TraceRecorder (and, on
// the fleet workloads, a SpanBuilder) is attached, the per-step layer split
// is measured, and trace-derived counts are added to the sample. With
// `cpu` >= 0 the process moves to that CPU after set-up, just before the
// Step loop: set-up then runs on the CPU whose caches the previous run
// warmed, and the move's cold-cache cost lands in the much longer loop.
void RunOnce(const Inputs& in, bool traced, int cpu, HostSample* host, SimSample* sim);

// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus();

}  // namespace perfbench

#endif  // PERFBENCH_STACKS_H_
