// Deterministic fault injection for region-scale fleets.
//
// A FaultInjector turns a FaultScenarioConfig into a *fully pre-generated*
// schedule of fault events — node crashes with repairs, stragglers (DVFS
// slowdown for a bounded window), zone-wide power caps, and whole-zone
// outages — and arms them on the shared simulator clock. Everything is a
// pure function of the scenario config: the random components draw from
// seeded Rngs at construction (incident times/victims and repair durations
// use separate streams, so changing the repair model never perturbs the
// incident timeline), the schedule is sorted by (time, generation order),
// and application happens through the dispatcher/engine hooks on the
// deterministic event queue. Same config -> byte-identical schedule and
// byte-identical cluster and fault layers of the binary trace (applied
// faults, crashes, recoveries) — across runs and across SweepRunner
// `--jobs` values (the replay tests enforce this).
//
// Failure semantics live in the layers below: a crash goes through
// ClusterDispatcher::FailNode (queued work written off, in-flight requests
// discounted as failed, placement rotation updated immediately), and
// recovery is the FleetController's job at its next tick. The dispatcher
// counts each node's down causes, so a crash inside a zone outage (or a
// forced restart) does not resurrect the node when one repair fires first.
// Stragglers and power caps request a lower clock through ExecutionEngine's
// DVFS path (effective after the spec's freq_switch_latency, like real
// GPUs); when a node is both straggling and zone-capped the most restrictive
// factor wins.
#ifndef LITHOS_FAULT_FAULT_INJECTOR_H_
#define LITHOS_FAULT_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"

namespace lithos {

// A scripted whole-zone outage: every node in the zone crashes at `at` and
// is repaired `duration` later.
struct ZoneOutageSpec {
  int zone = 0;
  TimeNs at = 0;
  DurationNs duration = FromSeconds(1);
};

// A scripted zone-wide power cap: every node in the zone is clocked down to
// `freq_fraction` of the spec's max frequency for `duration`.
struct PowerCapSpec {
  int zone = 0;
  TimeNs at = 0;
  DurationNs duration = FromSeconds(1);
  double freq_fraction = 0.7;
};

// A scripted network partition: the zone keeps computing but is unreachable
// for `duration` — new attempts steer around it, completions finishing behind
// the partition are deferred and delivered (or orphaned) on heal. See
// ClusterDispatcher::PartitionNode for the gray-failure semantics.
struct PartitionSpec {
  int zone = 0;
  TimeNs at = 0;
  DurationNs duration = FromSeconds(1);
};

// A scripted rack-correlated crash: every node of rack `rack` (sub-zone
// failure domain, ZoneTopology::racks_per_zone) in `zone` crashes at `at`
// and is repaired `duration` later.
struct RackCrashSpec {
  int zone = 0;
  int rack = 0;
  TimeNs at = 0;
  DurationNs duration = FromSeconds(2);
};

// Repair-time distribution for the random crash processes. The default
// converts implicitly from a DurationNs, so legacy configs that assign
// `crash_repair = FromMillis(1500)` keep compiling — and keep drawing
// *nothing* from the schedule Rng, so their pre-generated schedules stay
// byte-identical. The heavy-tailed alternative (Weibull with shape < 1)
// models real fleet repairs: most reboots are quick, a few need a
// technician. Samples are drawn during schedule pre-generation from a
// repair-only Rng stream (one draw per crash event), so the same seed
// replays the same crash instants and victims under any repair model. Every
// sample is clamped below to 1 ms (a repair takes nonzero time).
struct RepairModel {
  enum class Dist { kFixed, kWeibull };
  Dist dist = Dist::kFixed;
  DurationNs fixed = FromSeconds(2);
  double weibull_shape = 0.7;    // < 1 = heavy-tailed
  double weibull_scale_s = 2.0;  // seconds

  RepairModel() = default;
  RepairModel(DurationNs fixed_delay) : fixed(fixed_delay) {}  // NOLINT: compat
  static RepairModel Weibull(double shape, double scale_seconds) {
    RepairModel m;
    m.dist = Dist::kWeibull;
    m.weibull_shape = shape;
    m.weibull_scale_s = scale_seconds;
    return m;
  }
};

struct FaultScenarioConfig {
  // Shown in bench tables; also a convenient grid key.
  std::string name = "healthy";

  uint64_t seed = 1;
  // Random faults are sampled over [0, horizon); scripted events may land
  // anywhere. 0 disables the random processes.
  TimeNs horizon = 0;

  // Fleet-wide Poisson rate of independent node crashes (crashes per
  // simulated second, victim uniform over the pool); each crash is repaired
  // after a delay drawn from `crash_repair` (fixed by default).
  double crashes_per_second = 0;
  RepairModel crash_repair = RepairModel(FromSeconds(2));

  // Fleet-wide Poisson rate of straggler onsets: the victim runs at
  // `straggler_slowdown` of its max clock for `straggler_duration`.
  double stragglers_per_second = 0;
  double straggler_slowdown = 0.5;
  DurationNs straggler_duration = FromMillis(800);

  // Fleet-wide Poisson rate of rack-correlated crash groups: the victim rack
  // (uniform over all racks) crashes as one failure domain and is repaired
  // after a delay drawn from `rack_repair`.
  double rack_crashes_per_second = 0;
  RepairModel rack_repair = RepairModel(FromSeconds(2));

  std::vector<ZoneOutageSpec> zone_outages;
  std::vector<PowerCapSpec> power_caps;
  std::vector<PartitionSpec> partitions;
  std::vector<RackCrashSpec> rack_crashes;
};

// Start and end kinds pair as (even, odd) values (static_asserts in
// fault_injector.cc pin the pairing).
enum class FaultKind {
  kNodeCrash,
  kNodeRepair,
  kStragglerStart,
  kStragglerEnd,
  kZoneOutage,
  kZoneRepair,
  kPowerCapStart,
  kPowerCapEnd,
  // Values are traced (kFaultApplied's arg): append only, never renumber.
  kRackCrash,
  kRackRepair,
  kPartitionStart,
  kPartitionHeal,
};
inline constexpr int kNumFaultKinds = 12;

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  TimeNs at = 0;
  FaultKind kind = FaultKind::kNodeCrash;
  int zone = -1;    // zone-scoped events
  int node = -1;    // node-scoped events
  int rack = -1;    // rack-scoped events (index within the zone)
  double factor = 1.0;  // clock fraction for straggler / power-cap starts
};

// One injected fault interval, paired up from the schedule's start/end
// events — the ground truth a gray-failure detector is scored against. The
// `kind` is the interval's *start* kind (kStragglerStart, kPartitionStart,
// kNodeCrash, ...).
struct GroundTruthSpan {
  FaultKind kind = FaultKind::kStragglerStart;
  int zone = -1;
  int node = -1;
  int rack = -1;
  TimeNs start = 0;
  TimeNs end = 0;       // clamped to `horizon` for still-open intervals
  double factor = 1.0;  // slowdown / cap fraction where applicable
};

class FaultInjector {
 public:
  // Generates the full schedule deterministically; nothing is armed yet.
  FaultInjector(Simulator* sim, ClusterDispatcher* fleet, const FaultScenarioConfig& config);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // The pre-generated schedule, sorted by (time, generation order); replay
  // tests compare it field by field.
  const std::vector<FaultEvent>& schedule() const { return schedule_; }

  // Pairs the schedule's start/end events into fault intervals — the ground
  // truth for detector scoring. Spans starting at or after `horizon` are
  // dropped; ends are clamped to it (an interval still open at the horizon
  // ends there). Pure function of the pre-generated schedule: identical
  // across runs and --jobs like schedule().
  std::vector<GroundTruthSpan> GroundTruthSpans(TimeNs horizon) const;

  // Schedules every event on the simulator clock. Call once, before Run.
  void Arm();

  // Applied start events, by kind.
  uint64_t node_crashes() const { return Applied(FaultKind::kNodeCrash); }
  uint64_t zone_outages() const { return Applied(FaultKind::kZoneOutage); }
  uint64_t stragglers() const { return Applied(FaultKind::kStragglerStart); }
  uint64_t power_caps() const { return Applied(FaultKind::kPowerCapStart); }
  uint64_t rack_crashes() const { return Applied(FaultKind::kRackCrash); }
  uint64_t partitions() const { return Applied(FaultKind::kPartitionStart); }

  // Attaches a binary trace recorder (nullptr detaches): every applied
  // fault appends a TraceLayer::kFault record (arg = FaultKind,
  // payload = clock factor in parts-per-million): the applied-fault log.
  void SetTrace(TraceRecorder* recorder) { recorder_ = recorder; }

 private:
  // The nodes an event targets, as [first, last): its node, rack, or zone.
  std::pair<int, int> NodeRange(const FaultEvent& event) const;
  void Apply(const FaultEvent& event);
  // Re-resolves and requests node's effective clock from the overlap of its
  // straggler state and its zone's cap (most restrictive wins).
  void ApplyFrequency(int node);
  uint64_t Applied(FaultKind kind) const { return applied_[static_cast<size_t>(kind)]; }

  Simulator* sim_;
  ClusterDispatcher* fleet_;
  FaultScenarioConfig config_;
  std::vector<FaultEvent> schedule_;

  std::vector<int> straggle_causes_;  // node -> active straggler windows
  std::vector<double> zone_cap_;      // zone -> clock fraction (1 = uncapped)

  TraceRecorder* recorder_ = nullptr;
  std::array<uint64_t, kNumFaultKinds> applied_{};  // FaultKind -> events applied
};

}  // namespace lithos

#endif  // LITHOS_FAULT_FAULT_INJECTOR_H_
