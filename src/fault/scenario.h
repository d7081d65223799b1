// Phased fault experiments: run a fleet + controller + fault injector on one
// simulator and measure latency/goodput over named, non-overlapping phases
// (e.g. before / during / after a zone outage).
//
// RunFleetFaultScenario is a pure function of its config — the entry point
// bench_cluster_faults sweeps through SweepRunner, so every (policy x
// scenario) grid point is byte-identical at any `--jobs` value. The result
// also carries the injector's applied-fault trace and the dispatcher's
// recovery log for the deterministic-replay tests.
#ifndef LITHOS_FAULT_SCENARIO_H_
#define LITHOS_FAULT_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/autoscale/fleet_controller.h"
#include "src/cluster/cluster.h"
#include "src/fault/fault_injector.h"
#include "src/remediate/remediation_controller.h"

namespace lithos {

// One measurement window. Phases must be ordered and non-overlapping;
// adjacent phases may share a boundary instant.
struct FaultPhase {
  std::string name;
  TimeNs begin = 0;
  TimeNs end = 0;
};

struct FleetFaultConfig {
  // The pool: num_zones > 1 for zone-level scenarios. cluster.warmup and
  // cluster.duration are ignored — the phase list defines the windows and
  // the horizon is the last phase's end.
  ClusterConfig cluster;

  // Control plane. Static-peak scaling keeps the whole pool on, isolating
  // fault response from autoscaling; the migration budget is per tick and
  // recovery moves are forced regardless.
  ScalingPolicyKind scaling = ScalingPolicyKind::kStaticPeak;
  DurationNs control_period = FromMillis(250);
  double target_util = 0.5;
  int min_nodes = 1;
  int max_migrations_per_period = 8;

  FaultScenarioConfig faults;
  std::vector<FaultPhase> phases;

  // Online gray-failure detection: when enabled, a GrayNodeDetector ticks
  // every `detector.window` of sim-time over the dispatcher's telemetry
  // feed, with announced crash state (NodeFailed) as its known-down input —
  // partitions and stragglers must be *inferred*. Verdicts, the injector's
  // ground-truth spans, and the per-zone completion rollups all land in the
  // result for scoring (docs/attribution.md).
  bool detect = false;
  DetectorConfig detector;

  // Self-healing remediation (requires detect): a RemediationController
  // subscribes to the detector's verdicts and ticks right after it on the
  // same clock, issuing graded actions — quarantine / drain + re-spread /
  // forced restart — through the dispatcher and controller, under the
  // blast-radius governor (docs/remediation.md). The action log, counters,
  // and ground-truth action precision land in the result.
  bool remediate = false;
  RemediationConfig remediation;

  // Optional binary trace sink. When set, the simulator core, every node
  // engine, the dispatcher, the controller, and the injector all append to
  // it; records derive only from sim state, so the bytes are identical
  // across runs and `--jobs` values for the same config.
  TraceRecorder* trace = nullptr;

  // Optional online span sink: the dispatcher feeds every request-
  // correlation record (TraceKind 60..68) to it as it is emitted, so span
  // trees assemble without a trace buffer. Same records as the binary
  // trace — offline replay through trace_analyze reconstructs identical
  // spans. Must outlive the run; one owner per recorder, like `trace`.
  SpanBuilder* spans = nullptr;
};

// Per-phase fleet metrics (the dispatcher's Collect over that window).
struct FaultPhaseStats {
  std::string name;
  double seconds = 0;
  uint64_t dispatched = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;           // requests lost to crashes
  double mean_ms = 0;
  double p99_ms = 0;
  double throughput_rps = 0;
  // Goodput: request GPU-ms completed per wall-second of the window —
  // the capacity actually served, excluding switch/migration overhead.
  double goodput_ms_per_s = 0;
  uint64_t migrations = 0;
  uint64_t recoveries = 0;
};

struct FleetFaultResult {
  int num_nodes = 0;
  int num_zones = 0;
  std::vector<FaultPhaseStats> phases;
  std::vector<std::string> schedule;      // pre-generated fault schedule
  std::vector<std::string> fault_trace;   // faults actually applied
  std::vector<std::string> recovery_log;  // dispatcher recovery actions
  uint64_t node_crashes = 0;
  uint64_t zone_outages = 0;
  uint64_t stragglers = 0;
  uint64_t rack_crashes = 0;     // rack-correlated crash groups applied
  uint64_t partitions = 0;       // zone partitions applied
  uint64_t failed_requests = 0;  // lifetime, across all phases and gaps
  uint64_t recoveries = 0;       // recovery-log entries
  // Request-level resilience traffic (lifetime fleet/* counters; retries,
  // hedges, and timeouts stay zero under write-off).
  uint64_t retries = 0;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  uint64_t timeouts = 0;
  uint64_t shed = 0;
  uint64_t deferred_delivered = 0;
  uint64_t deferred_orphaned = 0;
  SimCounters sim;               // full event-core counters for the run
  // Registry snapshots, one per phase in order: every fleet/* counter as
  // its window delta, gauges at window end (see MetricsRegistry phases).
  std::vector<MetricsRegistry::PhaseSnapshot> metric_phases;
  // Gray-failure detection output (empty unless config.detect): the
  // detector's episode verdicts, their deterministic text rendering, and the
  // injector's ground-truth fault intervals clamped to the horizon.
  std::vector<Verdict> verdicts;
  std::vector<std::string> detector_lines;
  std::vector<GroundTruthSpan> ground_truth;
  int detector_ticks = 0;
  // Remediation output (empty/zero unless config.remediate): the
  // issue-ordered action log and its rendering, action counters, governor
  // high-water marks, and ground-truth action scoring.
  std::vector<RemedyEvent> remedy_events;
  std::vector<std::string> remedy_lines;
  uint64_t remedy_quarantines = 0;
  uint64_t remedy_drains = 0;
  uint64_t remedy_restarts = 0;
  uint64_t remedy_rebalances = 0;
  uint64_t remedy_rollbacks = 0;
  uint64_t remedy_synthetic_rollbacks = 0;
  uint64_t remedy_deferrals = 0;
  uint64_t remedy_actions = 0;        // quarantines + drains + restarts
  int remedy_peak_fleet_drains = 0;   // <= remediation.max_drains_fleet
  int remedy_peak_zone_drains = 0;    // <= remediation.max_drains_per_zone
  // Action precision against the injector's ground truth: of the gray
  // actions NOT triggered by injected false positives, how many landed on a
  // node/zone with a truth span active at (or within a grace window before)
  // the action instant.
  uint64_t remedy_justified_actions = 0;
  uint64_t remedy_unjustified_actions = 0;
  uint64_t remedy_injected_actions = 0;  // actions from synthetic verdicts
};

// Builds simulator + ClusterDispatcher + FleetController + FaultInjector,
// runs to the last phase's end, and collects per-phase metrics.
// Deterministic for a given config.
FleetFaultResult RunFleetFaultScenario(const FleetFaultConfig& config);

}  // namespace lithos

#endif  // LITHOS_FAULT_SCENARIO_H_
