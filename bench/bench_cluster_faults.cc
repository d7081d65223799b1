// Region-scale fault tolerance: p99 and goodput before, during, and after
// injected failures on a 1024-node, 8-zone fleet.
//
// The ROADMAP's region-scale item meets the cluster-OS framing: the control
// plane, not the application, owns failure handling. Each grid point runs
// the same three measurement phases — pre / during / post fault — under one
// (placement policy x fault scenario) pair:
//
//   * healthy      — no faults; the phase baseline.
//   * crashes      — random node crashes (Poisson) with repair.
//   * stragglers   — random nodes clocked to half speed for a window.
//   * power-cap    — one zone capped to 60% clock through the fault window.
//   * zone-outage  — a whole failure domain (128 nodes) dies for a second,
//                    then is repaired. Dead replicas are re-placed onto
//                    survivors via the restore-only half of the PR-2
//                    checkpoint/restore migration path; the headline check
//                    is post-outage goodput recovering to within 10% of the
//                    pre-outage phase.
//
// Per-node scheduling is orthogonal to fleet-level fault response, so nodes
// run the passive MPS backend to keep a 1024-node x multi-second grid cheap
// enough for the CI byte-identity gate (the grid runs twice there). All
// points flow through one SweepRunner grid with declaration-order
// collection: stdout is byte-identical for any --jobs.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/fault/scenario.h"

using namespace lithos;

namespace {

constexpr int kNodes = 1024;
constexpr int kZones = 8;
constexpr double kRps = 6000.0;

// Phase windows (seconds): warm up to 1, measure [1,3), fault at 3 for 1s,
// settle 0.5s after repair, measure the recovered fleet over [4.5, 6.5).
constexpr double kPreBegin = 1.0;
constexpr double kFaultAt = 3.0;
constexpr double kFaultSecs = 1.0;
constexpr double kPostBegin = 4.5;
constexpr double kPostEnd = 6.5;

FleetFaultConfig BaseConfig(PlacementPolicy policy) {
  FleetFaultConfig config;
  config.cluster.num_nodes = kNodes;
  config.cluster.num_zones = kZones;
  config.cluster.policy = policy;
  config.cluster.system = SystemKind::kMps;
  config.cluster.aggregate_rps = kRps;
  config.cluster.seed = 2026;
  config.scaling = ScalingPolicyKind::kStaticPeak;  // fixed fleet: no autoscale confound
  config.max_migrations_per_period = 8;
  config.phases = {{"pre", FromSeconds(kPreBegin), FromSeconds(kFaultAt)},
                   {"during", FromSeconds(kFaultAt), FromSeconds(kFaultAt + kFaultSecs)},
                   {"post", FromSeconds(kPostBegin), FromSeconds(kPostEnd)}};
  return config;
}

FaultScenarioConfig Scenario(const std::string& name) {
  FaultScenarioConfig faults;
  faults.name = name;
  faults.seed = 7;
  if (name == "crashes") {
    faults.crashes_per_second = 2.0;
    faults.crash_repair = FromMillis(1500);
  } else if (name == "stragglers") {
    faults.stragglers_per_second = 4.0;
    faults.straggler_slowdown = 0.5;
    faults.straggler_duration = FromMillis(800);
  } else if (name == "power-cap") {
    faults.power_caps = {{/*zone=*/0, FromSeconds(kFaultAt), FromSeconds(kFaultSecs), 0.6}};
  } else if (name == "zone-outage") {
    faults.zone_outages = {{/*zone=*/0, FromSeconds(kFaultAt), FromSeconds(kFaultSecs)}};
  }
  return faults;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Cluster fault tolerance: zone outage, crashes, stragglers at region scale",
      "ROADMAP region-scale item; PhoenixOS-style checkpoint/restore recovery");

  const bench::BenchOptions opts = bench::ParseBenchOptions(argc, argv);
  SweepRunner runner(opts.jobs);
  bench::JsonEmitter json("cluster_faults");

  // --trace records the model-affinity zone-outage point: cluster, control,
  // and fault layers only (sim/engine records at 1024 nodes would flood the
  // ring with heap churn nobody reads at fleet scale). One grid point owns
  // the recorder, so the trace bytes are identical for any --jobs.
  TraceRecorder trace(static_cast<size_t>(opts.trace_limit));
  trace.SetLayerMask(TraceRecorder::LayerBit(TraceLayer::kCluster) |
                     TraceRecorder::LayerBit(TraceLayer::kControl) |
                     TraceRecorder::LayerBit(TraceLayer::kFault));
  bench::ApplyTraceMask(trace, opts);
  TraceRecorder* recorder = opts.trace_path.empty() ? nullptr : &trace;

  struct GridPoint {
    PlacementPolicy policy;
    std::string scenario;
  };
  std::vector<GridPoint> grid = {
      {PlacementPolicy::kModelAffinity, "healthy"},
      {PlacementPolicy::kModelAffinity, "crashes"},
      {PlacementPolicy::kModelAffinity, "stragglers"},
      {PlacementPolicy::kModelAffinity, "power-cap"},
      {PlacementPolicy::kModelAffinity, "zone-outage"},
      {PlacementPolicy::kLeastLoaded, "zone-outage"},
  };
  // --scenario keeps only matching grid points (quick single-scenario runs);
  // --fault-seed overrides the injector seed for every surviving point.
  grid.erase(std::remove_if(grid.begin(), grid.end(),
                            [&opts](const GridPoint& g) {
                              return !bench::ScenarioSelected(opts, g.scenario);
                            }),
             grid.end());
  if (grid.empty()) {
    std::fprintf(stderr, "error: --scenario '%s' matches no grid point\n",
                 opts.scenario.c_str());
    return 1;
  }

  std::vector<SweepPoint<FleetFaultResult>> points;
  for (const GridPoint& g : grid) {
    const bool traced =
        g.policy == PlacementPolicy::kModelAffinity && g.scenario == "zone-outage";
    TraceRecorder* point_trace = traced ? recorder : nullptr;
    const long long fault_seed = opts.fault_seed;
    points.push_back(
        {PlacementPolicyName(g.policy) + "/" + g.scenario, [g, point_trace, fault_seed] {
           FleetFaultConfig config = BaseConfig(g.policy);
           config.faults = Scenario(g.scenario);
           if (fault_seed >= 0) {
             config.faults.seed = static_cast<uint64_t>(fault_seed);
           }
           config.trace = point_trace;
           return RunFleetFaultScenario(config);
         }});
  }
  const std::vector<FleetFaultResult> results = runner.Run(points);

  std::printf("\n%d nodes in %d zones (%d per zone), %.0f rps flat, static-peak pool;\n"
              "fault window [%.1fs, %.1fs), post-recovery window [%.1fs, %.1fs)\n",
              kNodes, kZones, kNodes / kZones, kRps, kFaultAt, kFaultAt + kFaultSecs,
              kPostBegin, kPostEnd);

  Table table({"policy", "scenario", "phase", "p99 ms", "mean ms", "rps", "goodput ms/s",
               "failed", "recov", "migr"});
  uint64_t total_events = 0;
  for (size_t i = 0; i < grid.size(); ++i) {
    const FleetFaultResult& r = results[i];
    total_events += r.sim.fired;
    const std::string policy = PlacementPolicyName(grid[i].policy);
    for (const FaultPhaseStats& phase : r.phases) {
      table.AddRow({policy, grid[i].scenario, phase.name, Table::Num(phase.p99_ms, 2),
                    Table::Num(phase.mean_ms, 2), Table::Num(phase.throughput_rps, 0),
                    Table::Num(phase.goodput_ms_per_s, 0), std::to_string(phase.failed),
                    std::to_string(phase.recoveries), std::to_string(phase.migrations)});
    }
    const std::string prefix = policy + "_" + grid[i].scenario + "_";
    json.Metric(prefix + "pre_p99_ms", r.phases[0].p99_ms);
    json.Metric(prefix + "during_p99_ms", r.phases[1].p99_ms);
    json.Metric(prefix + "post_p99_ms", r.phases[2].p99_ms);
    json.Metric(prefix + "pre_goodput_ms_per_s", r.phases[0].goodput_ms_per_s);
    json.Metric(prefix + "post_goodput_ms_per_s", r.phases[2].goodput_ms_per_s);
    json.Metric(prefix + "failed_requests", static_cast<double>(r.failed_requests));
    json.Metric(prefix + "recoveries", static_cast<double>(r.recoveries));
  }
  table.Print();

  std::printf("\nZone-outage recovery (post goodput / pre goodput; target >= 0.90):\n");
  for (size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].scenario != "zone-outage") {
      continue;
    }
    const FleetFaultResult& r = results[i];
    const double ratio =
        r.phases[0].goodput_ms_per_s > 0
            ? r.phases[2].goodput_ms_per_s / r.phases[0].goodput_ms_per_s
            : 0.0;
    std::printf("  %-14s recovery=%.3f  (lost %llu requests, %llu replica recoveries)\n",
                PlacementPolicyName(grid[i].policy).c_str(), ratio,
                static_cast<unsigned long long>(r.failed_requests),
                static_cast<unsigned long long>(r.recoveries));
    json.Metric(PlacementPolicyName(grid[i].policy) + "_zone_outage_recovery_ratio", ratio);
  }
  std::printf("\nRecovery is restore-only: a dead node cannot run its checkpoint half, so the\n"
              "controller re-places each stranded replica from its last checkpoint image onto\n"
              "a survivor (forced moves, never budget-capped) at the next control tick.\n");

  // Registry phase snapshots of the headline point (model-affinity zone
  // outage): every fleet/* counter as its per-phase window delta. The values
  // derive only from sim state, so they gate like any deterministic metric.
  for (size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].policy != PlacementPolicy::kModelAffinity ||
        grid[i].scenario != "zone-outage") {
      continue;
    }
    for (const MetricsRegistry::PhaseSnapshot& snap : results[i].metric_phases) {
      for (const auto& [metric, value] : snap.values) {
        std::string key = "affinity_zone_outage_" + snap.name + "_" + metric;
        for (char& c : key) {
          if (c == '/') {
            c = '_';
          }
        }
        json.Metric(key, value);
      }
    }
  }

  uint64_t total_scheduled = 0;
  for (const FleetFaultResult& r : results) {
    total_scheduled += r.sim.scheduled;
  }
  std::printf("\nSimulated events across the grid: %llu fired / %llu scheduled\n",
              static_cast<unsigned long long>(total_events),
              static_cast<unsigned long long>(total_scheduled));
  json.Metric("total_events_fired", static_cast<double>(total_events));
  json.Metric("total_events_scheduled", static_cast<double>(total_scheduled));
  json.SetRun(runner.jobs(), runner.wall_seconds());
  json.WallMetric("sweep_wall_seconds", runner.wall_seconds());
  json.WallMetric("events_per_wall_second",
                  runner.wall_seconds() > 0 ? total_events / runner.wall_seconds() : 0.0);
  json.Write();
  bench::WriteTraceIfRequested(trace, opts);
  runner.PrintSummary("cluster_faults");
  return 0;
}
