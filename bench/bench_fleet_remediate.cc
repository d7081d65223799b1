// Self-healing control plane scored against dispatch-only resilience — the
// detector-driven remediation bench (ISSUE 10).
//
// The same 1024-node fleet as bench_fleet_detect runs each fault scenario in
// two arms: "base" (PR 8's resilient dispatch + online detector, no
// actions) and "remedy" (a RemediationController subscribed to the
// detector's verdicts, issuing quarantine / drain + re-spread / forced
// restart through the control plane under the blast-radius governor, plus
// load-aware post-recovery rebalancing). Scenarios:
//
//   * stragglers     — Poisson straggler onsets (DVFS slowdown); remediation
//                      quarantines them out of the attempt rotation
//   * heal_herd      — a zone outage healing inside the window: recovery
//                      re-homes the zone's replicas onto survivors and the
//                      repaired nodes rejoin empty, so the remediation
//                      controller must force rebalance passes to re-spread
//                      the herd (the ROADMAP open item)
//   * false_positive — healthy fleet, synthetic straggler verdicts injected
//                      into the remediation queue: every action must roll
//                      back (quarantine -> clean probation -> demotion)
//   * storm          — 2x straggler rate at a deeper slowdown: verdict scores
//                      clear the drain rung, so the governor's zone/fleet
//                      caps bind and excess actions defer
//   * healthy        — no faults: the controller must do exactly nothing
//
// Headline targets (ISSUE 10): remedy arm goodput >= base arm in the during
// and post phases of stragglers and heal_herd; zero actions in healthy;
// concurrent drains never exceed the governor caps; 100% of injected false
// positives rolled back. Stdout and --trace bytes are identical across runs
// and --jobs (CI cmps).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/fault/scenario.h"

using namespace lithos;

namespace {

constexpr int kNodes = 1024;
constexpr int kZones = 8;
constexpr int kRacksPerZone = 4;  // 32-node racks
// Same operating point as bench_cluster_resilience, the PR 8 baseline the
// remedy arm is scored against. Under model-affinity placement a hot
// model's requests queue on its replica set, so a straggler inside that set
// shapes the fleet tail even though aggregate utilization is moderate.
constexpr double kRps = 24000.0;

// Measurement phases (seconds); faults land in [2, 5).
constexpr double kPreBegin = 1.0;
constexpr double kFaultBegin = 2.0;
constexpr double kFaultEnd = 5.0;
constexpr double kPostEnd = 6.5;

ResilienceConfig FullPolicy() {
  ResilienceConfig rc;
  rc.enabled = true;
  rc.max_attempts = 3;
  rc.attempt_timeout = FromMillis(250);
  rc.backoff_base = FromMillis(20);
  rc.backoff_cap = FromMillis(160);
  rc.hedge = true;
  rc.hedge_delay = FromMillis(75);
  rc.shed_watermark_ms = 60.0;
  return rc;
}

struct GridPoint {
  std::string name;      // scenario_arm
  std::string scenario;
  bool remediate = false;
};

FaultScenarioConfig Faults(const std::string& scenario) {
  FaultScenarioConfig faults;
  faults.name = scenario;
  faults.seed = 7;
  if (scenario == "stragglers") {
    // Onset rate covers the affinity skew: only stragglers on busy replica
    // nodes complete enough work per window to be judged, so enough onsets
    // must land for some to hit hot nodes.
    faults.stragglers_per_second = 10.0;
    faults.straggler_slowdown = 0.15;  // ~6.7x: clears the noise band, still judged
    faults.straggler_duration = FromMillis(2500);
  } else if (scenario == "heal_herd") {
    // A full zone outage: recovery re-homes the zone's replicas onto the
    // seven surviving zones, and when the repaired nodes rejoin at ~3.6s
    // they come back empty — the survivors keep carrying everything until
    // placement is re-spread. That post-recovery herd is what the
    // remediation controller's forced rebalance exists for.
    faults.zone_outages = {
        {/*zone=*/2, FromSeconds(kFaultBegin) + FromMillis(100), FromMillis(1500)}};
  } else if (scenario == "storm") {
    faults.stragglers_per_second = 24.0;
    faults.straggler_slowdown = 0.12;  // ~8x at a storm rate: caps must bind
    faults.straggler_duration = FromMillis(2500);
  }
  // false_positive and healthy inject no faults.
  return faults;
}

RemediationConfig Remediation(const std::string& scenario) {
  RemediationConfig rc;
  rc.drain_score = 3.0;  // the deepest stragglers skip straight to a drain
  if (scenario == "storm") {
    // Tight blast-radius caps: the storm's concurrent drain demand exceeds
    // them, so excess actions visibly defer instead of draining at once.
    rc.max_drains_fleet = 2;
  }
  if (scenario == "false_positive") {
    // Six synthetic verdicts on healthy nodes across distinct zones, scores
    // below the drain rung: each must quarantine, ride out a clean
    // probation, and roll back.
    const int nodes[6] = {10, 150, 290, 430, 570, 710};
    for (int i = 0; i < 6; ++i) {
      RemediationConfig::InjectedVerdict inj;
      inj.at = FromSeconds(2.2) + i * FromMillis(100);
      inj.node = nodes[i];
      inj.score = 1.5;
      rc.inject.push_back(inj);
    }
  }
  return rc;
}

FleetFaultConfig BaseConfig(const GridPoint& point) {
  FleetFaultConfig config;
  config.cluster.num_nodes = kNodes;
  config.cluster.num_zones = kZones;
  config.cluster.racks_per_zone = kRacksPerZone;
  // Model affinity (like bench_cluster_resilience): replica sets are real,
  // so crash recovery concentrates placement on survivors and drains /
  // forced rebalances actually move replicas. Round-robin placement would
  // make re-spread a no-op and hide the herd entirely.
  config.cluster.policy = PlacementPolicy::kModelAffinity;
  config.cluster.system = SystemKind::kMps;
  config.cluster.aggregate_rps = kRps;
  config.cluster.seed = 2026;
  config.cluster.resilience = FullPolicy();
  config.phases = {{"pre", FromSeconds(kPreBegin), FromSeconds(kFaultBegin)},
                   {"during", FromSeconds(kFaultBegin), FromSeconds(kFaultEnd)},
                   {"post", FromSeconds(kFaultEnd), FromSeconds(kPostEnd)}};
  // Both arms run the detector so the only delta is the remediation actions.
  config.detect = true;
  // Recalibrated for model-affinity placement: hot-replica queueing spreads
  // the healthy latency-ratio distribution to ~2.6x, so the straggler bar
  // moves above that noise — the injected 6-8x slowdowns still clear it.
  config.detector.straggler_inflation = 2.8;
  // The first judged windows carry immature EWMA baselines at this load;
  // two extra warmup windows keep them out of the verdict stream.
  config.detector.warmup_windows = 4;
  config.faults = Faults(point.scenario);
  config.remediate = point.remediate;
  if (point.remediate) {
    config.remediation = Remediation(point.scenario);
  }
  return config;
}

double PhaseGoodput(const FleetFaultResult& r, const std::string& phase) {
  for (const FaultPhaseStats& stats : r.phases) {
    if (stats.name == phase) {
      return stats.goodput_ms_per_s;
    }
  }
  return 0;
}

double PhaseP99(const FleetFaultResult& r, const std::string& phase) {
  for (const FaultPhaseStats& stats : r.phases) {
    if (stats.name == phase) {
      return stats.p99_ms;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Self-healing control plane: detector-driven remediation",
      "ISSUE 10 remediation loop; remedy arm vs dispatch-only resilience");

  const bench::BenchOptions opts = bench::ParseBenchOptions(argc, argv);
  SweepRunner runner(opts.jobs);
  bench::JsonEmitter json("fleet_remediate");

  // --trace records the heal_herd remedy point: control-layer records show
  // the full action lifecycle (verdict -> quarantine/drain -> rollback,
  // kinds 70..76) interleaved with the controller's scaling records.
  TraceRecorder trace(static_cast<size_t>(opts.trace_limit));
  trace.SetLayerMask(TraceRecorder::LayerBit(TraceLayer::kCluster) |
                     TraceRecorder::LayerBit(TraceLayer::kControl) |
                     TraceRecorder::LayerBit(TraceLayer::kFault));
  bench::ApplyTraceMask(trace, opts);
  TraceRecorder* recorder = opts.trace_path.empty() ? nullptr : &trace;

  std::vector<GridPoint> grid = {
      {"stragglers_base", "stragglers", false},
      {"stragglers_remedy", "stragglers", true},
      {"heal_herd_base", "heal_herd", false},
      {"heal_herd_remedy", "heal_herd", true},
      {"false_positive", "false_positive", true},
      {"storm", "storm", true},
      {"healthy", "healthy", true},
  };
  grid.erase(std::remove_if(grid.begin(), grid.end(),
                            [&opts](const GridPoint& g) {
                              return !bench::ScenarioSelected(opts, g.name);
                            }),
             grid.end());
  if (grid.empty()) {
    std::fprintf(stderr, "error: --scenario '%s' matches no grid point\n",
                 opts.scenario.c_str());
    return 1;
  }

  std::vector<SweepPoint<FleetFaultResult>> points;
  for (const GridPoint& point : grid) {
    TraceRecorder* point_trace =
        point.name == "heal_herd_remedy" ? recorder : nullptr;
    const long long fault_seed = opts.fault_seed;
    points.push_back({point.name, [point, point_trace, fault_seed] {
                        FleetFaultConfig config = BaseConfig(point);
                        if (fault_seed >= 0) {
                          config.faults.seed = static_cast<uint64_t>(fault_seed);
                        }
                        config.trace = point_trace;
                        return RunFleetFaultScenario(config);
                      }});
  }
  const std::vector<FleetFaultResult> results = runner.Run(points);

  std::printf("\n%d nodes, %d zones x %d racks, %.0f rps; faults in [%.1fs, %.1fs);\n"
              "detector window = control period (250ms); remedy arm adds the\n"
              "remediation controller (quarantine/drain/restart + herd rebalance)\n",
              kNodes, kZones, kRacksPerZone, kRps, kFaultBegin, kFaultEnd);

  Table table({"point", "during good", "during p99", "post good", "post p99",
               "actions", "defer", "rollback"});
  for (size_t i = 0; i < grid.size(); ++i) {
    const FleetFaultResult& r = results[i];
    table.AddRow({grid[i].name, Table::Num(PhaseGoodput(r, "during"), 0),
                  Table::Num(PhaseP99(r, "during"), 1),
                  Table::Num(PhaseGoodput(r, "post"), 0),
                  Table::Num(PhaseP99(r, "post"), 1),
                  std::to_string(r.remedy_actions),
                  std::to_string(r.remedy_deferrals),
                  std::to_string(r.remedy_rollbacks)});
  }
  table.Print();

  // Remediation action breakdown for the remedy points.
  Table actions({"point", "quar", "drain", "restart", "rebal", "rollbk",
                 "defer", "peak fleet", "peak zone", "justified", "unjust",
                 "injected"});
  for (size_t i = 0; i < grid.size(); ++i) {
    const GridPoint& point = grid[i];
    if (!point.remediate) {
      continue;
    }
    const FleetFaultResult& r = results[i];
    actions.AddRow({point.name, std::to_string(r.remedy_quarantines),
                    std::to_string(r.remedy_drains),
                    std::to_string(r.remedy_restarts),
                    std::to_string(r.remedy_rebalances),
                    std::to_string(r.remedy_rollbacks),
                    std::to_string(r.remedy_deferrals),
                    std::to_string(r.remedy_peak_fleet_drains),
                    std::to_string(r.remedy_peak_zone_drains),
                    std::to_string(r.remedy_justified_actions),
                    std::to_string(r.remedy_unjustified_actions),
                    std::to_string(r.remedy_injected_actions)});
  }
  std::printf("\nRemediation actions (remedy arms):\n");
  actions.Print();

  // Action log for the heal_herd remedy point (first lines).
  for (size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].name != "heal_herd_remedy") {
      continue;
    }
    const FleetFaultResult& r = results[i];
    std::printf("\nheal_herd remediation log (%zu total):\n",
                r.remedy_lines.size());
    const size_t shown = std::min<size_t>(r.remedy_lines.size(), 12);
    for (size_t j = 0; j < shown; ++j) {
      std::printf("  %s\n", r.remedy_lines[j].c_str());
    }
    if (shown < r.remedy_lines.size()) {
      std::printf("  ... %zu more\n", r.remedy_lines.size() - shown);
    }
  }

  // Acceptance gates. Goodput ratios remedy/base over during+post; governor
  // caps; zero-touch healthy; full rollback of injected false positives.
  std::printf("\nAcceptance:\n");
  bool ok = true;
  for (const std::string& scenario : {std::string("stragglers"), std::string("heal_herd")}) {
    size_t base = grid.size();
    size_t remedy = grid.size();
    for (size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].scenario != scenario) continue;
      (grid[i].remediate ? remedy : base) = i;
    }
    if (base >= grid.size() || remedy >= grid.size()) {
      continue;  // filtered out via --scenario
    }
    for (const std::string& phase : {std::string("during"), std::string("post")}) {
      const double b = PhaseGoodput(results[base], phase);
      const double m = PhaseGoodput(results[remedy], phase);
      const double ratio = b > 0 ? m / b : 0;
      // >= 1.0 with float-dust tolerance: a dead tie must not flake the gate.
      const bool pass = ratio >= 0.9995;
      ok = ok && pass;
      const double bp = PhaseP99(results[base], phase);
      const double mp = PhaseP99(results[remedy], phase);
      std::printf("  %-10s %-6s goodput remedy/base = %.4f  p99 %.1f -> %.1f ms  [%s]\n",
                  scenario.c_str(), phase.c_str(), ratio, bp, mp,
                  pass ? "ok" : "FAIL");
      json.Metric(scenario + "_" + phase + "_goodput_ratio", ratio);
      json.Metric(scenario + "_" + phase + "_p99_base_ms", bp);
      json.Metric(scenario + "_" + phase + "_p99_remedy_ms", mp);
    }
  }
  for (size_t i = 0; i < grid.size(); ++i) {
    const GridPoint& point = grid[i];
    const FleetFaultResult& r = results[i];
    if (point.name == "healthy") {
      const bool pass = r.remedy_actions == 0 && r.remedy_rebalances == 0;
      ok = ok && pass;
      std::printf("  healthy: actions=%llu rebalances=%llu  [%s]\n",
                  static_cast<unsigned long long>(r.remedy_actions),
                  static_cast<unsigned long long>(r.remedy_rebalances),
                  pass ? "ok" : "FAIL");
      json.Metric("healthy_zero_touch", pass ? 1.0 : 0.0);
    }
    if (point.name == "false_positive") {
      const uint64_t injected = r.remedy_injected_actions;
      const bool pass = injected > 0 && r.remedy_synthetic_rollbacks == injected;
      ok = ok && pass;
      std::printf("  false_positive: injected=%llu rolled back=%llu  [%s]\n",
                  static_cast<unsigned long long>(injected),
                  static_cast<unsigned long long>(r.remedy_synthetic_rollbacks),
                  pass ? "ok" : "FAIL");
      json.Metric("injected_rollback_fraction",
                  injected > 0
                      ? static_cast<double>(r.remedy_synthetic_rollbacks) /
                            static_cast<double>(injected)
                      : 0.0);
    }
    if (point.remediate) {
      const RemediationConfig rc = Remediation(point.scenario);
      const bool pass = r.remedy_peak_fleet_drains <= rc.max_drains_fleet &&
                        r.remedy_peak_zone_drains <= rc.max_drains_per_zone;
      ok = ok && pass;
      if (!pass) {
        std::printf("  %s: governor caps exceeded (fleet %d/%d, zone %d/%d)  [FAIL]\n",
                    point.name.c_str(), r.remedy_peak_fleet_drains,
                    rc.max_drains_fleet, r.remedy_peak_zone_drains,
                    rc.max_drains_per_zone);
      }
      json.Metric(point.name + "_peak_fleet_drains",
                  static_cast<double>(r.remedy_peak_fleet_drains));
      json.Metric(point.name + "_peak_zone_drains",
                  static_cast<double>(r.remedy_peak_zone_drains));
      json.Metric(point.name + "_actions", static_cast<double>(r.remedy_actions));
      json.Metric(point.name + "_deferrals",
                  static_cast<double>(r.remedy_deferrals));
      json.Metric(point.name + "_rollbacks",
                  static_cast<double>(r.remedy_rollbacks));
      json.Metric(point.name + "_rebalances",
                  static_cast<double>(r.remedy_rebalances));
      json.Metric(point.name + "_unjustified_actions",
                  static_cast<double>(r.remedy_unjustified_actions));
    }
    json.Metric(point.name + "_during_goodput", PhaseGoodput(r, "during"));
    json.Metric(point.name + "_post_goodput", PhaseGoodput(r, "post"));
    json.Metric(point.name + "_during_p99", PhaseP99(r, "during"));
    json.Metric(point.name + "_post_p99", PhaseP99(r, "post"));
  }
  std::printf("  all gates: [%s]\n", ok ? "ok" : "FAIL");
  json.Metric("all_gates_pass", ok ? 1.0 : 0.0);

  uint64_t total_events = 0;
  uint64_t total_scheduled = 0;
  for (const FleetFaultResult& r : results) {
    total_events += r.sim.fired;
    total_scheduled += r.sim.scheduled;
  }
  std::printf("\nSimulated events across the grid: %llu fired / %llu scheduled\n",
              static_cast<unsigned long long>(total_events),
              static_cast<unsigned long long>(total_scheduled));
  json.Metric("total_events_fired", static_cast<double>(total_events));
  json.SetRun(runner.jobs(), runner.wall_seconds());
  json.WallMetric("sweep_wall_seconds", runner.wall_seconds());
  json.WallMetric("events_per_wall_second",
                  runner.wall_seconds() > 0 ? total_events / runner.wall_seconds() : 0.0);
  json.Write();
  bench::WriteTraceIfRequested(trace, opts);
  runner.PrintSummary("fleet_remediate");
  return 0;
}
