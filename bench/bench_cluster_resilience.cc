// Gray failures and request-level resilience: rack-correlated crashes and
// zone partitions against the dispatch-path policies (retry / hedge / shed).
//
// Zone outages (bench_cluster_faults) are clean failures: the dispatcher
// sees them and writes work off immediately. This grid measures the gray
// ones — a partitioned zone keeps computing but cannot deliver, and a rack
// loses 32 nodes at once — and compares three request-level policies on the
// same 1024-node fleet:
//
//   * write-off      — resilience disabled (one attempt, no timeout): every
//                      request caught behind a fault fails.
//   * retry          — per-request timeout + capped-backoff retries under a
//                      per-model retry budget; orphaned work re-dispatches
//                      to healthy replicas.
//   * retry+hedge+shed — retry plus hedged dispatch (first completion wins,
//                      loser cancelled through the driver abort path) and
//                      watermark admission control.
//
// Headline checks (ISSUE 8): under rack-crash + zone-partition the full
// policy recovers >= 95% of pre-fault goodput and cuts failed requests by
// >= 10x versus write-off, while shedding keeps admitted p99 bounded. All
// points flow through one SweepRunner grid with declaration-order
// collection: stdout is byte-identical for any --jobs (CI runs it twice and
// cmps).
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/fault/scenario.h"

using namespace lithos;

namespace {

constexpr int kNodes = 1024;
constexpr int kZones = 8;
constexpr int kRacksPerZone = 4;  // 32-node racks
constexpr double kRps = 24000.0;

// Phase windows (seconds): warm up to 1, measure [1,3), faults land in
// [3,4), settle 0.5s after the last heal, measure recovery over [4.5,6.5).
constexpr double kPreBegin = 1.0;
constexpr double kFaultAt = 3.0;
constexpr double kFaultSecs = 1.0;
constexpr double kPostBegin = 4.5;
constexpr double kPostEnd = 6.5;

enum class Policy { kWriteOff, kRetry, kFull };

const char* PolicyName(Policy p) {
  switch (p) {
    case Policy::kWriteOff:
      return "write-off";
    case Policy::kRetry:
      return "retry";
    case Policy::kFull:
      return "retry+hedge+shed";
  }
  return "?";
}

ResilienceConfig MakePolicy(Policy p) {
  ResilienceConfig rc;
  if (p == Policy::kWriteOff) {
    return rc;  // disabled
  }
  rc.enabled = true;
  rc.max_attempts = 3;
  rc.attempt_timeout = FromMillis(250);
  rc.backoff_base = FromMillis(20);
  rc.backoff_cap = FromMillis(160);
  if (p == Policy::kFull) {
    rc.hedge = true;
    rc.hedge_delay = FromMillis(75);
    rc.shed_watermark_ms = 60.0;  // ~4x the healthy per-node backlog
  }
  return rc;
}

FleetFaultConfig BaseConfig(Policy policy) {
  FleetFaultConfig config;
  config.cluster.num_nodes = kNodes;
  config.cluster.num_zones = kZones;
  config.cluster.racks_per_zone = kRacksPerZone;
  config.cluster.policy = PlacementPolicy::kModelAffinity;
  config.cluster.system = SystemKind::kMps;
  config.cluster.aggregate_rps = kRps;
  config.cluster.seed = 2026;
  config.cluster.resilience = MakePolicy(policy);
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
  if (name == "rack-crashes") {
    // Random rack-correlated crash groups with heavy-tailed (Weibull,
    // shape < 1) repairs: most racks come back fast, a few need a tech.
    faults.rack_crashes_per_second = 6.0;
    faults.rack_repair = RepairModel::Weibull(0.7, 1.2);
  } else if (name == "partition") {
    // 20ms past the fault instant so the cut lands mid-control-period: the
    // gray-failure exposure window (partitioned replicas, not yet re-placed)
    // is ~230ms, not zero.
    faults.partitions = {
        {/*zone=*/0, FromSeconds(kFaultAt) + FromMillis(20), FromSeconds(kFaultSecs)}};
  } else if (name == "rack+partition") {
    // The gray-failure composite: zone 0 unreachable-but-computing while
    // racks crash outright mid-window — including one rack *inside* the
    // partitioned zone, whose deferred completions are orphaned at heal
    // (the worst case: work that looked merely late is actually lost). All
    // instants sit 20ms+ off the 250ms control grid, as above.
    faults.partitions = {
        {/*zone=*/0, FromSeconds(kFaultAt) + FromMillis(20), FromSeconds(kFaultSecs)}};
    faults.rack_crashes = {
        {/*zone=*/1, /*rack=*/0, FromSeconds(kFaultAt) + FromMillis(120), FromMillis(900)},
        {/*zone=*/2, /*rack=*/1, FromSeconds(kFaultAt) + FromMillis(170), FromMillis(1200)},
        {/*zone=*/3, /*rack=*/2, FromSeconds(kFaultAt) + FromMillis(220), FromMillis(1000)},
        {/*zone=*/0, /*rack=*/1, FromSeconds(kFaultAt) + FromMillis(420), FromMillis(1000)},
    };
  }
  return faults;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Request-level resilience: retry/hedge/shed vs rack crashes and partitions",
      "ISSUE 8 gray-failure grid; dispatch-path policies at region scale");

  const bench::BenchOptions opts = bench::ParseBenchOptions(argc, argv);
  SweepRunner runner(opts.jobs);
  bench::JsonEmitter json("cluster_resilience");

  // --trace records the headline point (rack+partition under the full
  // policy): cluster, control, and fault layers only, same rationale as
  // bench_cluster_faults. One grid point owns the recorder, so the trace
  // bytes are identical for any --jobs.
  TraceRecorder trace(static_cast<size_t>(opts.trace_limit));
  trace.SetLayerMask(TraceRecorder::LayerBit(TraceLayer::kCluster) |
                     TraceRecorder::LayerBit(TraceLayer::kControl) |
                     TraceRecorder::LayerBit(TraceLayer::kFault));
  bench::ApplyTraceMask(trace, opts);
  TraceRecorder* recorder = opts.trace_path.empty() ? nullptr : &trace;

  struct GridPoint {
    std::string scenario;
    Policy policy;
  };
  std::vector<GridPoint> grid = {
      {"rack-crashes", Policy::kWriteOff},
      {"rack-crashes", Policy::kRetry},
      {"rack-crashes", Policy::kFull},
      {"partition", Policy::kWriteOff},
      {"partition", Policy::kRetry},
      {"partition", Policy::kFull},
      {"rack+partition", Policy::kWriteOff},
      {"rack+partition", Policy::kRetry},
      {"rack+partition", Policy::kFull},
  };
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
    const bool traced = g.scenario == "rack+partition" && g.policy == Policy::kFull;
    TraceRecorder* point_trace = traced ? recorder : nullptr;
    const long long fault_seed = opts.fault_seed;
    points.push_back(
        {g.scenario + "/" + PolicyName(g.policy), [g, point_trace, fault_seed] {
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

  std::printf("\n%d nodes, %d zones x %d racks (%d-node racks), %.0f rps flat;\n"
              "fault window [%.1fs, %.1fs), recovery window [%.1fs, %.1fs)\n",
              kNodes, kZones, kRacksPerZone, kNodes / kZones / kRacksPerZone, kRps,
              kFaultAt, kFaultAt + kFaultSecs, kPostBegin, kPostEnd);

  Table table({"scenario", "policy", "phase", "p99 ms", "rps", "goodput ms/s", "failed",
               "retry", "hedge", "shed", "timeout"});
  uint64_t total_events = 0;
  for (size_t i = 0; i < grid.size(); ++i) {
    const FleetFaultResult& r = results[i];
    total_events += r.sim.fired;
    for (const FaultPhaseStats& phase : r.phases) {
      table.AddRow({grid[i].scenario, PolicyName(grid[i].policy), phase.name,
                    Table::Num(phase.p99_ms, 2), Table::Num(phase.throughput_rps, 0),
                    Table::Num(phase.goodput_ms_per_s, 0), std::to_string(phase.failed),
                    phase.name == "post" ? std::to_string(r.retries) : "-",
                    phase.name == "post" ? std::to_string(r.hedges) : "-",
                    phase.name == "post" ? std::to_string(r.shed) : "-",
                    phase.name == "post" ? std::to_string(r.timeouts) : "-"});
    }
    std::string prefix = grid[i].scenario + "_" + PolicyName(grid[i].policy) + "_";
    for (char& c : prefix) {
      if (c == '+' || c == '-' || c == '/') {
        c = '_';
      }
    }
    json.Metric(prefix + "pre_p99_ms", r.phases[0].p99_ms);
    json.Metric(prefix + "during_p99_ms", r.phases[1].p99_ms);
    json.Metric(prefix + "post_p99_ms", r.phases[2].p99_ms);
    json.Metric(prefix + "pre_goodput_ms_per_s", r.phases[0].goodput_ms_per_s);
    json.Metric(prefix + "post_goodput_ms_per_s", r.phases[2].goodput_ms_per_s);
    json.Metric(prefix + "failed_requests", static_cast<double>(r.failed_requests));
    json.Metric(prefix + "retries", static_cast<double>(r.retries));
    json.Metric(prefix + "hedges", static_cast<double>(r.hedges));
    json.Metric(prefix + "hedge_wins", static_cast<double>(r.hedge_wins));
    json.Metric(prefix + "timeouts", static_cast<double>(r.timeouts));
    json.Metric(prefix + "shed", static_cast<double>(r.shed));
    json.Metric(prefix + "deferred_delivered", static_cast<double>(r.deferred_delivered));
    json.Metric(prefix + "deferred_orphaned", static_cast<double>(r.deferred_orphaned));
  }
  table.Print();

  // Headline: for each scenario, recovery ratio of the full policy and the
  // failed-request reduction versus write-off.
  std::printf("\nResilience headline (full = retry+hedge+shed):\n");
  std::printf("  %-16s %-10s %-12s %-14s %s\n", "scenario", "recovery", "failed w/o",
              "failed full", "reduction");
  for (size_t i = 0; i + 2 < grid.size(); i += 3) {
    const FleetFaultResult& writeoff = results[i];
    const FleetFaultResult& full = results[i + 2];
    const double recovery =
        full.phases[0].goodput_ms_per_s > 0
            ? full.phases[2].goodput_ms_per_s / full.phases[0].goodput_ms_per_s
            : 0.0;
    const double reduction =
        full.failed_requests > 0
            ? static_cast<double>(writeoff.failed_requests) /
                  static_cast<double>(full.failed_requests)
            : static_cast<double>(writeoff.failed_requests);
    std::printf("  %-16s %-10.3f %-12llu %-14llu %.1fx\n", grid[i].scenario.c_str(),
                recovery, static_cast<unsigned long long>(writeoff.failed_requests),
                static_cast<unsigned long long>(full.failed_requests), reduction);
    std::string key = grid[i].scenario;
    for (char& c : key) {
      if (c == '+' || c == '-') {
        c = '_';
      }
    }
    json.Metric(key + "_full_recovery_ratio", recovery);
    json.Metric(key + "_failed_reduction_x", reduction);
  }
  std::printf("\nTargets: recovery >= 0.95 of pre-fault goodput; >= 10x fewer failed\n"
              "requests than write-off under rack+partition; shed keeps admitted p99\n"
              "bounded through the fault window.\n");

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
  runner.PrintSummary("cluster_resilience");
  return 0;
}
