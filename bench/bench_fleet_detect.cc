// Gray-failure detection scored against injector ground truth, plus
// request-span latency attribution — the observability closing-the-loop
// bench (ISSUE 9).
//
// The same 1024-node fleet as bench_cluster_resilience runs under the full
// resilient policy (retry + hedge + shed) while a GrayNodeDetector ticks
// every control period over the dispatcher's telemetry feed. The detector
// never sees the injector: crashes are announced (known-down), but
// stragglers and zone partitions must be *inferred* from windowed latency
// inflation and zone-silence signatures. Verdicts are then scored against
// the injector's pre-generated ground-truth spans:
//
//   * stragglers — Poisson straggler onsets (DVFS slowdown) across the pool
//   * partition  — scripted zone partitions (unreachable but computing)
//   * mixed      — stragglers + a partition + announced rack-crash noise
//                  (the noise is fail-stop, so it must NOT produce gray
//                  verdicts; it stresses precision, not recall)
//
// Headline targets (ISSUE 9): precision >= 0.9 and recall >= 0.8 on the
// injected stragglers/partitions, median time-to-detection under 2 control
// periods. The mixed point also feeds an online SpanBuilder and prints the
// critical-path attribution tables (docs/attribution.md) — byte-identical
// across runs and --jobs like all bench stdout (CI cmps).
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/fault/scenario.h"
#include "src/obs/attribution.h"
#include "src/obs/span.h"

using namespace lithos;

namespace {

constexpr int kNodes = 1024;
constexpr int kZones = 8;
constexpr int kRacksPerZone = 4;  // 32-node racks
constexpr double kRps = 24000.0;

// Measurement phases (seconds). Faults land in [2, 5); the detector's
// baselines warm over the first few control periods, so every injected
// fault starts with history behind it.
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

FleetFaultConfig BaseConfig() {
  FleetFaultConfig config;
  config.cluster.num_nodes = kNodes;
  config.cluster.num_zones = kZones;
  config.cluster.racks_per_zone = kRacksPerZone;
  config.cluster.policy = PlacementPolicy::kRoundRobin;
  config.cluster.system = SystemKind::kMps;
  config.cluster.aggregate_rps = kRps;
  config.cluster.seed = 2026;
  config.cluster.resilience = FullPolicy();
  config.scaling = ScalingPolicyKind::kStaticPeak;
  config.max_migrations_per_period = 8;
  config.phases = {{"pre", FromSeconds(kPreBegin), FromSeconds(kFaultBegin)},
                   {"during", FromSeconds(kFaultBegin), FromSeconds(kFaultEnd)},
                   {"post", FromSeconds(kFaultEnd), FromSeconds(kPostEnd)}};
  config.detect = true;
  config.detector.window = config.control_period;
  return config;
}

FaultScenarioConfig Scenario(const std::string& name) {
  FaultScenarioConfig faults;
  faults.name = name;
  faults.seed = 7;
  // Random stragglers are sampled over [0, horizon); restricting the window
  // keeps every injected onset inside the warmed-up fault phase.
  if (name == "stragglers" || name == "mixed") {
    faults.stragglers_per_second = name == "mixed" ? 2.0 : 4.0;
    faults.straggler_slowdown = 0.3;           // ~3x service time
    faults.straggler_duration = FromMillis(1500);
  }
  if (name == "partition") {
    faults.partitions = {
        {/*zone=*/2, FromSeconds(kFaultBegin) + FromMillis(20), FromMillis(1200)},
        {/*zone=*/5, FromSeconds(3.6) + FromMillis(70), FromMillis(1000)},
    };
  } else if (name == "mixed") {
    faults.partitions = {
        {/*zone=*/0, FromSeconds(kFaultBegin) + FromMillis(20), FromMillis(1200)}};
    // Announced fail-stop noise: a rack crash is visible to the dispatcher,
    // so the detector must not convert it into gray verdicts.
    faults.rack_crashes = {
        {/*zone=*/3, /*rack=*/1, FromSeconds(3.2) + FromMillis(20), FromMillis(1000)}};
  }
  return faults;
}

// Converts injector ground truth into the neutral spans ScoreDetector
// grades: stragglers by node, partitions by zone. Everything else (crashes,
// rack crashes, power caps) is announced or out of scope — dropped here,
// with the drop counted by the caller so nothing vanishes silently.
std::vector<TruthSpan> ScoreableTruth(const std::vector<GroundTruthSpan>& spans) {
  std::vector<TruthSpan> truth;
  for (const GroundTruthSpan& gt : spans) {
    TruthSpan t;
    if (gt.kind == FaultKind::kStragglerStart) {
      t.kind = Verdict::Kind::kStraggler;
      t.node = gt.node;
    } else if (gt.kind == FaultKind::kPartitionStart) {
      t.kind = Verdict::Kind::kPartition;
      t.zone = gt.zone;
    } else {
      continue;
    }
    t.start = gt.start;
    t.end = gt.end;
    truth.push_back(t);
  }
  return truth;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Gray-failure detection and critical-path latency attribution",
      "ISSUE 9 observability loop; detector scored against injected ground truth");

  const bench::BenchOptions opts = bench::ParseBenchOptions(argc, argv);
  SweepRunner runner(opts.jobs);
  bench::JsonEmitter json("fleet_detect");

  // --trace records the mixed point (cluster/control/fault layers): the
  // request-correlation records it contains are what trace_analyze replays
  // offline into the same spans the online SpanBuilder assembles here.
  TraceRecorder trace(static_cast<size_t>(opts.trace_limit));
  trace.SetLayerMask(TraceRecorder::LayerBit(TraceLayer::kCluster) |
                     TraceRecorder::LayerBit(TraceLayer::kControl) |
                     TraceRecorder::LayerBit(TraceLayer::kFault));
  bench::ApplyTraceMask(trace, opts);
  TraceRecorder* recorder = opts.trace_path.empty() ? nullptr : &trace;

  std::vector<std::string> grid = {"stragglers", "partition", "mixed"};
  grid.erase(std::remove_if(grid.begin(), grid.end(),
                            [&opts](const std::string& g) {
                              return !bench::ScenarioSelected(opts, g);
                            }),
             grid.end());
  if (grid.empty()) {
    std::fprintf(stderr, "error: --scenario '%s' matches no grid point\n",
                 opts.scenario.c_str());
    return 1;
  }

  // The mixed point owns the span sink (and the recorder): one owner per
  // sink keeps the assembled spans byte-identical at any --jobs.
  SpanBuilder spans;
  std::vector<SweepPoint<FleetFaultResult>> points;
  for (const std::string& scenario : grid) {
    const bool traced = scenario == "mixed";
    TraceRecorder* point_trace = traced ? recorder : nullptr;
    SpanBuilder* point_spans = traced ? &spans : nullptr;
    const long long fault_seed = opts.fault_seed;
    points.push_back({scenario, [scenario, point_trace, point_spans, fault_seed] {
                        FleetFaultConfig config = BaseConfig();
                        config.faults = Scenario(scenario);
                        if (fault_seed >= 0) {
                          config.faults.seed = static_cast<uint64_t>(fault_seed);
                        }
                        config.trace = point_trace;
                        config.spans = point_spans;
                        return RunFleetFaultScenario(config);
                      }});
  }
  const std::vector<FleetFaultResult> results = runner.Run(points);

  std::printf("\n%d nodes, %d zones x %d racks, %.0f rps; faults in [%.1fs, %.1fs),\n"
              "detector window = control period (250ms), crash state announced,\n"
              "stragglers/partitions inferred from telemetry only\n",
              kNodes, kZones, kRacksPerZone, kRps, kFaultBegin, kFaultEnd);

  Table table({"scenario", "ticks", "verdicts", "truth", "matched", "detected",
               "precision", "recall", "ttd win"});
  const DurationNs window = FromMillis(250);
  const DurationNs grace = 2 * window;  // heal tails: verdicts may trail a span
  for (size_t i = 0; i < grid.size(); ++i) {
    const FleetFaultResult& r = results[i];
    const std::vector<TruthSpan> truth = ScoreableTruth(r.ground_truth);
    const size_t unscored = r.ground_truth.size() - truth.size();
    const DetectorScore score = ScoreDetector(r.verdicts, truth, window, grace);
    table.AddRow({grid[i], std::to_string(r.detector_ticks),
                  std::to_string(r.verdicts.size()), std::to_string(score.truth_spans),
                  std::to_string(score.matched_verdicts),
                  std::to_string(score.detected_spans), Table::Num(score.precision, 3),
                  Table::Num(score.recall, 3), Table::Num(score.median_ttd_windows, 1)});
    if (std::getenv("LITHOS_DETECT_DEBUG") != nullptr) {
      std::printf("DEBUG %s truth:\n", grid[i].c_str());
      for (const TruthSpan& t : truth) {
        std::printf("  %s node=%d zone=%d [%.3f, %.3f]ms\n",
                    VerdictKindName(t.kind), t.node, t.zone, ToMillis(t.start),
                    ToMillis(t.end));
      }
      std::printf("DEBUG %s verdicts:\n", grid[i].c_str());
      for (const std::string& line : r.detector_lines) {
        std::printf("  %s\n", line.c_str());
      }
    }
    if (unscored > 0) {
      std::printf("note: %s: %zu announced/out-of-scope fault span(s) excluded from "
                  "scoring\n",
                  grid[i].c_str(), unscored);
    }
    if (!score.missed_lines.empty()) {
      std::printf("%s undetected episodes (%zu):\n", grid[i].c_str(),
                  score.missed_lines.size());
      for (const std::string& line : score.missed_lines) {
        std::printf("  %s\n", line.c_str());
      }
    }
    std::string prefix = grid[i] + "_";
    json.Metric(prefix + "precision", score.precision);
    json.Metric(prefix + "recall", score.recall);
    json.Metric(prefix + "truth_spans", static_cast<double>(score.truth_spans));
    json.Metric(prefix + "scored_verdicts", static_cast<double>(score.scored_verdicts));
    json.Metric(prefix + "matched_verdicts", static_cast<double>(score.matched_verdicts));
    json.Metric(prefix + "median_ttd_windows", score.median_ttd_windows);
    json.Metric(prefix + "ttd_under_2_windows",
                score.median_ttd_windows < 2.0 ? 1.0 : 0.0);
  }
  table.Print();

  // Detector verdict log for the mixed point (first lines; full log is in
  // the JSON-adjacent artifacts via --trace + trace_analyze).
  const size_t mixed = std::find(grid.begin(), grid.end(), "mixed") - grid.begin();
  if (mixed < grid.size()) {
    const FleetFaultResult& r = results[mixed];
    std::printf("\nmixed verdict log (%zu total):\n", r.detector_lines.size());
    const size_t shown = std::min<size_t>(r.detector_lines.size(), 12);
    for (size_t i = 0; i < shown; ++i) {
      std::printf("  %s\n", r.detector_lines[i].c_str());
    }
    if (shown < r.detector_lines.size()) {
      std::printf("  ... %zu more\n", r.detector_lines.size() - shown);
    }

    // Critical-path latency attribution over the mixed point's online spans.
    const std::vector<RequestSpan> tree = spans.Spans();
    LatencyAttributor attributor;
    attributor.Attribute(tree);
    std::printf("\nLatency attribution (mixed, online span assembly):\n");
    std::fputs(FormatAttributionTables(attributor).c_str(), stdout);

    // Exact-sum invariant: every attribution's components sum to its total.
    uint64_t exact = 0;
    for (const Attribution& a : attributor.attributions()) {
      int64_t sum = 0;
      for (int c = 0; c < kNumAttributionComponents; ++c) {
        sum += AttributionComponent(a, c);
      }
      exact += sum == a.total ? 1 : 0;
    }
    const SpanStats& stats = attributor.stats();
    json.Metric("mixed_spans_completed", static_cast<double>(stats.completed));
    json.Metric("mixed_spans_attributed", static_cast<double>(stats.attributed));
    json.Metric("mixed_attribution_exact_sum",
                attributor.attributions().size() == exact ? 1.0 : 0.0);
    json.Metric("mixed_hedges", static_cast<double>(r.hedges));
    json.Metric("mixed_retries", static_cast<double>(r.retries));
  }

  std::printf("\nTargets: precision >= 0.9 and recall >= 0.8 on injected stragglers\n"
              "and partitions; median time-to-detection < 2 control periods.\n");

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
  runner.PrintSummary("fleet_detect");
  return 0;
}
