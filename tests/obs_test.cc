// Observability layer: TraceRecorder (format, ring wraparound, masks,
// serialization, disabled-path no-op) and MetricsRegistry (instruments,
// phases), plus the determinism contract — byte-identical traces across
// repeated runs and across SweepRunner worker counts for both the stacking
// harness and a zoned fault scenario.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/experiments/harness.h"
#include "src/experiments/sweep.h"
#include "src/fault/scenario.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace lithos {
namespace {

// --- Format ------------------------------------------------------------------

TEST(TraceFormatTest, RecordIs32BytesWithNoPadding) {
  static_assert(sizeof(TraceRecord) == 32);
  static_assert(sizeof(TraceFileHeader) == 40);
  // Field offsets are part of the on-disk format (mirrored by
  // scripts/trace_reader.py's "<qBBHiiiq").
  EXPECT_EQ(offsetof(TraceRecord, time_ns), 0u);
  EXPECT_EQ(offsetof(TraceRecord, layer), 8u);
  EXPECT_EQ(offsetof(TraceRecord, kind), 9u);
  EXPECT_EQ(offsetof(TraceRecord, reserved), 10u);
  EXPECT_EQ(offsetof(TraceRecord, node), 12u);
  EXPECT_EQ(offsetof(TraceRecord, zone), 16u);
  EXPECT_EQ(offsetof(TraceRecord, arg), 20u);
  EXPECT_EQ(offsetof(TraceRecord, payload), 24u);
}

TEST(TraceFormatTest, NamesCoverEveryEnumerator) {
  EXPECT_STREQ(TraceLayerName(TraceLayer::kSim), "sim");
  EXPECT_STREQ(TraceLayerName(TraceLayer::kFault), "fault");
  EXPECT_STREQ(TraceKindName(TraceKind::kEventSchedule), "event_schedule");
  EXPECT_STREQ(TraceKindName(TraceKind::kGrantComplete), "grant_complete");
  EXPECT_STREQ(TraceKindName(TraceKind::kNodeCrash), "node_crash");
  EXPECT_STREQ(TraceKindName(TraceKind::kScaleTarget), "scale_target");
  EXPECT_STREQ(TraceKindName(TraceKind::kFaultApplied), "fault_applied");
}

// --- Recorder ----------------------------------------------------------------

void AppendN(TraceRecorder& trace, int n, int64_t base_time = 0) {
  for (int i = 0; i < n; ++i) {
    trace.Append(base_time + i, TraceLayer::kSim, TraceKind::kEventFire, i, -1, i,
                 int64_t{100} + i);
  }
}

TEST(TraceRecorderTest, SegmentModeRetainsEverythingAcrossSlabBoundaries) {
  TraceRecorder trace(0);
  const int n = static_cast<int>(TraceRecorder::kSegmentRecords) + 37;
  AppendN(trace, n);
  EXPECT_EQ(trace.total(), static_cast<uint64_t>(n));
  EXPECT_EQ(trace.size(), static_cast<size_t>(n));
  EXPECT_EQ(trace.dropped(), 0u);
  const std::vector<TraceRecord> records = trace.Records();
  ASSERT_EQ(records.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].time_ns, i);
    EXPECT_EQ(records[static_cast<size_t>(i)].payload, 100 + i);
  }
}

TEST(TraceRecorderTest, RingModeKeepsLastLimitRecordsInOrder) {
  TraceRecorder trace(8);
  AppendN(trace, 20);
  EXPECT_EQ(trace.total(), 20u);
  EXPECT_EQ(trace.size(), 8u);
  EXPECT_EQ(trace.dropped(), 12u);
  const std::vector<TraceRecord> records = trace.Records();
  ASSERT_EQ(records.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].time_ns, 12 + i) << "unwrap order";
  }
}

TEST(TraceRecorderTest, RingBelowCapacityBehavesLikeSegment) {
  TraceRecorder trace(64);
  AppendN(trace, 10);
  EXPECT_EQ(trace.size(), 10u);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.Records()[0].time_ns, 0);
}

TEST(TraceRecorderTest, LayerMaskFiltersAtAppendTime) {
  TraceRecorder trace(0);
  trace.SetLayerMask(TraceRecorder::LayerBit(TraceLayer::kCluster));
  trace.Append(1, TraceLayer::kSim, TraceKind::kEventFire, -1, -1, -1, 0);
  trace.Append(2, TraceLayer::kCluster, TraceKind::kNodeCrash, -1, -1, 3, 0);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.Records()[0].time_ns, 2);
  EXPECT_EQ(trace.total(), 1u) << "masked appends never count";
}

TEST(TraceRecorderTest, SerializeMatchesHeaderPlusRecords) {
  TraceRecorder trace(4);
  AppendN(trace, 6);
  const std::vector<uint8_t> bytes = trace.Serialize();
  ASSERT_EQ(bytes.size(), sizeof(TraceFileHeader) + 4 * sizeof(TraceRecord));
  TraceFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  EXPECT_EQ(std::memcmp(header.magic, kTraceMagic, 8), 0);
  EXPECT_EQ(header.version, kTraceFormatVersion);
  EXPECT_EQ(header.record_size, sizeof(TraceRecord));
  EXPECT_EQ(header.record_count, 4u);
  EXPECT_EQ(header.total, 6u);
  EXPECT_EQ(header.dropped, 2u);
  TraceRecord first;
  std::memcpy(&first, bytes.data() + sizeof(header), sizeof(first));
  EXPECT_EQ(first.time_ns, 2) << "oldest retained record leads";
}

TEST(TraceRecorderTest, ClearKeepsModeAndMask) {
  TraceRecorder trace(4);
  trace.SetLayerMask(TraceRecorder::LayerBit(TraceLayer::kSim));
  AppendN(trace, 6);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total(), 0u);
  AppendN(trace, 6);
  EXPECT_EQ(trace.size(), 4u) << "still a 4-record ring";
}

// --- Simulator integration ---------------------------------------------------

TEST(SimTraceTest, CoreEventsAreRecordedAndCounted) {
  Simulator sim;
  TraceRecorder trace(0);
  sim.SetTrace(&trace);
  int fired = 0;
  sim.ScheduleAt(10, [&fired] { ++fired; });
  const EventId cancel_me = sim.ScheduleAt(20, [&fired] { ++fired; });
  const EventId move_me = sim.ScheduleAt(30, [&fired] { ++fired; });
  sim.Cancel(cancel_me);
  sim.Reschedule(move_me, 15);
  sim.RunToCompletion();

  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.events_scheduled(), 3u);
  EXPECT_EQ(sim.events_canceled(), 1u);
  EXPECT_EQ(sim.events_rescheduled(), 1u);
  const SimCounters counters = sim.counters();
  EXPECT_EQ(counters.scheduled, 3u);
  EXPECT_EQ(counters.fired, 2u);

  int schedules = 0, fires = 0, cancels = 0, reschedules = 0;
  for (const TraceRecord& r : trace.Records()) {
    EXPECT_EQ(r.layer, static_cast<uint8_t>(TraceLayer::kSim));
    switch (static_cast<TraceKind>(r.kind)) {
      case TraceKind::kEventSchedule: ++schedules; break;
      case TraceKind::kEventFire: ++fires; break;
      case TraceKind::kEventCancel: ++cancels; break;
      case TraceKind::kEventReschedule: ++reschedules; break;
      default: FAIL() << "unexpected kind " << int(r.kind);
    }
  }
  EXPECT_EQ(schedules, 3);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(cancels, 1);
  EXPECT_EQ(reschedules, 1);
}

TEST(SimTraceTest, DisabledPathRecordsNothingAndChangesNothing) {
  // The same event pattern with and without a (detached) trace: counters and
  // timing identical, nothing recorded.
  auto run = [](Simulator& sim) {
    int fired = 0;
    for (int i = 0; i < 100; ++i) {
      sim.ScheduleAt(i * 10, [&fired] { ++fired; });
    }
    sim.RunToCompletion();
    return fired;
  };
  Simulator plain;
  Simulator detached;
  detached.SetTrace(nullptr);
  EXPECT_EQ(run(plain), run(detached));
  EXPECT_EQ(plain.counters().scheduled, detached.counters().scheduled);
  EXPECT_EQ(plain.Now(), detached.Now());
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsAreNamedStableAndTyped) {
  MetricsRegistry registry;
  Counter& c = registry.counter("fleet/dispatched");
  Gauge& g = registry.gauge("fleet/request_ms");
  Histogram& h = registry.histogram("fleet/latency_ms");
  c.Inc();
  c.Inc(4);
  g.Add(2.5);
  h.Add(10.0);
  h.Add(20.0);
  EXPECT_EQ(&c, &registry.counter("fleet/dispatched")) << "stable reference";
  EXPECT_EQ(c.value(), 5u);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  EXPECT_EQ(registry.num_instruments(), 3u);
  h.Finalize();
  EXPECT_DOUBLE_EQ(h.Mean(), 15.0);
}

TEST(MetricsRegistryTest, RowsExpandHistogramsInRegistrationOrder) {
  MetricsRegistry registry;
  registry.counter("a").Inc(7);
  registry.histogram("b").Add(4.0);
  registry.gauge("c").Set(1.5);
  const auto rows = registry.Rows();
  ASSERT_EQ(rows.size(), 6u);  // a, b/count, b/mean, b/p50, b/p99, c
  EXPECT_EQ(rows[0].first, "a");
  EXPECT_DOUBLE_EQ(rows[0].second, 7.0);
  EXPECT_EQ(rows[1].first, "b/count");
  EXPECT_EQ(rows[2].first, "b/mean");
  EXPECT_DOUBLE_EQ(rows[2].second, 4.0);
  EXPECT_EQ(rows[5].first, "c");
}

TEST(MetricsRegistryTest, PhasesSnapshotCounterDeltasAndGaugeValues) {
  MetricsRegistry registry;
  Counter& c = registry.counter("done");
  Gauge& g = registry.gauge("level");
  c.Inc(10);
  registry.BeginPhase("pre");
  c.Inc(3);
  g.Set(1.0);
  registry.EndPhase();
  registry.BeginPhase("during");
  c.Inc(9);
  g.Set(2.0);
  registry.EndPhase();

  ASSERT_EQ(registry.phases().size(), 2u);
  const MetricsRegistry::PhaseSnapshot& pre = registry.phases()[0];
  EXPECT_EQ(pre.name, "pre");
  EXPECT_DOUBLE_EQ(pre.ValueOf("done"), 3.0) << "delta, not absolute";
  EXPECT_DOUBLE_EQ(pre.ValueOf("level"), 1.0);
  EXPECT_DOUBLE_EQ(registry.phases()[1].ValueOf("done"), 9.0);
  EXPECT_DOUBLE_EQ(registry.phases()[1].ValueOf("level"), 2.0);
}

TEST(MetricsRegistryTest, BeginPhaseClosesAnOpenPhase) {
  MetricsRegistry registry;
  registry.counter("x").Inc();
  registry.BeginPhase("one");
  registry.counter("x").Inc();
  registry.BeginPhase("two");  // implicitly ends "one"
  registry.EndPhase();
  ASSERT_EQ(registry.phases().size(), 2u);
  EXPECT_EQ(registry.phases()[0].name, "one");
  EXPECT_DOUBLE_EQ(registry.phases()[0].ValueOf("x"), 1.0);
}

// --- End-to-end determinism --------------------------------------------------

FleetFaultConfig SmallOutageConfig(TraceRecorder* trace) {
  FleetFaultConfig config;
  config.cluster.num_nodes = 16;
  config.cluster.num_zones = 4;
  config.cluster.policy = PlacementPolicy::kModelAffinity;
  config.cluster.system = SystemKind::kMps;
  config.cluster.aggregate_rps = 300.0;
  config.cluster.seed = 11;
  config.faults.name = "zone-outage";
  config.faults.zone_outages = {{/*zone=*/1, FromMillis(1200), FromMillis(600)}};
  config.phases = {{"pre", FromMillis(400), FromMillis(1200)},
                   {"during", FromMillis(1200), FromMillis(1800)},
                   {"post", FromMillis(2100), FromMillis(2900)}};
  config.trace = trace;
  return config;
}

TEST(TraceDeterminismTest, FaultScenarioTraceIsByteIdenticalAcrossRuns) {
  TraceRecorder t1(0), t2(0);
  RunFleetFaultScenario(SmallOutageConfig(&t1));
  RunFleetFaultScenario(SmallOutageConfig(&t2));
  ASSERT_GT(t1.size(), 0u);
  EXPECT_EQ(t1.Serialize(), t2.Serialize());
}

TEST(TraceDeterminismTest, FaultScenarioTraceIsByteIdenticalAcrossJobs) {
  // The traced point rides a SweepRunner grid next to untraced neighbours,
  // exactly like bench_cluster_faults' CI gate; any worker count must leave
  // the recorder with the same bytes.
  auto run_grid = [](int jobs) {
    TraceRecorder trace(0);
    SweepRunner runner(jobs);
    std::vector<SweepPoint<FleetFaultResult>> points;
    for (int i = 0; i < 4; ++i) {
      TraceRecorder* point_trace = i == 2 ? &trace : nullptr;
      points.push_back({"p" + std::to_string(i), [point_trace] {
                          return RunFleetFaultScenario(SmallOutageConfig(point_trace));
                        }});
    }
    runner.Run(points);
    return trace.Serialize();
  };
  const std::vector<uint8_t> serial = run_grid(1);
  EXPECT_EQ(serial, run_grid(2));
  EXPECT_EQ(serial, run_grid(8));
}

TEST(TraceDeterminismTest, FaultScenarioResultsUnchangedByTracing) {
  const FleetFaultResult untraced = RunFleetFaultScenario(SmallOutageConfig(nullptr));
  TraceRecorder trace(0);
  const FleetFaultResult traced = RunFleetFaultScenario(SmallOutageConfig(&trace));
  ASSERT_EQ(untraced.phases.size(), traced.phases.size());
  for (size_t i = 0; i < untraced.phases.size(); ++i) {
    EXPECT_EQ(untraced.phases[i].completed, traced.phases[i].completed);
    EXPECT_EQ(untraced.phases[i].p99_ms, traced.phases[i].p99_ms);
    EXPECT_EQ(untraced.phases[i].goodput_ms_per_s, traced.phases[i].goodput_ms_per_s);
  }
  EXPECT_EQ(untraced.sim.fired, traced.sim.fired);
  EXPECT_EQ(untraced.failed_requests, traced.failed_requests);
}

TEST(TraceDeterminismTest, FaultScenarioPhaseSnapshotsBracketCollect) {
  const FleetFaultResult r = RunFleetFaultScenario(SmallOutageConfig(nullptr));
  ASSERT_EQ(r.metric_phases.size(), r.phases.size());
  for (size_t i = 0; i < r.phases.size(); ++i) {
    EXPECT_EQ(r.metric_phases[i].name, r.phases[i].name);
    // The counter delta counts every completion *event* inside the window;
    // Collect gates on arrival time, so in-flight carryover from before the
    // window makes the delta a superset of the Collect count.
    EXPECT_GE(r.metric_phases[i].ValueOf("fleet/completed"),
              static_cast<double>(r.phases[i].completed));
    // Recoveries and migrations reset at BeginMeasurement and only count
    // inside the window — delta and Collect agree exactly.
    EXPECT_DOUBLE_EQ(r.metric_phases[i].ValueOf("fleet/recoveries"),
                     static_cast<double>(r.phases[i].recoveries));
    EXPECT_DOUBLE_EQ(r.metric_phases[i].ValueOf("fleet/migrations"),
                     static_cast<double>(r.phases[i].migrations));
  }
  EXPECT_GT(r.sim.scheduled, 0u);
  EXPECT_GE(r.sim.scheduled, r.sim.fired);
}

StackingConfig SmallStackingConfig(TraceRecorder* trace) {
  StackingConfig config;
  config.system = SystemKind::kLithos;
  config.warmup = FromMillis(300);
  config.duration = FromSeconds(1);
  config.trace = trace;
  return config;
}

std::vector<AppSpec> SmallStackingApps() {
  AppSpec hp;
  hp.role = AppRole::kHpLatency;
  hp.model = "ResNet";
  hp.load_rps = 80;
  hp.slo = FromMillis(15);
  AppSpec be;
  be.role = AppRole::kBeInference;
  be.model = "BERT";
  return {hp, be};
}

TEST(TraceDeterminismTest, StackingTraceIsByteIdenticalAcrossRunsAndJobs) {
  auto run_grid = [](int jobs) {
    TraceRecorder trace(1 << 14);
    SweepRunner runner(jobs);
    std::vector<SweepPoint<FleetStackingResult>> points;
    for (int i = 0; i < 3; ++i) {
      TraceRecorder* point_trace = i == 1 ? &trace : nullptr;
      points.push_back({"p" + std::to_string(i), [point_trace] {
                          return RunStackingFleet(SmallStackingConfig(point_trace),
                                                  SmallStackingApps(), 2);
                        }});
    }
    runner.Run(points);
    return trace.Serialize();
  };
  const std::vector<uint8_t> serial = run_grid(1);
  ASSERT_GT(serial.size(), sizeof(TraceFileHeader));
  EXPECT_EQ(serial, run_grid(2));
  EXPECT_EQ(serial, run_grid(8));
}

TEST(TraceDeterminismTest, StackingResultsUnchangedByTracing) {
  const FleetStackingResult untraced =
      RunStackingFleet(SmallStackingConfig(nullptr), SmallStackingApps(), 2);
  TraceRecorder trace(1 << 14);
  const FleetStackingResult traced =
      RunStackingFleet(SmallStackingConfig(&trace), SmallStackingApps(), 2);
  ASSERT_EQ(untraced.per_node.size(), traced.per_node.size());
  for (size_t n = 0; n < untraced.per_node.size(); ++n) {
    ASSERT_EQ(untraced.per_node[n].apps.size(), traced.per_node[n].apps.size());
    for (size_t i = 0; i < untraced.per_node[n].apps.size(); ++i) {
      EXPECT_EQ(untraced.per_node[n].apps[i].p99_ms, traced.per_node[n].apps[i].p99_ms);
      EXPECT_EQ(untraced.per_node[n].apps[i].completed,
                traced.per_node[n].apps[i].completed);
    }
  }
  EXPECT_EQ(untraced.fleet_utilization, traced.fleet_utilization);
  EXPECT_EQ(untraced.sim.scheduled, traced.sim.scheduled);
  EXPECT_EQ(untraced.sim.fired, traced.sim.fired);
}

// --- Bench flag parsing ------------------------------------------------------

TEST(BenchOptionsTest, ParsesTraceFlagsInBothForms) {
  const char* argv1[] = {"bench", "--trace=/tmp/x.bin", "--trace-limit=4096", "--jobs", "3"};
  bench::BenchOptions opts =
      bench::ParseBenchOptions(5, const_cast<char**>(argv1));
  EXPECT_EQ(opts.trace_path, "/tmp/x.bin");
  EXPECT_EQ(opts.trace_limit, 4096);
  EXPECT_EQ(opts.jobs, 3);

  const char* argv2[] = {"bench", "--trace", "/tmp/y.bin", "--trace-limit", "0"};
  opts = bench::ParseBenchOptions(5, const_cast<char**>(argv2));
  EXPECT_EQ(opts.trace_path, "/tmp/y.bin");
  EXPECT_EQ(opts.trace_limit, 0) << "0 = unbounded segment mode";

  const char* argv3[] = {"bench"};
  opts = bench::ParseBenchOptions(1, const_cast<char**>(argv3));
  EXPECT_TRUE(opts.trace_path.empty());
  EXPECT_EQ(opts.trace_limit, 1 << 20);
  EXPECT_EQ(opts.jobs, 0);
}

TEST(BenchOptionsTest, RejectsMalformedTraceLimit) {
  const char* argv[] = {"bench", "--trace-limit=-5", "--trace-limit=abc"};
  const bench::BenchOptions opts =
      bench::ParseBenchOptions(3, const_cast<char**>(argv));
  EXPECT_EQ(opts.trace_limit, 1 << 20) << "bad values fall back to the default";
}

}  // namespace
}  // namespace lithos
