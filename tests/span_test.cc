// Request-scoped observability: SpanBuilder assembly (including malformed
// and truncated inputs, which must produce well-defined partial spans, never
// crashes), LatencyAttributor's exact-sum decomposition, GrayNodeDetector
// episode logic (mix-normalized peer-median stragglers, partition silence,
// metastable thrash), ScoreDetector grading, and the end-to-end property the
// CI gates lean on: online span assembly, offline trace replay, and repeated
// runs all produce byte-identical derived output.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/scenario.h"
#include "src/obs/attribution.h"
#include "src/obs/detect.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"

namespace lithos {
namespace {

// --- SpanBuilder assembly ----------------------------------------------------

TraceRecord Req(int64_t t, TraceKind kind, uint64_t id, int32_t arg = 0,
                int node = -1, int zone = -1) {
  TraceRecord r{};
  r.time_ns = t;
  r.layer = static_cast<uint8_t>(TraceLayer::kCluster);
  r.kind = static_cast<uint8_t>(kind);
  r.node = node;
  r.zone = zone;
  r.arg = arg;
  r.payload = static_cast<int64_t>(id);
  return r;
}

TEST(SpanBuilderTest, AssemblesSingleAttemptCompletion) {
  SpanBuilder b;
  b.Observe(Req(100, TraceKind::kReqArrival, 7, /*model=*/3));
  b.Observe(Req(110, TraceKind::kReqAttemptLaunch, 7, ReqArg(0, false), 5, 1));
  b.Observe(Req(500, TraceKind::kReqComplete, 7, ReqArg(0, false), 5, 1));
  const std::vector<RequestSpan> spans = b.Spans();
  ASSERT_EQ(spans.size(), 1u);
  const RequestSpan& s = spans[0];
  EXPECT_EQ(s.id, 7u);
  EXPECT_EQ(s.model, 3);
  EXPECT_FALSE(s.partial);
  EXPECT_EQ(s.outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(s.arrival, 100);
  EXPECT_EQ(s.settle, 500);
  EXPECT_EQ(s.winner, 0);
  ASSERT_EQ(s.attempts.size(), 1u);
  EXPECT_EQ(s.attempts[0].launch, 110);
  EXPECT_EQ(s.attempts[0].delivered, 500);
  EXPECT_EQ(s.attempts[0].node, 5);
  EXPECT_EQ(s.attempts[0].outcome, AttemptOutcome::kCompleted);
}

TEST(SpanBuilderTest, RetryAfterTimeoutTracksBothAttempts) {
  SpanBuilder b;
  b.Observe(Req(0, TraceKind::kReqArrival, 1, 0));
  b.Observe(Req(10, TraceKind::kReqAttemptLaunch, 1, ReqArg(0, false), 2, 0));
  b.Observe(Req(260, TraceKind::kReqAttemptTimeout, 1, ReqArg(0, false), 2, 0));
  b.Observe(Req(300, TraceKind::kReqAttemptLaunch, 1, ReqArg(1, false), 4, 1));
  b.Observe(Req(420, TraceKind::kReqComplete, 1, ReqArg(1, false), 4, 1));
  const RequestSpan s = b.Spans()[0];
  EXPECT_FALSE(s.partial);
  EXPECT_EQ(s.winner, 1);
  ASSERT_EQ(s.attempts.size(), 2u);
  EXPECT_EQ(s.attempts[0].outcome, AttemptOutcome::kTimedOut);
  EXPECT_EQ(s.attempts[0].finish, 260);
  EXPECT_EQ(s.attempts[1].outcome, AttemptOutcome::kCompleted);
}

TEST(SpanBuilderTest, HedgeWinnerCancelsLoserWithoutDowngrade) {
  SpanBuilder b;
  b.Observe(Req(0, TraceKind::kReqArrival, 9, 1));
  b.Observe(Req(5, TraceKind::kReqAttemptLaunch, 9, ReqArg(0, false), 0, 0));
  b.Observe(Req(80, TraceKind::kReqAttemptLaunch, 9, ReqArg(1, true), 3, 1));
  b.Observe(Req(120, TraceKind::kReqComplete, 9, ReqArg(1, false), 3, 1));
  b.Observe(Req(120, TraceKind::kReqAttemptCancel, 9, ReqArg(0, false), 0, 0));
  // A late cancel for the attempt that already completed must not downgrade.
  b.Observe(Req(121, TraceKind::kReqAttemptCancel, 9, ReqArg(1, false), 3, 1));
  const RequestSpan s = b.Spans()[0];
  EXPECT_FALSE(s.partial);
  EXPECT_EQ(s.winner, 1);
  EXPECT_TRUE(s.attempts[1].hedge);
  EXPECT_EQ(s.attempts[0].outcome, AttemptOutcome::kCancelled);
  EXPECT_EQ(s.attempts[1].outcome, AttemptOutcome::kCompleted);
}

TEST(SpanBuilderTest, ShedAndFailSettleSpans) {
  SpanBuilder b;
  b.Observe(Req(50, TraceKind::kReqArrival, 1, 2));
  b.Observe(Req(50, TraceKind::kReqShed, 1, 2));
  b.Observe(Req(60, TraceKind::kReqArrival, 2, 4));
  b.Observe(Req(70, TraceKind::kReqAttemptLaunch, 2, ReqArg(0, false), 1, 0));
  b.Observe(Req(300, TraceKind::kReqAttemptTimeout, 2, ReqArg(0, false), 1, 0));
  b.Observe(Req(310, TraceKind::kReqFail, 2, 4));
  const std::vector<RequestSpan> spans = b.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].outcome, RequestOutcome::kShed);
  EXPECT_FALSE(spans[0].partial);
  EXPECT_EQ(spans[1].outcome, RequestOutcome::kFailed);
  EXPECT_EQ(spans[1].settle, 310);
  EXPECT_FALSE(spans[1].partial);
}

TEST(SpanBuilderTest, CompletionWithoutArrivalIsPartialNotFatal) {
  SpanBuilder b;
  b.Observe(Req(500, TraceKind::kReqComplete, 42, ReqArg(0, false), 1, 0));
  const RequestSpan s = b.Spans()[0];
  EXPECT_TRUE(s.partial);
  EXPECT_EQ(s.arrival, -1);
  EXPECT_EQ(s.outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(s.settle, 500);
}

TEST(SpanBuilderTest, AttemptIndexGapLeavesPartialPlaceholders) {
  // The launches for attempts 0 and 1 were dropped (ring wrap); only the
  // third attempt's records survive. Slots 0/1 become placeholder attempts
  // with launch == -1 and the span is flagged partial.
  SpanBuilder b;
  b.Observe(Req(0, TraceKind::kReqArrival, 5, 0));
  b.Observe(Req(900, TraceKind::kReqAttemptLaunch, 5, ReqArg(2, false), 6, 1));
  b.Observe(Req(950, TraceKind::kReqComplete, 5, ReqArg(2, false), 6, 1));
  const RequestSpan s = b.Spans()[0];
  EXPECT_TRUE(s.partial);
  ASSERT_EQ(s.attempts.size(), 3u);
  EXPECT_EQ(s.attempts[0].launch, -1);
  EXPECT_EQ(s.attempts[1].launch, -1);
  EXPECT_EQ(s.attempts[2].outcome, AttemptOutcome::kCompleted);
  EXPECT_EQ(s.winner, 2);
}

TEST(SpanBuilderTest, DuplicateSettleAndDuplicateLaunchFlagPartial) {
  SpanBuilder b;
  b.Observe(Req(0, TraceKind::kReqArrival, 1, 0));
  b.Observe(Req(10, TraceKind::kReqAttemptLaunch, 1, ReqArg(0, false), 1, 0));
  b.Observe(Req(20, TraceKind::kReqAttemptLaunch, 1, ReqArg(0, false), 2, 0));
  b.Observe(Req(90, TraceKind::kReqComplete, 1, ReqArg(0, false), 1, 0));
  b.Observe(Req(95, TraceKind::kReqComplete, 1, ReqArg(0, false), 1, 0));
  const RequestSpan s = b.Spans()[0];
  EXPECT_TRUE(s.partial);
  EXPECT_EQ(s.settle, 90);                // first settle wins
  EXPECT_EQ(s.attempts[0].launch, 10);    // first launch wins
  EXPECT_EQ(s.attempts[0].node, 1);
}

TEST(SpanBuilderTest, IgnoresNonClusterLayersAndNonRequestKinds) {
  SpanBuilder b;
  TraceRecord sim_layer = Req(0, TraceKind::kReqArrival, 1, 0);
  sim_layer.layer = static_cast<uint8_t>(TraceLayer::kSim);
  b.Observe(sim_layer);
  b.Observe(Req(0, TraceKind::kNodeCrash, 2, 0));         // kind 23: node-scoped
  b.Observe(Req(0, TraceKind::kDeferredOrphaned, 3, 0));  // kind 54: below the 60s
  EXPECT_EQ(b.observed(), 0u);
  EXPECT_EQ(b.num_requests(), 0u);
}

TEST(SpanBuilderTest, DeferredFinishThenDeliveryKeepsBothInstants) {
  SpanBuilder b;
  b.Observe(Req(0, TraceKind::kReqArrival, 3, 1));
  b.Observe(Req(10, TraceKind::kReqAttemptLaunch, 3, ReqArg(0, false), 7, 2));
  b.Observe(Req(200, TraceKind::kReqDeferredFinish, 3, ReqArg(0, false), 7, 2));
  b.Observe(Req(900, TraceKind::kReqComplete, 3, ReqArg(0, true), 7, 2));
  const RequestSpan s = b.Spans()[0];
  EXPECT_FALSE(s.partial);
  ASSERT_EQ(s.attempts.size(), 1u);
  EXPECT_TRUE(s.attempts[0].deferred);
  EXPECT_EQ(s.attempts[0].finish, 200);     // compute finished behind partition
  EXPECT_EQ(s.attempts[0].delivered, 900);  // delivery after heal
}

// --- LatencyAttributor -------------------------------------------------------

TEST(AttributionTest, ComponentsSumExactlyToEndToEndLatency) {
  SpanBuilder b;
  // Request 1: clean single attempt (fixes model 0's service floor at 90ns).
  b.Observe(Req(0, TraceKind::kReqArrival, 1, 0));
  b.Observe(Req(10, TraceKind::kReqAttemptLaunch, 1, ReqArg(0, false), 0, 0));
  b.Observe(Req(100, TraceKind::kReqComplete, 1, ReqArg(0, false), 0, 0));
  // Request 2: same model, timeout then retry with backoff, queued service.
  b.Observe(Req(1000, TraceKind::kReqArrival, 2, 0));
  b.Observe(Req(1010, TraceKind::kReqAttemptLaunch, 2, ReqArg(0, false), 1, 0));
  b.Observe(Req(1260, TraceKind::kReqAttemptTimeout, 2, ReqArg(0, false), 1, 0));
  b.Observe(Req(1400, TraceKind::kReqAttemptLaunch, 2, ReqArg(1, false), 2, 1));
  b.Observe(Req(1600, TraceKind::kReqComplete, 2, ReqArg(1, false), 2, 1));
  // Request 3: partial (no arrival) — must be skipped, not crash.
  b.Observe(Req(2000, TraceKind::kReqComplete, 3, ReqArg(0, false), 1, 0));

  LatencyAttributor attr;
  attr.Attribute(b.Spans());
  EXPECT_EQ(attr.stats().completed, 3u);
  EXPECT_EQ(attr.stats().partial, 1u);
  EXPECT_EQ(attr.stats().attributed, 2u);
  ASSERT_EQ(attr.attributions().size(), 2u);
  for (const Attribution& a : attr.attributions()) {
    int64_t sum = 0;
    for (int c = 0; c < kNumAttributionComponents; ++c) {
      sum += AttributionComponent(a, c);
    }
    EXPECT_EQ(sum, a.total) << "request " << a.id;
  }
  // Request 2 end-to-end: 1600 - 1000 = 600ns total, exact.
  EXPECT_EQ(attr.attributions()[1].total, 600);
  EXPECT_EQ(attr.service_floor_ns()[0], 90);
}

TEST(AttributionTest, TablesAreDeterministicForIdenticalSpans) {
  auto build = [] {
    SpanBuilder b;
    for (uint64_t id = 0; id < 40; ++id) {
      const int model = static_cast<int>(id % 3);
      const int64_t t0 = static_cast<int64_t>(id) * 1000;
      b.Observe(Req(t0, TraceKind::kReqArrival, id, model));
      b.Observe(Req(t0 + 7, TraceKind::kReqAttemptLaunch, id, ReqArg(0, false),
                    static_cast<int>(id % 5), static_cast<int>(id % 2)));
      b.Observe(Req(t0 + 7 + 50 * (model + 1) + static_cast<int64_t>(id % 4),
                    TraceKind::kReqComplete, id, ReqArg(0, false),
                    static_cast<int>(id % 5), static_cast<int>(id % 2)));
    }
    LatencyAttributor attr;
    attr.Attribute(b.Spans());
    return FormatAttributionTables(attr);
  };
  const std::string a = build();
  const std::string b = build();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical, same property the CI cmp gates
}

// --- Metrics primitives the detector rides on --------------------------------

TEST(MetricsTest, EwmaWarmupAndConvergence) {
  Ewma e(0.5);
  EXPECT_FALSE(e.warm(1));
  e.Observe(10.0);
  EXPECT_EQ(e.value(), 10.0);  // first sample adopted outright
  e.Observe(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
  EXPECT_TRUE(e.warm(2));
}

TEST(MetricsTest, TimeSeriesWindowsStaySparse) {
  TimeSeries ts(100);
  ts.Observe(10, 1.0);
  ts.Observe(90, 3.0);
  ts.Observe(950, 7.0);  // windows 1..8 never observed: not materialized
  ASSERT_EQ(ts.windows().size(), 2u);
  EXPECT_EQ(ts.windows()[0].index, 0);
  EXPECT_EQ(ts.windows()[0].count, 2u);
  EXPECT_EQ(ts.windows()[0].sum, 4.0);
  EXPECT_EQ(ts.windows()[0].max, 3.0);
  EXPECT_EQ(ts.windows()[1].index, 9);
  EXPECT_EQ(ts.total_count(), 3u);
}

// --- GrayNodeDetector --------------------------------------------------------

// Synthetic-feed harness: one model, `nodes` nodes split across `zones`
// zones round-robin. Each Step() advances one window where node n completes
// `completions[n]` requests at `mean_latency_ns[n]` each.
struct FeedSim {
  int nodes;
  int zones;
  DetectorFeed feed;
  GrayNodeDetector detector;
  TimeNs now = 0;

  FeedSim(int nodes_in, int zones_in, DetectorConfig cfg = DetectorConfig())
      : nodes(nodes_in),
        zones(zones_in),
        detector(cfg, nodes_in, /*num_models=*/1, zones_in, ZoneMap(nodes_in, zones_in)) {
    feed.node_attempts.assign(static_cast<size_t>(nodes), 0);
    feed.node_completions.assign(static_cast<size_t>(nodes), 0);
    feed.node_timeouts.assign(static_cast<size_t>(nodes), 0);
    feed.pair_completions.assign(static_cast<size_t>(nodes), 0);
    feed.pair_latency_ns.assign(static_cast<size_t>(nodes), 0);
  }

  static std::vector<int> ZoneMap(int nodes, int zones) {
    std::vector<int> zone_of(static_cast<size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      zone_of[static_cast<size_t>(n)] = n % zones;
    }
    return zone_of;
  }

  void Step(const std::vector<uint64_t>& completions,
            const std::vector<int64_t>& mean_latency_ns,
            const std::vector<uint8_t>& timeouts = {},
            const std::vector<uint8_t>& down = {}) {
    for (int n = 0; n < nodes; ++n) {
      const size_t ni = static_cast<size_t>(n);
      const uint64_t c = completions[ni];
      feed.node_completions[ni] += c;
      feed.pair_completions[ni] += c;
      feed.pair_latency_ns[ni] +=
          static_cast<int64_t>(c) * mean_latency_ns[ni];
      const uint64_t t = timeouts.empty() ? 0 : timeouts[ni];
      feed.node_attempts[ni] += c + t;
      feed.node_timeouts[ni] += t;
    }
    now += DetectorConfig().window;
    detector.Tick(now, feed,
                  down.empty() ? std::vector<uint8_t>(static_cast<size_t>(nodes), 0)
                               : down);
  }
};

TEST(DetectorTest, StragglerFlaggedOncePerEpisodeAndRearms) {
  FeedSim sim(16, 2);
  std::vector<uint64_t> c(16, 6);
  std::vector<int64_t> healthy(16, 1000000);  // 1ms everywhere
  sim.Step(c, healthy);  // model baseline sample 1
  sim.Step(c, healthy);  // sample 2: warm after this
  std::vector<int64_t> straggling = healthy;
  straggling[3] = 2000000;  // node 3 at 2x: ratio 2.0 vs peer median 1.0
  sim.Step(c, straggling);
  ASSERT_EQ(sim.detector.verdicts().size(), 1u);
  const Verdict& v = sim.detector.verdicts()[0];
  EXPECT_EQ(v.kind, Verdict::Kind::kStraggler);
  EXPECT_EQ(v.node, 3);
  EXPECT_EQ(v.zone, 3 % 2);
  EXPECT_NEAR(v.score, 2.0, 0.2);
  // Still straggling: same episode, no second verdict.
  sim.Step(c, straggling);
  sim.Step(c, straggling);
  EXPECT_EQ(sim.detector.verdicts().size(), 1u);
  // Healthy for two windows (the clear rule), then a relapse: a new episode, new verdict.
  sim.Step(c, healthy);
  sim.Step(c, healthy);
  sim.Step(c, straggling);
  EXPECT_EQ(sim.detector.verdicts().size(), 2u);
}

TEST(DetectorTest, FleetWideSurgeDoesNotAlarm) {
  // Every node doubles its latency at once (a load spike / retry storm):
  // the peer median doubles too, so nobody is an outlier.
  FeedSim sim(16, 2);
  std::vector<uint64_t> c(16, 6);
  std::vector<int64_t> healthy(16, 1000000);
  sim.Step(c, healthy);
  sim.Step(c, healthy);
  std::vector<int64_t> surged(16, 2000000);
  sim.Step(c, surged);
  sim.Step(c, surged);
  EXPECT_TRUE(sim.detector.verdicts().empty());
}

TEST(DetectorTest, SparseNodesAreNeverJudged) {
  FeedSim sim(16, 2);
  std::vector<uint64_t> c(16, 6);
  std::vector<int64_t> healthy(16, 1000000);
  sim.Step(c, healthy);
  sim.Step(c, healthy);
  // Node 5 slows 10x but lands only 2 completions (below the 4 a node needs to be judged).
  std::vector<uint64_t> sparse = c;
  sparse[5] = 2;
  std::vector<int64_t> slow = healthy;
  slow[5] = 10000000;
  sim.Step(sparse, slow);
  EXPECT_TRUE(sim.detector.verdicts().empty());
}

TEST(DetectorTest, PartitionSilenceFlagsZoneAndCooldownSuppressesStragglers) {
  FeedSim sim(16, 2);
  std::vector<uint64_t> c(16, 6);
  std::vector<int64_t> healthy(16, 1000000);
  sim.Step(c, healthy);
  sim.Step(c, healthy);
  sim.Step(c, healthy);
  // Zone 1 (odd nodes) goes completely silent, nothing announced down.
  std::vector<uint64_t> silent = c;
  for (int n = 1; n < 16; n += 2) silent[static_cast<size_t>(n)] = 0;
  sim.Step(silent, healthy);
  ASSERT_EQ(sim.detector.verdicts().size(), 1u);
  EXPECT_EQ(sim.detector.verdicts()[0].kind, Verdict::Kind::kPartition);
  EXPECT_EQ(sim.detector.verdicts()[0].zone, 1);
  // Heal: traffic resumes with drain-inflated latency on zone 1's nodes.
  // Cooldown exempts them from straggler verdicts; zone 0 stays judged.
  std::vector<int64_t> draining = healthy;
  for (int n = 1; n < 16; n += 2) draining[static_cast<size_t>(n)] = 3000000;
  sim.Step(c, draining);
  sim.Step(c, draining);
  EXPECT_EQ(sim.detector.verdicts().size(), 1u);
}

TEST(DetectorTest, AnnouncedOutageIsNotAPartition) {
  FeedSim sim(16, 2);
  std::vector<uint64_t> c(16, 6);
  std::vector<int64_t> healthy(16, 1000000);
  sim.Step(c, healthy);
  sim.Step(c, healthy);
  sim.Step(c, healthy);
  // Zone 1 silent because its nodes crashed — and the crash is announced.
  std::vector<uint64_t> silent = c;
  std::vector<uint8_t> down(16, 0);
  for (int n = 1; n < 16; n += 2) {
    silent[static_cast<size_t>(n)] = 0;
    down[static_cast<size_t>(n)] = 1;
  }
  sim.Step(silent, healthy, {}, down);
  EXPECT_TRUE(sim.detector.verdicts().empty());
}

TEST(DetectorTest, MetastableThrashNeedsASustainedStreak) {
  FeedSim sim(8, 2);
  std::vector<uint64_t> c(8, 6);
  std::vector<int64_t> healthy(8, 1000000);
  std::vector<uint8_t> thrash(8, 0);
  thrash[2] = 12;  // 12 timeouts vs 6 completions: ratio 0.67 >= 0.5
  sim.Step(c, healthy, thrash);
  sim.Step(c, healthy, thrash);
  EXPECT_TRUE(sim.detector.verdicts().empty());  // streak of 2 < 3
  sim.Step(c, healthy, thrash);
  ASSERT_EQ(sim.detector.verdicts().size(), 1u);
  EXPECT_EQ(sim.detector.verdicts()[0].kind, Verdict::Kind::kMetastable);
  EXPECT_EQ(sim.detector.verdicts()[0].node, 2);
}

// --- ScoreDetector -----------------------------------------------------------

TEST(ScoreDetectorTest, MatchesByKindTargetAndWindow) {
  const DurationNs w = FromMillis(250);
  std::vector<TruthSpan> truth = {
      {Verdict::Kind::kStraggler, /*node=*/3, -1, FromMillis(1000), FromMillis(2000)},
      {Verdict::Kind::kPartition, -1, /*zone=*/1, FromMillis(3000), FromMillis(4000)},
      {Verdict::Kind::kStraggler, /*node=*/9, -1, FromMillis(5000), FromMillis(6000)},
  };
  std::vector<Verdict> verdicts(4);
  verdicts[0] = {FromMillis(1250), Verdict::Kind::kStraggler, 3, 0, 0, 2.0};
  verdicts[1] = {FromMillis(3500), Verdict::Kind::kPartition, -1, 1, -1, 40.0};
  verdicts[2] = {FromMillis(1250), Verdict::Kind::kStraggler, 7, 0, 0, 1.9};  // wrong node
  verdicts[3] = {FromMillis(9000), Verdict::Kind::kStraggler, 9, 1, 0, 1.7};  // too late
  const DetectorScore s = ScoreDetector(verdicts, truth, w, /*grace=*/2 * w);
  EXPECT_EQ(s.scored_verdicts, 4u);
  EXPECT_EQ(s.matched_verdicts, 2u);
  EXPECT_EQ(s.detected_spans, 2u);
  EXPECT_DOUBLE_EQ(s.precision, 0.5);
  EXPECT_DOUBLE_EQ(s.recall, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.median_ttd_windows, 2.0);  // ttds {1.0, 2.0}, upper median
}

TEST(ScoreDetectorTest, EmptyDenominatorsScorePerfect) {
  const DetectorScore s = ScoreDetector({}, {}, FromMillis(250), FromMillis(500));
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
}

TEST(ScoreDetectorTest, MetastableVerdictsAreUnscored) {
  std::vector<Verdict> verdicts(1);
  verdicts[0] = {FromMillis(100), Verdict::Kind::kMetastable, 2, 0, -1, 0.8};
  const DetectorScore s = ScoreDetector(verdicts, {}, FromMillis(250), 0);
  EXPECT_EQ(s.scored_verdicts, 0u);
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
}

// --- End-to-end: scenario with online spans + detection ----------------------

FleetFaultConfig DetectScenario(SpanBuilder* spans, TraceRecorder* trace) {
  FleetFaultConfig config;
  config.cluster.policy = PlacementPolicy::kRoundRobin;
  config.cluster.system = SystemKind::kMps;
  config.cluster.num_nodes = 32;
  config.cluster.num_zones = 4;
  config.cluster.aggregate_rps = 800.0;
  config.cluster.seed = 7;
  config.faults.name = "span-e2e";
  config.faults.seed = 11;
  config.faults.partitions = {{/*zone=*/1, FromMillis(1200), FromMillis(600)}};
  config.phases = {{"pre", FromMillis(500), FromMillis(1200)},
                   {"during", FromMillis(1200), FromMillis(1800)},
                   {"post", FromMillis(1800), FromMillis(2500)}};
  config.detect = true;
  config.detector.window = FromMillis(250);
  config.spans = spans;
  config.trace = trace;
  return config;
}

TEST(SpanScenarioTest, OnlineSpansMatchOfflineReplayAndRunsAreIdentical) {
  // Run 1: online span sink + binary trace.
  TraceRecorder trace1(0);
  SpanBuilder online1;
  const FleetFaultResult r1 = RunFleetFaultScenario(DetectScenario(&online1, &trace1));
  // Offline replay of the same run's trace must assemble identical spans.
  SpanBuilder offline;
  offline.ObserveAll(trace1.Records());
  LatencyAttributor attr_online, attr_offline;
  attr_online.Attribute(online1.Spans());
  attr_offline.Attribute(offline.Spans());
  EXPECT_GT(attr_online.stats().completed, 0u);
  EXPECT_EQ(attr_online.stats().completed, attr_offline.stats().completed);
  EXPECT_EQ(attr_online.stats().attributed, attr_offline.stats().attributed);
  EXPECT_EQ(FormatAttributionTables(attr_online), FormatAttributionTables(attr_offline));

  // Run 2, same config: detector verdicts and tables byte-identical.
  TraceRecorder trace2(0);
  SpanBuilder online2;
  const FleetFaultResult r2 = RunFleetFaultScenario(DetectScenario(&online2, &trace2));
  EXPECT_EQ(r1.detector_lines, r2.detector_lines);
  EXPECT_EQ(r1.detector_ticks, r2.detector_ticks);
  LatencyAttributor attr2;
  attr2.Attribute(online2.Spans());
  EXPECT_EQ(FormatAttributionTables(attr_online), FormatAttributionTables(attr2));

  // The injected partition is in the ground truth and the detector's ticks
  // covered the horizon (2500ms / 250ms = 10 windows).
  EXPECT_EQ(r1.detector_ticks, 10);
  bool has_partition_truth = false;
  for (const GroundTruthSpan& g : r1.ground_truth) {
    has_partition_truth |= g.kind == FaultKind::kPartitionStart && g.zone == 1;
  }
  EXPECT_TRUE(has_partition_truth);
}

}  // namespace
}  // namespace lithos
