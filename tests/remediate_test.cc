// RemediationController edges: deterministic blast-radius deferral ordering,
// the min-healthy-capacity floor, false-positive rollback restoring the
// pre-action placement, and flap-damping re-arm backoff.
//
// All scenarios use synthetic injected verdicts (RemediationConfig::inject)
// on healthy fleets with the real detector's straggler bar pushed out of
// reach, so every action under test is scripted and the timeline is exact.
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "src/fault/scenario.h"

namespace lithos {
namespace {

// A quiet zoned fleet: low load, resilient dispatch on, detector ticking but
// effectively disabled so only injected verdicts drive the remediation
// controller.
FleetFaultConfig QuietScenario(int num_zones, int nodes_per_zone) {
  FleetFaultConfig config;
  config.cluster.num_nodes = num_zones * nodes_per_zone;
  config.cluster.num_zones = num_zones;
  config.cluster.system = SystemKind::kMps;
  config.cluster.aggregate_rps = 400.0;
  config.cluster.seed = 7;
  config.cluster.resilience.enabled = true;
  config.phases = {{"run", FromMillis(500), FromSeconds(8)}};
  config.detect = true;
  config.detector.window = FromMillis(250);
  config.detector.straggler_inflation = 10.0;  // real verdicts out of reach
  config.remediate = true;
  return config;
}

RemediationConfig::InjectedVerdict Inject(TimeNs at, int node, double score) {
  RemediationConfig::InjectedVerdict inj;
  inj.at = at;
  inj.node = node;
  inj.score = score;
  return inj;
}

std::vector<RemedyEvent> EventsOf(const FleetFaultResult& result,
                                  RemedyAction action) {
  std::vector<RemedyEvent> out;
  for (const RemedyEvent& event : result.remedy_events) {
    if (event.action == action) {
      out.push_back(event);
    }
  }
  return out;
}

// Three drain-worthy verdicts in three zones arrive at the same tick under a
// fleet-wide cap of one concurrent drain: the first drains immediately, the
// other two defer and then retry in strict FIFO order as each drain hold
// releases — node order and timestamps are exact, run after run.
TEST(RemediateGovernorTest, DeferralsRetryInFifoOrder) {
  FleetFaultConfig config = QuietScenario(4, 3);
  config.remediation.max_drains_fleet = 1;
  config.remediation.max_drains_per_zone = 1;
  config.remediation.drain_score = 2.0;
  // Long quarantines keep the deferred nodes out of probation (no rollback
  // path in this test); the drain retries land while they are quarantined.
  config.remediation.quarantine_window = FromSeconds(10);
  config.remediation.inject = {Inject(FromSeconds(1), 1, 9.0),
                               Inject(FromSeconds(1), 4, 9.0),
                               Inject(FromSeconds(1), 7, 9.0)};
  const FleetFaultResult result = RunFleetFaultScenario(config);

  EXPECT_EQ(result.remedy_quarantines, 3u);
  EXPECT_EQ(result.remedy_drains, 3u);
  EXPECT_EQ(result.remedy_deferrals, 2u);
  EXPECT_EQ(result.remedy_peak_fleet_drains, 1);
  EXPECT_EQ(result.remedy_peak_zone_drains, 1);

  // Deferrals recorded in delivery order, both on the fleet cap.
  const std::vector<RemedyEvent> defers = EventsOf(result, RemedyAction::kDefer);
  ASSERT_EQ(defers.size(), 2u);
  EXPECT_EQ(defers[0].node, 4);
  EXPECT_EQ(defers[1].node, 7);
  EXPECT_EQ(defers[0].detail,
            static_cast<double>(RemedyDeferReason::kFleetCap));
  EXPECT_EQ(defers[1].detail,
            static_cast<double>(RemedyDeferReason::kFleetCap));

  // Drains issue in injection order: node 1 at the verdict tick, node 4 when
  // node 1's hold releases, node 7 one hold later — FIFO, never reordered.
  const std::vector<RemedyEvent> drains = EventsOf(result, RemedyAction::kDrain);
  ASSERT_EQ(drains.size(), 3u);
  EXPECT_EQ(drains[0].node, 1);
  EXPECT_EQ(drains[1].node, 4);
  EXPECT_EQ(drains[2].node, 7);
  EXPECT_EQ(drains[0].at, FromSeconds(1));
  EXPECT_EQ(drains[1].at, FromSeconds(1) + RemediationController::kDrainHold);
  EXPECT_EQ(drains[2].at, FromSeconds(1) + 2 * RemediationController::kDrainHold);
}

// With the min-healthy-capacity floor set above what the remaining nodes
// could carry, the governor refuses the drain outright: the node keeps its
// rung-1 quarantine (mitigation without capacity loss) and the deferred
// drain never lands.
TEST(RemediateGovernorTest, CapacityFloorBlocksDrainInSmallFleet) {
  FleetFaultConfig config = QuietScenario(1, 4);
  config.remediation.drain_score = 2.0;
  config.remediation.quarantine_window = FromSeconds(10);
  // Floor far above the 3-node capacity left after the drain: any
  // capacity-removing action on this fleet must defer.
  config.remediation.min_capacity_factor = 1000.0;
  config.remediation.max_drains_per_zone = 4;
  config.remediation.inject = {Inject(FromSeconds(1), 1, 9.0)};
  const FleetFaultResult result = RunFleetFaultScenario(config);

  EXPECT_EQ(result.remedy_quarantines, 1u);
  EXPECT_EQ(result.remedy_drains, 0u);
  EXPECT_EQ(result.remedy_restarts, 0u);
  EXPECT_EQ(result.remedy_peak_fleet_drains, 0);
  ASSERT_GE(result.remedy_deferrals, 1u);
  const std::vector<RemedyEvent> defers = EventsOf(result, RemedyAction::kDefer);
  ASSERT_EQ(defers.size(), 1u);
  EXPECT_EQ(defers[0].node, 1);
  EXPECT_EQ(defers[0].detail,
            static_cast<double>(RemedyDeferReason::kCapacityFloor));
}

// After a rollback the node is re-arm damped: verdicts inside the backoff
// window are ignored entirely (no action, no strike), and the first verdict
// after it acts again.
TEST(RemediateFlapTest, RollbackBacksOffRearm) {
  FleetFaultConfig config = QuietScenario(4, 3);
  config.remediation.quarantine_window = FromMillis(1000);
  config.remediation.strike_window = FromMillis(1);  // isolate damping
  // Timeline: quarantine [1s, 2s), probation [2s, 3s), rollback at 3s,
  // re-armed at 5s. The 3.5s verdict is damped; the 5.5s verdict acts and
  // runs its own clean arc to a second rollback at 7.5s.
  config.remediation.inject = {Inject(FromSeconds(1), 5, 1.5),
                               Inject(FromMillis(3500), 5, 1.5),
                               Inject(FromMillis(5500), 5, 1.5)};
  const FleetFaultResult result = RunFleetFaultScenario(config);

  EXPECT_EQ(result.remedy_rollbacks, 2u);
  EXPECT_EQ(result.remedy_synthetic_rollbacks, 2u);
  EXPECT_EQ(result.remedy_quarantines, 2u);  // damped verdict took no action

  const std::vector<RemedyEvent> quarantines =
      EventsOf(result, RemedyAction::kQuarantine);
  ASSERT_EQ(quarantines.size(), 2u);
  EXPECT_EQ(quarantines[0].at, FromSeconds(1));
  EXPECT_EQ(quarantines[1].at, FromMillis(5500));
  const std::vector<RemedyEvent> rollbacks =
      EventsOf(result, RemedyAction::kRollback);
  ASSERT_EQ(rollbacks.size(), 2u);
  EXPECT_EQ(rollbacks[0].at, FromSeconds(3));
  EXPECT_EQ(rollbacks[1].at, FromMillis(7500));
  EXPECT_TRUE(rollbacks[0].synthetic);
  // Synthetic verdicts have no detector entry to demote.
  EXPECT_EQ(rollbacks[0].detail, -1.0);
}

// --- Placement restoration under rollback ------------------------------------

struct PlacementSnapshot {
  std::vector<std::vector<int>> replicas;  // model -> sorted replica nodes
  std::vector<bool> enabled;               // node -> in rotation
  std::vector<bool> quarantined;           // node -> quarantine active

  static PlacementSnapshot Of(const ClusterDispatcher& fleet) {
    PlacementSnapshot snap;
    const int num_models = static_cast<int>(fleet.models().size());
    for (int m = 0; m < num_models; ++m) {
      snap.replicas.push_back(fleet.placer().ReplicaNodes(m));
    }
    for (int n = 0; n < fleet.config().num_nodes; ++n) {
      snap.enabled.push_back(fleet.placer().NodeEnabled(n));
      snap.quarantined.push_back(fleet.NodeQuarantined(n));
    }
    return snap;
  }
};

// An injected false positive on a model-affinity fleet: the quarantine is
// the only action (score below the drain rung), the probation runs clean,
// and the rollback leaves the placement — replica sets, enabled bits,
// quarantine books — byte-identical to the pre-action state.
TEST(RemediateRollbackTest, FalsePositiveRollbackRestoresPlacement) {
  FleetFaultConfig base = QuietScenario(4, 3);
  base.cluster.policy = PlacementPolicy::kModelAffinity;

  const TimeNs horizon = base.phases.back().end;
  Simulator sim;
  ClusterDispatcher fleet(&sim, base.cluster);

  FleetController controller(&sim, &fleet, FaultScenarioControl(base.cluster));

  std::vector<int> node_zone(static_cast<size_t>(base.cluster.num_nodes));
  for (int n = 0; n < base.cluster.num_nodes; ++n) {
    node_zone[static_cast<size_t>(n)] = fleet.ZoneOfNode(n);
  }
  GrayNodeDetector detector(base.detector, base.cluster.num_nodes,
                            static_cast<int>(fleet.models().size()),
                            base.cluster.num_zones, std::move(node_zone),
                            &fleet.metrics());

  RemediationConfig remediation;
  remediation.inject = {Inject(FromSeconds(1), 5, 1.5)};  // below drain_score
  RemediationController remedy(&sim, &fleet, &controller, &detector,
                               remediation);

  const PlacementSnapshot before = PlacementSnapshot::Of(fleet);

  // The scenario driver's tick loop: detector then remediation, every
  // window, on the simulator clock.
  std::function<void(TimeNs)> tick = [&](TimeNs at) {
    if (at > horizon) {
      return;
    }
    sim.ScheduleAt(at, [&, at] {
      std::vector<uint8_t> known_down(
          static_cast<size_t>(base.cluster.num_nodes), 0);
      detector.Tick(at, fleet.detector_feed(), known_down);
      remedy.Tick(at);
      tick(at + base.detector.window);
    });
  };
  tick(base.detector.window);
  fleet.StartArrivals(horizon);
  controller.Start(horizon);
  sim.RunUntil(horizon);

  // The false positive ran the full quarantine -> probation -> rollback arc.
  EXPECT_EQ(remedy.quarantines(), 1u);
  EXPECT_EQ(remedy.drains(), 0u);
  EXPECT_EQ(remedy.rollbacks(), 1u);
  EXPECT_EQ(remedy.synthetic_rollbacks(), 1u);

  const PlacementSnapshot after = PlacementSnapshot::Of(fleet);
  EXPECT_EQ(after.replicas, before.replicas);
  EXPECT_EQ(after.enabled, before.enabled);
  EXPECT_EQ(after.quarantined, before.quarantined);
  EXPECT_FALSE(fleet.NodeQuarantined(5));
}

// The whole remediation pipeline is a pure function of its config: two runs
// of a remediating scenario produce identical action logs, counters, and
// phase metrics.
TEST(RemediateDeterminismTest, ActionLogIsByteIdenticalAcrossRuns) {
  FleetFaultConfig config = QuietScenario(4, 3);
  config.remediation.max_drains_fleet = 1;
  config.remediation.drain_score = 2.0;
  config.remediation.inject = {Inject(FromSeconds(1), 1, 9.0),
                               Inject(FromSeconds(1), 4, 9.0)};
  const FleetFaultResult a = RunFleetFaultScenario(config);
  const FleetFaultResult b = RunFleetFaultScenario(config);
  EXPECT_EQ(a.remedy_lines, b.remedy_lines);
  EXPECT_EQ(a.remedy_actions, b.remedy_actions);
  EXPECT_EQ(a.remedy_deferrals, b.remedy_deferrals);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].completed, b.phases[i].completed);
    EXPECT_EQ(a.phases[i].p99_ms, b.phases[i].p99_ms);
  }
}

}  // namespace
}  // namespace lithos
