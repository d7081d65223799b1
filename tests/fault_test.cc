// Fault-layer tests: zone topology and hierarchical placement, crash/revive
// semantics at the dispatcher, restore-only recovery through the controller,
// and the deterministic-replay contract — same seed, field-identical fault
// schedule and byte-identical cluster/fault trace layers across runs and
// SweepRunner --jobs values.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/autoscale/fleet_controller.h"
#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/experiments/sweep.h"
#include "src/fault/fault_injector.h"
#include "src/fault/scenario.h"
#include "src/obs/trace.h"

namespace lithos {
namespace {

ClusterConfig ZonedConfig(int num_zones, int nodes_per_zone,
                          PlacementPolicy policy = PlacementPolicy::kModelAffinity) {
  ClusterConfig config;
  config.policy = policy;
  config.system = SystemKind::kMps;  // passive backend keeps fleet tests fast
  config.num_nodes = num_zones * nodes_per_zone;
  config.num_zones = num_zones;
  config.aggregate_rps = 400.0;
  config.seed = 7;
  return config;
}

// Field-by-field schedule equality: the exact clock factor, not a rendering.
bool SameSchedule(const std::vector<FaultEvent>& a, const std::vector<FaultEvent>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].at != b[i].at || a[i].kind != b[i].kind || a[i].zone != b[i].zone ||
        a[i].node != b[i].node || a[i].rack != b[i].rack || a[i].factor != b[i].factor) {
      return false;
    }
  }
  return true;
}

FleetFaultConfig OutageScenario(int num_zones, int nodes_per_zone) {
  FleetFaultConfig config;
  config.cluster = ZonedConfig(num_zones, nodes_per_zone);
  config.faults.name = "zone-outage";
  config.faults.seed = 11;
  config.faults.zone_outages = {{/*zone=*/0, FromSeconds(2), FromSeconds(1)}};
  config.phases = {{"pre", FromSeconds(1), FromSeconds(2)},
                   {"during", FromSeconds(2), FromSeconds(3)},
                   {"post", FromMillis(3500), FromMillis(5500)}};
  return config;
}

// Runs the scenario with a binary trace restricted to the cluster and fault
// layers — the fleet's one event log: applied faults, crashes, partitions,
// recoveries, migrations, and the request lifecycle.
struct TracedRun {
  FleetFaultResult result;
  std::vector<TraceRecord> events;
  std::string bytes;  // the serialized trace, for byte-identity checks
};

TracedRun RunTraced(FleetFaultConfig config) {
  TraceRecorder trace(0);
  trace.SetLayerMask(TraceRecorder::LayerBit(TraceLayer::kCluster) |
                     TraceRecorder::LayerBit(TraceLayer::kFault));
  config.trace = &trace;
  TracedRun run;
  run.result = RunFleetFaultScenario(config);
  run.events = trace.Records();
  const std::vector<uint8_t> bytes = trace.Serialize();
  run.bytes.assign(bytes.begin(), bytes.end());
  return run;
}

size_t CountKind(const std::vector<TraceRecord>& events, TraceKind kind) {
  size_t count = 0;
  for (const TraceRecord& r : events) {
    count += r.kind == static_cast<uint8_t>(kind) ? 1 : 0;
  }
  return count;
}

// --- Zone topology and hierarchical placement --------------------------------

TEST(ZoneTest, TopologyPartitionsNodes) {
  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(4, 3));
  const ZoneTopology& topo = fleet.zone_topology();
  ASSERT_EQ(fleet.num_zones(), 4);
  ASSERT_EQ(topo.NumNodes(), 12);
  for (int z = 0; z < 4; ++z) {
    EXPECT_EQ(topo.ZoneBegin(z), 3 * z);
    EXPECT_EQ(topo.ZoneEnd(z) - topo.ZoneBegin(z), 3);
    for (int n = topo.ZoneBegin(z); n < topo.ZoneEnd(z); ++n) {
      EXPECT_EQ(topo.ZoneOf(n), z);
      EXPECT_EQ(fleet.ZoneOfNode(n), z);
    }
  }
}

TEST(ZoneTest, ZoneInterleaveRoundRobinsAcrossZones) {
  ZoneTopology topo;
  topo.num_zones = 3;
  topo.zone_size = 2;
  const std::vector<int> order = ZoneInterleave({0, 1, 2, 3, 4, 5}, topo);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 1, 3, 5}));
  // Subsets keep the round-robin shape.
  EXPECT_EQ(ZoneInterleave({0, 1, 4}, topo), (std::vector<int>{0, 4, 1}));
}

TEST(ZoneTest, ZonedPackingSpreadsHotModelsAcrossZones) {
  Simulator sim;
  ClusterConfig config = ZonedConfig(4, 8);
  config.aggregate_rps = 2000.0;  // hot head models need several replicas
  ClusterDispatcher fleet(&sim, config);
  EXPECT_EQ(fleet.placer().Name(), "model-affinity");

  // The most popular model's replicas must span more than one failure
  // domain, so a whole-zone outage leaves live copies elsewhere.
  const std::vector<int>& replicas = fleet.placer().ReplicaNodes(0);
  ASSERT_GT(replicas.size(), 1u);
  std::set<int> zones;
  for (int node : replicas) {
    zones.insert(fleet.ZoneOfNode(node));
  }
  EXPECT_GT(zones.size(), 1u);
}

TEST(ZoneTest, ZonedPlacerRoutesAroundDeadZone) {
  Simulator sim;
  ClusterConfig config = ZonedConfig(4, 4);
  ClusterDispatcher fleet(&sim, config);
  const ZoneTopology& topo = fleet.zone_topology();
  for (int n = topo.ZoneBegin(0); n < topo.ZoneEnd(0); ++n) {
    fleet.FailNode(n);
  }
  for (int n = topo.ZoneBegin(0); n < topo.ZoneEnd(0); ++n) {
    EXPECT_TRUE(fleet.NodeFailed(n)) << "node " << n;
  }
  EXPECT_EQ(fleet.failed_node_count(), 4);

  // Every model stays routable, and nothing routes into the dead zone.
  for (int m = 0; m < static_cast<int>(fleet.models().size()); ++m) {
    const int node = fleet.Dispatch(m);
    EXPECT_GE(node, 4) << "model " << m << " routed into the failed zone";
  }
  sim.RunToCompletion();
}

// --- Crash semantics ---------------------------------------------------------

TEST(FaultTest, CrashWritesOffInFlightWork) {
  Simulator sim;
  ClusterConfig config = ZonedConfig(2, 2, PlacementPolicy::kLeastLoaded);
  ClusterDispatcher fleet(&sim, config);

  // Put two requests in flight (least-loaded spreads them over two nodes),
  // then crash both hosts before either completes.
  const int victim = fleet.Dispatch(0);
  const int other = fleet.Dispatch(0);
  ASSERT_NE(victim, other);
  EXPECT_GT(fleet.outstanding_ms()[victim], 0.0);
  EXPECT_GT(fleet.zone_outstanding_ms()[fleet.ZoneOfNode(victim)], 0.0);

  fleet.FailNode(victim);
  fleet.FailNode(other);
  EXPECT_TRUE(fleet.NodeFailed(victim));
  EXPECT_FALSE(fleet.NodeActive(victim));
  EXPECT_EQ(fleet.outstanding_ms()[victim], 0.0);
  EXPECT_EQ(fleet.outstanding_ms()[other], 0.0);
  for (double zone_ms : fleet.zone_outstanding_ms()) {
    EXPECT_EQ(zone_ms, 0.0);
  }

  sim.RunToCompletion();
  EXPECT_EQ(fleet.completed(), 0u);
  EXPECT_EQ(fleet.failed(), 2u);

  // Revive: the nodes stay out of rotation until a controller re-adds them.
  fleet.ReviveNode(victim);
  fleet.ReviveNode(other);
  EXPECT_FALSE(fleet.NodeFailed(victim));
  EXPECT_FALSE(fleet.NodeActive(victim));
  EXPECT_EQ(fleet.failed_node_count(), 0);
}

TEST(FaultTest, FailNodeCountsDownCauses) {
  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(2, 2));
  fleet.FailNode(1);
  fleet.FailNode(1);
  EXPECT_EQ(fleet.failed_node_count(), 1);
  fleet.ReviveNode(1);  // one of two causes repaired: still down
  EXPECT_TRUE(fleet.NodeFailed(1));
  EXPECT_EQ(fleet.failed_node_count(), 1);
  fleet.ReviveNode(1);
  EXPECT_FALSE(fleet.NodeFailed(1));
  EXPECT_EQ(fleet.failed_node_count(), 0);
  fleet.ReviveNode(1);  // an extra revive is a no-op and banks nothing
  fleet.FailNode(1);
  EXPECT_TRUE(fleet.NodeFailed(1));

  // Partitions count their causes the same way.
  fleet.PartitionNode(2);
  fleet.PartitionNode(2);
  fleet.HealNode(2);
  EXPECT_TRUE(fleet.NodePartitioned(2));
  fleet.HealNode(2);
  EXPECT_FALSE(fleet.NodePartitioned(2));
  fleet.HealNode(2);
  EXPECT_EQ(fleet.partitioned_node_count(), 0);
}

TEST(FaultTest, NodeStaysDownUntilEveryCauseIsRepaired) {
  // A forced restart (FailNode at 50 ms, ReviveNode at 400 ms, as the
  // remediation controller issues it) overlaps a scripted zone-0 outage
  // from 100 ms. Whichever cause ends first, the node stays down until the
  // other one ends too.
  for (const DurationNs outage : {FromMillis(1000), FromMillis(100)}) {
    SCOPED_TRACE(outage == FromMillis(1000) ? "restart ends inside the outage"
                                            : "outage ends inside the restart");
    Simulator sim;
    ClusterDispatcher fleet(&sim, ZonedConfig(2, 2));
    FaultScenarioConfig scenario;
    scenario.zone_outages = {{/*zone=*/0, FromMillis(100), outage}};
    FaultInjector injector(&sim, &fleet, scenario);
    injector.Arm();
    constexpr int node = 0;
    sim.ScheduleAt(FromMillis(50), [&fleet] { fleet.FailNode(node); });
    sim.ScheduleAt(FromMillis(400), [&fleet] { fleet.ReviveNode(node); });

    sim.RunUntil(FromMillis(300));
    EXPECT_TRUE(fleet.NodeFailed(node));
    sim.RunUntil(FromMillis(500));
    EXPECT_EQ(fleet.NodeFailed(node), FromMillis(100) + outage > FromMillis(500));
    sim.RunUntil(FromMillis(1200));
    EXPECT_FALSE(fleet.NodeFailed(node));
    EXPECT_EQ(fleet.failed_node_count(), 0);
  }
}

TEST(FaultTest, MigrateOffCrashedNodeChargesRestoreOnly) {
  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(2, 2));
  // Find a model hosted on node 0 and a survivor not hosting it.
  int model = -1;
  for (int m = 0; m < static_cast<int>(fleet.models().size()); ++m) {
    const std::vector<int>& replicas = fleet.placer().ReplicaNodes(m);
    if (replicas.size() == 1 && replicas[0] == 0) {
      model = m;
      break;
    }
  }
  ASSERT_GE(model, 0) << "packing left nothing exclusive on node 0";
  // A second model gets a copy on node 0 as well as its own replica.
  int other = -1;
  for (int m = 0; m < static_cast<int>(fleet.models().size()) && other < 0; ++m) {
    if (fleet.placer().ReplicaNodes(m) == std::vector<int>{3}) {
      other = m;
    }
  }
  ASSERT_GE(other, 0) << "packing left nothing exclusive on node 3";
  ASSERT_TRUE(fleet.AddModelReplica(other, 0));

  fleet.FailNode(0);
  const double before = fleet.outstanding_ms()[3];
  ASSERT_TRUE(fleet.MigrateModel(model, 0, 3));
  // The survivor was charged the restore kernel; the dead node nothing.
  EXPECT_GT(fleet.outstanding_ms()[3], before);
  EXPECT_EQ(fleet.outstanding_ms()[0], 0.0);
  EXPECT_EQ(fleet.placer().ReplicaNodes(model), std::vector<int>{3});
  EXPECT_EQ(fleet.recoveries(), 1u);
  EXPECT_EQ(fleet.migrations(), 0u);
  EXPECT_EQ(fleet.recovery_actions(), 1u);

  // Retiring the copy lost with the crashed node charges nothing anywhere.
  const std::vector<double> outstanding = fleet.outstanding_ms();
  ASSERT_TRUE(fleet.RemoveModelReplica(other, 0));
  EXPECT_EQ(fleet.outstanding_ms(), outstanding);
  EXPECT_EQ(fleet.placer().ReplicaNodes(other), std::vector<int>{3});
  EXPECT_EQ(fleet.recovery_actions(), 2u);
  sim.RunToCompletion();
}

// --- Controller-driven recovery ----------------------------------------------

TEST(FaultTest, ControllerReplacesDeadReplicasOntoSurvivors) {
  FleetFaultConfig config = OutageScenario(4, 4);
  // Enough offered load that the outage actually catches requests in flight
  // (at 400 rps the 16-node fleet is nearly idle at any instant).
  config.cluster.aggregate_rps = 1500.0;
  const TracedRun run = RunTraced(config);
  const FleetFaultResult& result = run.result;

  // The outage stranded replicas; the controller re-placed them, and the
  // trace records every recovery action.
  EXPECT_GT(result.recoveries, 0u);
  EXPECT_EQ(result.recoveries, CountKind(run.events, TraceKind::kRecoverReplica) +
                                   CountKind(run.events, TraceKind::kDropLostReplica));
  EXPECT_EQ(result.zone_outages, 1u);
  // Work was lost during the outage but service recovered: the post phase
  // completes requests at a goodput close to the pre phase. Losses are
  // attributed to the phase in which the node died, so the outage phase —
  // which opens at the same instant the zone drops — carries them.
  ASSERT_EQ(result.phases.size(), 3u);
  EXPECT_GT(result.failed_requests, 0u);
  EXPECT_GT(result.phases[1].failed, 0u);
  EXPECT_GT(result.phases[0].goodput_ms_per_s, 0.0);
  EXPECT_GE(result.phases[2].goodput_ms_per_s, 0.85 * result.phases[0].goodput_ms_per_s);
}

// --- Deterministic replay ----------------------------------------------------

TEST(FaultReplayTest, ScheduleIsPureFunctionOfConfig) {
  FaultScenarioConfig scenario;
  scenario.seed = 5;
  scenario.horizon = FromSeconds(10);
  scenario.crashes_per_second = 3.0;
  scenario.stragglers_per_second = 2.0;
  scenario.zone_outages = {{1, FromSeconds(4), FromSeconds(1)}};
  scenario.power_caps = {{2, FromSeconds(6), FromSeconds(2), 0.7}};

  Simulator sim_a, sim_b;
  ClusterDispatcher fleet_a(&sim_a, ZonedConfig(4, 4));
  ClusterDispatcher fleet_b(&sim_b, ZonedConfig(4, 4));
  FaultInjector injector_a(&sim_a, &fleet_a, scenario);
  FaultInjector injector_b(&sim_b, &fleet_b, scenario);

  EXPECT_FALSE(injector_a.schedule().empty());
  EXPECT_TRUE(SameSchedule(injector_a.schedule(), injector_b.schedule()));

  scenario.seed = 6;
  FaultInjector injector_c(&sim_a, &fleet_a, scenario);
  EXPECT_FALSE(SameSchedule(injector_a.schedule(), injector_c.schedule()));
}

TEST(FaultReplayTest, TraceAndRecoveryAreByteIdenticalAcrossRuns) {
  FleetFaultConfig config = OutageScenario(4, 4);
  config.faults.crashes_per_second = 1.0;
  config.faults.crash_repair = FromMillis(700);

  const TracedRun run_a = RunTraced(config);
  const TracedRun run_b = RunTraced(config);
  const FleetFaultResult& a = run_a.result;
  const FleetFaultResult& b = run_b.result;

  EXPECT_GT(CountKind(run_a.events, TraceKind::kFaultApplied), 0u);
  EXPECT_GT(CountKind(run_a.events, TraceKind::kRecoverReplica), 0u);
  EXPECT_EQ(run_a.bytes, run_b.bytes);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.sim.fired, b.sim.fired);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].p99_ms, b.phases[i].p99_ms);
    EXPECT_EQ(a.phases[i].goodput_ms_per_s, b.phases[i].goodput_ms_per_s);
    EXPECT_EQ(a.phases[i].failed, b.phases[i].failed);
    EXPECT_EQ(a.phases[i].recoveries, b.phases[i].recoveries);
  }
}

TEST(FaultReplayTest, SweepGridIsByteIdenticalAcrossJobs) {
  // The bench's property at test scale: serialize every scenario's trace +
  // phase metrics through SweepRunner at --jobs 1 and --jobs 4 and compare
  // the byte streams.
  const std::vector<std::string> scenarios = {"healthy", "crashes", "zone-outage"};
  auto run_grid = [&scenarios](int jobs) {
    SweepRunner runner(jobs);
    std::vector<SweepPoint<std::string>> points;
    for (const std::string& name : scenarios) {
      points.push_back({name, [name] {
                          FleetFaultConfig config = OutageScenario(2, 3);
                          if (name == "healthy") {
                            config.faults.zone_outages.clear();
                          } else if (name == "crashes") {
                            config.faults.zone_outages.clear();
                            config.faults.crashes_per_second = 2.0;
                            config.faults.crash_repair = FromMillis(600);
                          }
                          const TracedRun run = RunTraced(config);
                          const FleetFaultResult& r = run.result;
                          std::string blob = name + "\n" + run.bytes + "\n";
                          for (const FaultPhaseStats& p : r.phases) {
                            blob += p.name + " " + std::to_string(p.completed) + " " +
                                    std::to_string(p.failed) + " " + std::to_string(p.p99_ms) +
                                    " " + std::to_string(p.goodput_ms_per_s) + "\n";
                          }
                          return blob;
                        }});
    }
    std::string all;
    for (const std::string& blob : runner.Run(points)) {
      all += blob;
    }
    return all;
  };

  const std::string serial = run_grid(1);
  const std::string parallel = run_grid(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// --- Partition (gray failure) semantics --------------------------------------

TEST(PartitionTest, PartitionDefersThenHealDelivers) {
  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(2, 2, PlacementPolicy::kLeastLoaded));
  const int node = fleet.Dispatch(0);
  ASSERT_GE(node, 0);

  fleet.PartitionNode(node);
  EXPECT_TRUE(fleet.NodePartitioned(node));
  EXPECT_FALSE(fleet.NodeActive(node));
  EXPECT_EQ(fleet.partitioned_node_count(), 1);

  // The kernel finishes behind the partition: the completion is deferred,
  // not delivered and not written off.
  sim.RunToCompletion();
  EXPECT_EQ(fleet.completed(), 0u);
  EXPECT_EQ(fleet.failed(), 0u);
  EXPECT_EQ(fleet.metrics().counter("fleet/deferred").value(), 1u);

  // Heal: the buffered completion is delivered; the node rejoins out of
  // rotation like a repaired one.
  fleet.HealNode(node);
  EXPECT_FALSE(fleet.NodePartitioned(node));
  EXPECT_EQ(fleet.partitioned_node_count(), 0);
  EXPECT_EQ(fleet.completed(), 1u);
  EXPECT_EQ(fleet.metrics().counter("fleet/deferred_delivered").value(), 1u);
  EXPECT_FALSE(fleet.NodeActive(node));
}

TEST(PartitionTest, CrashDuringPartitionOrphansDeferredWork) {
  // Same fault under write-off and under retry: the orphan is counted either
  // way; only what happens to the request afterwards differs.
  for (const bool retry : {false, true}) {
    SCOPED_TRACE(retry ? "retry" : "write-off");
    Simulator sim;
    ClusterConfig cc = ZonedConfig(2, 2, PlacementPolicy::kLeastLoaded);
    cc.resilience.enabled = retry;
    ClusterDispatcher fleet(&sim, cc);
    const int node = fleet.Dispatch(0);
    ASSERT_GE(node, 0);
    fleet.PartitionNode(node);
    // The kernel finishes behind the partition; a retry's attempt timeout
    // (250 ms) has not fired yet, so the request is still open.
    sim.RunUntil(FromMillis(100));
    EXPECT_EQ(fleet.metrics().counter("fleet/deferred").value(), 1u);

    // The partitioned host dies before the partition heals: its buffered
    // completion is from a dead epoch, so heal orphans it instead of
    // delivering stale state.
    fleet.FailNode(node);
    fleet.HealNode(node);
    EXPECT_EQ(fleet.metrics().counter("fleet/deferred_delivered").value(), 0u);
    EXPECT_EQ(fleet.metrics().counter("fleet/deferred_orphaned").value(), 1u);

    // Write-off fails the request; retry re-launches it on a survivor.
    sim.RunToCompletion();
    EXPECT_EQ(fleet.completed(), retry ? 1u : 0u);
    EXPECT_EQ(fleet.failed(), retry ? 0u : 1u);
  }
}

TEST(PartitionTest, LegacyDispatchFailsFastIntoPartitionedPool) {
  for (const bool retry : {false, true}) {
    SCOPED_TRACE(retry ? "retry" : "write-off");
    Simulator sim;
    ClusterConfig cc = ZonedConfig(2, 2);
    cc.resilience.enabled = retry;
    ClusterDispatcher fleet(&sim, cc);
    const ZoneTopology& topo = fleet.zone_topology();
    for (int z = 0; z < topo.num_zones; ++z) {
      for (int n = topo.ZoneBegin(z); n < topo.ZoneEnd(z); ++n) {
        fleet.PartitionNode(n);
      }
    }
    for (int n = 0; n < topo.NumNodes(); ++n) {
      EXPECT_TRUE(fleet.NodePartitioned(n)) << "node " << n;
    }

    // With every node unreachable no attempt can launch: write-off fails the
    // request at admission, retry backs off until its attempts are spent.
    EXPECT_EQ(fleet.Dispatch(0), -1);
    sim.RunToCompletion();
    EXPECT_EQ(fleet.failed(), 1u);
    EXPECT_EQ(fleet.completed(), 0u);

    // No node took an attempt, yet the window still counts the request.
    const ClusterResult window = fleet.Collect(sim.Now());
    EXPECT_EQ(window.dispatched, 1u);
    EXPECT_EQ(window.failed, 1u);
  }
}

// --- Rack-correlated crashes -------------------------------------------------

TEST(RackTest, ScriptedRackCrashFailsExactlyTheRack) {
  Simulator sim;
  ClusterConfig cc = ZonedConfig(2, 4);
  cc.racks_per_zone = 2;  // 2-node racks
  ClusterDispatcher fleet(&sim, cc);

  FaultScenarioConfig scenario;
  scenario.seed = 3;
  scenario.rack_crashes = {{/*zone=*/1, /*rack=*/0, FromSeconds(1), FromMillis(500)}};
  FaultInjector injector(&sim, &fleet, scenario);
  injector.Arm();

  sim.RunUntil(FromMillis(1200));
  const ZoneTopology& topo = fleet.zone_topology();
  for (int n = 0; n < cc.num_nodes; ++n) {
    const bool in_rack = topo.ZoneOf(n) == 1 && topo.RackOf(n) == 0;
    EXPECT_EQ(fleet.NodeFailed(n), in_rack) << "node " << n;
  }
  EXPECT_EQ(injector.rack_crashes(), 1u);

  sim.RunUntil(FromSeconds(2));
  EXPECT_EQ(fleet.failed_node_count(), 0);
}

TEST(RackTest, RandomRackProcessTargetsWholeRacks) {
  Simulator sim;
  ClusterConfig cc = ZonedConfig(2, 4);
  cc.racks_per_zone = 2;
  ClusterDispatcher fleet(&sim, cc);

  FaultScenarioConfig scenario;
  scenario.seed = 21;
  scenario.horizon = FromSeconds(10);
  scenario.rack_crashes_per_second = 1.0;
  scenario.rack_repair = RepairModel::Weibull(0.7, 0.5);
  FaultInjector injector(&sim, &fleet, scenario);

  // Every scheduled rack event names a zone and a valid rack, and crashes
  // and repairs pair up.
  int crashes = 0, repairs = 0;
  for (const FaultEvent& event : injector.schedule()) {
    if (event.kind == FaultKind::kRackCrash) {
      ++crashes;
    } else if (event.kind == FaultKind::kRackRepair) {
      ++repairs;
    } else {
      continue;
    }
    EXPECT_GE(event.zone, 0);
    EXPECT_LT(event.zone, 2);
    EXPECT_GE(event.rack, 0);
    EXPECT_LT(event.rack, 2);
    EXPECT_EQ(event.node, -1);
  }
  EXPECT_GT(crashes, 0);
  EXPECT_EQ(crashes, repairs);
}

// --- Repair-time distributions -----------------------------------------------

TEST(FaultReplayTest, RepairDistributionDoesNotPerturbCrashDraws) {
  // Heavy-tailed repairs sample the schedule Rng *after* each crash's own
  // time/victim draws, and the fixed default samples nothing — so switching
  // the repair model must leave every crash instant and victim unchanged.
  FaultScenarioConfig fixed;
  fixed.seed = 9;
  fixed.horizon = FromSeconds(5);
  fixed.crashes_per_second = 2.0;
  fixed.crash_repair = FromMillis(700);
  FaultScenarioConfig heavy = fixed;
  heavy.crash_repair = RepairModel::Weibull(0.7, 2.0);

  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(2, 2));
  FaultInjector injector_fixed(&sim, &fleet, fixed);
  FaultInjector injector_heavy(&sim, &fleet, heavy);

  auto crashes = [](const FaultInjector& injector) {
    std::vector<FaultEvent> events;
    for (const FaultEvent& event : injector.schedule()) {
      if (event.kind == FaultKind::kNodeCrash) {
        events.push_back(event);
      }
    }
    return events;
  };
  const std::vector<FaultEvent> a = crashes(injector_fixed);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(SameSchedule(a, crashes(injector_heavy)));
  // The repair *delays* differ, though: heavy-tailed repairs are sampled.
  EXPECT_FALSE(SameSchedule(injector_fixed.schedule(), injector_heavy.schedule()));

  // And the sampled schedule is itself a pure function of the config.
  FaultInjector injector_heavy2(&sim, &fleet, heavy);
  EXPECT_TRUE(SameSchedule(injector_heavy.schedule(), injector_heavy2.schedule()));
}

// --- Config validation -------------------------------------------------------

TEST(FaultValidationTest, RejectsOutOfRangeZoneAndRack) {
  Simulator sim;
  ClusterDispatcher fleet(&sim, ZonedConfig(2, 2));

  FaultScenarioConfig bad_partition;
  bad_partition.partitions = {{/*zone=*/5, FromSeconds(1), FromSeconds(1)}};
  EXPECT_DEATH(FaultInjector(&sim, &fleet, bad_partition), "zone");

  FaultScenarioConfig bad_rack;
  bad_rack.rack_crashes = {{/*zone=*/0, /*rack=*/3, FromSeconds(1), FromSeconds(1)}};
  EXPECT_DEATH(FaultInjector(&sim, &fleet, bad_rack), "rack");

  FaultScenarioConfig bad_outage;
  bad_outage.zone_outages = {{/*zone=*/-1, FromSeconds(1), FromSeconds(1)}};
  EXPECT_DEATH(FaultInjector(&sim, &fleet, bad_outage), "zone");
}

// --- Request-level resilience ------------------------------------------------

// Rack-crash + zone-partition composite at test scale: 16 nodes in 4 zones
// of two 2-node racks, loaded enough that faults catch work in flight. The
// scripted instants sit off the 250ms control grid so there is a real
// exposure window before the controller re-places replicas.
FleetFaultConfig ResilienceScenario(bool resilient) {
  FleetFaultConfig config;
  config.cluster = ZonedConfig(4, 4);
  config.cluster.racks_per_zone = 2;
  config.cluster.aggregate_rps = 1500.0;
  config.cluster.resilience.enabled = resilient;
  config.faults.name = "rack+partition";
  config.faults.seed = 11;
  config.faults.partitions = {{/*zone=*/0, FromSeconds(2) + FromMillis(20), FromSeconds(1)}};
  config.faults.rack_crashes = {
      {/*zone=*/1, /*rack=*/0, FromSeconds(2) + FromMillis(120), FromMillis(700)},
      {/*zone=*/0, /*rack=*/1, FromSeconds(2) + FromMillis(420), FromMillis(700)},
  };
  config.phases = {{"pre", FromSeconds(1), FromSeconds(2)},
                   {"during", FromSeconds(2), FromSeconds(3)},
                   {"post", FromMillis(3500), FromMillis(5500)}};
  return config;
}

TEST(ResilienceTest, RetryRecoversWorkWrittenOffByLegacyPath) {
  const FleetFaultResult writeoff = RunFleetFaultScenario(ResilienceScenario(false));
  const FleetFaultResult resilient = RunFleetFaultScenario(ResilienceScenario(true));

  EXPECT_EQ(writeoff.partitions, 1u);
  EXPECT_EQ(writeoff.rack_crashes, 2u);
  EXPECT_EQ(writeoff.retries, 0u);

  EXPECT_GT(writeoff.failed_requests, 0u);
  EXPECT_LT(resilient.failed_requests, writeoff.failed_requests);
  EXPECT_GT(resilient.retries, 0u);
  // Recovery: the resilient post phase serves goodput comparable to pre.
  ASSERT_EQ(resilient.phases.size(), 3u);
  EXPECT_GE(resilient.phases[2].goodput_ms_per_s,
            0.9 * resilient.phases[0].goodput_ms_per_s);
}

TEST(ResilienceTest, HedgeFirstCompletionWinsWithoutDoubleCounting) {
  FleetFaultConfig config = ResilienceScenario(true);
  config.cluster.resilience.hedge = true;
  config.cluster.resilience.hedge_delay = FromMillis(2);
  const FleetFaultResult r = RunFleetFaultScenario(config);

  EXPECT_GT(r.hedges, 0u);
  EXPECT_GT(r.hedge_wins, 0u);
  // First completion wins exactly once: no phase completes meaningfully more
  // requests than were dispatched into it (small carryover crosses phase
  // boundaries; duplicated completions would roughly double the count).
  for (const FaultPhaseStats& phase : r.phases) {
    EXPECT_LE(phase.completed, phase.dispatched + 25) << phase.name;
  }
}

TEST(ResilienceTest, ShedBoundsOutstandingWork) {
  Simulator sim;
  ClusterConfig cc = ZonedConfig(1, 2);
  cc.resilience.enabled = true;
  cc.resilience.shed_watermark_ms = 5.0;
  ClusterDispatcher fleet(&sim, cc);

  // Slam 200 arrivals into a 2-node pool without letting the sim drain:
  // admission control must kick in and cap the queued backlog.
  const int num_models = static_cast<int>(fleet.models().size());
  for (int i = 0; i < 200; ++i) {
    fleet.Dispatch(i % num_models);
  }
  EXPECT_GT(fleet.metrics().counter("fleet/shed").value(), 0u);
  double total_ms = 0;
  for (double ms : fleet.outstanding_ms()) {
    total_ms += ms;
  }
  // Bounded by watermark * active nodes plus at most one admitted request
  // (+ its switch kernel) per node beyond the threshold.
  EXPECT_LE(total_ms, 5.0 * 2 + 100.0);
  sim.RunToCompletion();
}

TEST(FaultReplayTest, ResilienceGridIsByteIdenticalAcrossJobs) {
  // The resilience bench's CI property at test scale: the full rack+partition
  // schedule, replayed under both policies through SweepRunner at --jobs 1,
  // 2, and 8, serializes to identical bytes.
  auto run_grid = [](int jobs) {
    SweepRunner runner(jobs);
    std::vector<SweepPoint<std::string>> points;
    for (const bool resilient : {false, true}) {
      points.push_back({resilient ? "resilient" : "write-off", [resilient] {
                          FleetFaultConfig config = ResilienceScenario(resilient);
                          config.cluster.resilience.hedge = resilient;
                          const TracedRun run = RunTraced(config);
                          const FleetFaultResult& r = run.result;
                          std::string blob = run.bytes + "\n";
                          blob += std::to_string(r.failed_requests) + " " +
                                  std::to_string(r.retries) + " " +
                                  std::to_string(r.hedges) + " " +
                                  std::to_string(r.hedge_wins) + " " +
                                  std::to_string(r.timeouts) + " " +
                                  std::to_string(r.deferred_delivered) + " " +
                                  std::to_string(r.deferred_orphaned) + "\n";
                          for (const FaultPhaseStats& p : r.phases) {
                            blob += p.name + " " + std::to_string(p.completed) + " " +
                                    std::to_string(p.failed) + " " + std::to_string(p.p99_ms) +
                                    " " + std::to_string(p.goodput_ms_per_s) + "\n";
                          }
                          return blob;
                        }});
    }
    std::string all;
    for (const std::string& blob : runner.Run(points)) {
      all += blob;
    }
    return all;
  };

  const std::string serial = run_grid(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_grid(2));
  EXPECT_EQ(serial, run_grid(8));
}

}  // namespace
}  // namespace lithos
