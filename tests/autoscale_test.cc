// Fleet control-plane tests: scaling-policy registry, live migration
// mechanics (replica re-homing, cost kernels, arrival redirection), node
// lifecycle (drain -> power-off -> power-on) with power-gated energy, and
// the headline property — predictive scaling beats static-peak provisioning
// on GPU-hours and joules per fleet-day at comparable p99, with migrations
// actually occurring mid-run.
#include <gtest/gtest.h>

#include <set>

#include "src/autoscale/fleet_controller.h"
#include "src/autoscale/scaling_policy.h"
#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"

namespace lithos {
namespace {

AutoscaleConfig SmallConfig(ScalingPolicyKind scaling) {
  AutoscaleConfig config;
  config.cluster.policy = PlacementPolicy::kModelAffinity;
  config.cluster.num_nodes = 8;
  config.cluster.system = SystemKind::kLithos;
  config.cluster.aggregate_rps = 500.0;
  config.cluster.seconds_per_day = 4.0;
  config.cluster.warmup = FromMillis(500);
  config.cluster.duration = FromSeconds(8);  // two compressed fleet days
  config.cluster.seed = 2026;
  config.scaling = scaling;
  config.control_period = FromMillis(200);
  config.min_nodes = 2;
  return config;
}

// --- Scaling policies --------------------------------------------------------

TEST(ScalingPolicyTest, RegistryNamesAndConstruction) {
  EXPECT_EQ(AllScalingPolicies().size(), 3u);
  std::set<std::string> names;
  for (ScalingPolicyKind kind : AllScalingPolicies()) {
    names.insert(ScalingPolicyName(kind));
    auto policy = MakeScalingPolicy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->Name(), ScalingPolicyName(kind));
  }
  EXPECT_EQ(names.size(), 3u);  // distinct names
}

TEST(ScalingPolicyTest, DemandEstimatesMatchDesign) {
  FleetSnapshot snap;
  snap.control_period = FromMillis(250);
  snap.total_nodes = 8;
  snap.node_capacity_ms_per_s = 500.0;
  snap.offered_now_ms_per_s = 1200.0;
  snap.predicted_next_ms_per_s = 1500.0;
  snap.measured_last_period_ms_per_s = 1000.0;
  snap.backlog_ms = 50.0;  // 200 ms/s of catch-up over a 250 ms period
  snap.peak_ms_per_s = 2000.0;

  // Static-peak demands the whole pool regardless of traffic.
  EXPECT_DOUBLE_EQ(MakeScalingPolicy(ScalingPolicyKind::kStaticPeak)->DemandGpuMsPerSec(snap),
                   8 * 500.0);
  // Reactive follows last period's arrivals plus backlog catch-up.
  EXPECT_DOUBLE_EQ(MakeScalingPolicy(ScalingPolicyKind::kReactive)->DemandGpuMsPerSec(snap),
                   1000.0 + 200.0);
  // Predictive feeds the curve forward (floored at the current offered load).
  EXPECT_DOUBLE_EQ(MakeScalingPolicy(ScalingPolicyKind::kPredictive)->DemandGpuMsPerSec(snap),
                   1500.0 + 200.0);
}

// --- Placer mutation hooks ---------------------------------------------------

TEST(PlacementMutationTest, MoveReplicaRehomesAndRefusesBadMoves) {
  const std::vector<FleetModel> models = FleetTelemetry(2026).models();
  auto placer = MakePlacer(PlacementPolicy::kModelAffinity, models, {1, 6}, 300.0, 0.65);

  const std::vector<int> before = placer->ReplicaNodes(3);
  ASSERT_FALSE(before.empty());
  const int from = before[0];
  int to = -1;
  for (int n = 0; n < 6; ++n) {
    if (std::find(before.begin(), before.end(), n) == before.end()) {
      to = n;
      break;
    }
  }
  ASSERT_GE(to, 0);

  EXPECT_TRUE(placer->MoveReplica(3, from, to));
  const std::vector<int>& after = placer->ReplicaNodes(3);
  EXPECT_EQ(std::count(after.begin(), after.end(), to), 1);
  EXPECT_EQ(std::count(after.begin(), after.end(), from), 0);

  // `from` no longer hosts the replica; `to` already does.
  EXPECT_FALSE(placer->MoveReplica(3, from, to));
  // Last replica cannot be removed.
  if (after.size() == 1) {
    EXPECT_FALSE(placer->RemoveReplica(3, after[0]));
  }
}

TEST(PlacementMutationTest, DisabledNodesLeaveTheRotation) {
  const std::vector<FleetModel> models = FleetTelemetry(2026).models();

  // Round-robin cycles past a disabled node.
  auto rr = MakePlacer(PlacementPolicy::kRoundRobin, models, {1, 3}, 300.0, 0.65);
  rr->SetNodeEnabled(1, false);
  const std::vector<double> load = {0, 0, 0};
  EXPECT_EQ(rr->Place(0, load, {0.0}), 0);
  EXPECT_EQ(rr->Place(0, load, {0.0}), 2);
  EXPECT_EQ(rr->Place(0, load, {0.0}), 0);

  // Least-loaded never picks a disabled node even at zero load.
  auto ll = MakePlacer(PlacementPolicy::kLeastLoaded, models, {1, 3}, 300.0, 0.65);
  ll->SetNodeEnabled(0, false);
  EXPECT_EQ(ll->Place(0, {0.0, 5.0, 9.0}, {14.0}), 1);

  // Eligibility falls back to enabled nodes when every replica is disabled.
  auto affinity = MakePlacer(PlacementPolicy::kModelAffinity, models, {1, 3}, 300.0, 0.65);
  for (int n = 0; n < 3; ++n) {
    affinity->SetNodeEnabled(n, false);
  }
  affinity->SetNodeEnabled(2, true);
  for (int m = 0; m < affinity->num_models(); ++m) {
    // Whether node 2 hosts the replica or the fallback kicks in, the only
    // routable node is the enabled one.
    EXPECT_EQ(affinity->EligibleNodes(m), std::vector<int>{2});
  }
}

// --- Live migration ----------------------------------------------------------

TEST(MigrationTest, MigrateModelRedirectsArrivalsAndChargesCost) {
  Simulator sim;
  ClusterConfig config;
  config.policy = PlacementPolicy::kModelAffinity;
  config.num_nodes = 4;
  config.aggregate_rps = 300.0;
  config.seed = 7;
  ClusterDispatcher dispatcher(&sim, config);

  // Pick a single-replica model and an empty target node.
  int model = -1, from = -1, to = -1;
  for (size_t m = 0; m < dispatcher.models().size() && model < 0; ++m) {
    const std::vector<int> replicas = dispatcher.placer().ReplicaNodes(static_cast<int>(m));
    if (replicas.size() == 1) {
      for (int n = config.num_nodes - 1; n >= 0; --n) {
        if (n != replicas[0]) {
          model = static_cast<int>(m);
          from = replicas[0];
          to = n;
          break;
        }
      }
    }
  }
  ASSERT_GE(model, 0);

  EXPECT_TRUE(dispatcher.MigrateModel(model, from, to));
  EXPECT_EQ(dispatcher.migrations(), 1u);
  EXPECT_EQ(dispatcher.placer().ReplicaNodes(model), std::vector<int>{to});
  // Checkpoint charged on the source, restore on the destination.
  EXPECT_GT(dispatcher.outstanding_ms()[from], 0.0);
  EXPECT_GT(dispatcher.outstanding_ms()[to], 0.0);

  // New arrivals for the model land on the destination.
  EXPECT_EQ(dispatcher.Dispatch(model), to);

  // A move from a node that no longer hosts the replica is refused free.
  const double out_from = dispatcher.outstanding_ms()[from];
  EXPECT_FALSE(dispatcher.MigrateModel(model, from, to));
  EXPECT_EQ(dispatcher.migrations(), 1u);
  EXPECT_DOUBLE_EQ(dispatcher.outstanding_ms()[from], out_from);

  // The migration kernels drain: nothing outstanding once the sim runs dry.
  sim.RunToCompletion();
  for (double ms : dispatcher.outstanding_ms()) {
    EXPECT_NEAR(ms, 0.0, 1e-9);
  }
}

// --- Power gating ------------------------------------------------------------

TEST(PowerGateTest, GatedEngineDrawsStandbyPowerAndRefusesBusyGating) {
  Simulator sim;
  const GpuSpec spec = GpuSpec::A100();
  ExecutionEngine engine(&sim, spec);
  EXPECT_FALSE(engine.power_gated());
  const double idle_w = engine.InstantPowerW();
  EXPECT_GT(idle_w, spec.gated_power_w);

  engine.SetPowerGated(true);
  EXPECT_TRUE(engine.power_gated());
  EXPECT_DOUBLE_EQ(engine.InstantPowerW(), spec.gated_power_w);

  // Energy over a gated second is the standby draw.
  sim.ScheduleAt(FromSeconds(1), [] {});
  sim.RunToCompletion();
  ExecutionEngine* e = &engine;
  EXPECT_NEAR(e->Stats().energy_joules, spec.gated_power_w, 1e-6);

  engine.SetPowerGated(false);
  EXPECT_DOUBLE_EQ(engine.InstantPowerW(), idle_w);
}

// --- Controller end-to-end ---------------------------------------------------

TEST(FleetControllerTest, StaticPeakHoldsThePoolAndNeverActs) {
  const AutoscaleResult r = RunClusterAutoscale(SmallConfig(ScalingPolicyKind::kStaticPeak));
  EXPECT_DOUBLE_EQ(r.mean_powered_on, 8.0);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(r.power_ons, 0u);
  EXPECT_EQ(r.power_offs, 0u);
  EXPECT_GT(r.cluster.completed, 0u);
}

TEST(FleetControllerTest, PredictiveShedsTheTroughAndMigratesMidRun) {
  const AutoscaleResult r = RunClusterAutoscale(SmallConfig(ScalingPolicyKind::kPredictive));
  // The pool breathes with the diurnal curve: nodes power off at the trough
  // and back on for the ramp, re-homing replicas as the active set moves.
  EXPECT_LT(r.mean_powered_on, 8.0);
  EXPECT_GT(r.power_offs, 0u);
  EXPECT_GT(r.power_ons, 0u);
  EXPECT_GT(r.migrations, 0u);
  EXPECT_GT(r.cluster.migration_gpu_ms, 0.0);
  EXPECT_GT(r.cluster.completed, 0u);
}

TEST(FleetControllerTest, DrainedNodesArePowerGated) {
  const AutoscaleConfig config = SmallConfig(ScalingPolicyKind::kPredictive);
  Simulator sim;
  ClusterDispatcher dispatcher(&sim, config.cluster);
  FleetController controller(&sim, &dispatcher, config);
  const TimeNs horizon = config.cluster.warmup + config.cluster.duration;
  dispatcher.SetWarmupEnd(config.cluster.warmup);
  dispatcher.StartArrivals(horizon);
  controller.Start(horizon);
  sim.RunUntil(horizon);

  // The run ends below the diurnal mean: part of the pool must be off, and
  // every powered-off node is drained, out of rotation, and power-gated.
  int off = 0;
  for (int n = 0; n < config.cluster.num_nodes; ++n) {
    if (controller.node_power(n) == NodePower::kPoweredOff) {
      ++off;
      EXPECT_FALSE(dispatcher.NodeActive(n));
      EXPECT_TRUE(dispatcher.NodeGated(n));
      EXPECT_EQ(dispatcher.nodes()[n]->engine()->NumRunningGrants(), 0);
      EXPECT_DOUBLE_EQ(dispatcher.nodes()[n]->engine()->InstantPowerW(),
                       config.cluster.spec.gated_power_w);
    }
  }
  EXPECT_GT(off, 0);
  EXPECT_EQ(controller.powered_on_nodes(), config.cluster.num_nodes - off);
}

// The acceptance headline: predictive scaling beats static-peak provisioning
// on GPU-hours AND joules per fleet-day at comparable p99, and live
// migrations actually occur mid-run.
TEST(FleetControllerTest, PredictiveBeatsStaticPeakAtEqualP99) {
  const AutoscaleResult fixed = RunClusterAutoscale(SmallConfig(ScalingPolicyKind::kStaticPeak));
  const AutoscaleResult scaled =
      RunClusterAutoscale(SmallConfig(ScalingPolicyKind::kPredictive));

  EXPECT_LT(scaled.gpu_hours_per_day, fixed.gpu_hours_per_day);
  EXPECT_LT(scaled.joules_per_day, fixed.joules_per_day);
  EXPECT_LE(scaled.cluster.p99_ms, fixed.cluster.p99_ms * 1.10);
  EXPECT_GT(scaled.migrations, 0u);
  // Shedding the trough raises the utilization of what the fleet pays for.
  EXPECT_GT(scaled.provisioned_utilization, fixed.provisioned_utilization);
}

TEST(FleetControllerTest, RunClusterAutoscaleIsDeterministic) {
  const AutoscaleConfig config = SmallConfig(ScalingPolicyKind::kReactive);
  const AutoscaleResult a = RunClusterAutoscale(config);
  const AutoscaleResult b = RunClusterAutoscale(config);
  EXPECT_EQ(a.cluster.dispatched, b.cluster.dispatched);
  EXPECT_EQ(a.cluster.completed, b.cluster.completed);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.power_ons, b.power_ons);
  EXPECT_EQ(a.power_offs, b.power_offs);
  EXPECT_DOUBLE_EQ(a.gpu_hours_per_day, b.gpu_hours_per_day);
  EXPECT_DOUBLE_EQ(a.joules_per_day, b.joules_per_day);
  EXPECT_DOUBLE_EQ(a.cluster.p99_ms, b.cluster.p99_ms);
}

}  // namespace
}  // namespace lithos
