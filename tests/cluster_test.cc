// Cluster-layer tests: placement-policy selection and determinism, failover
// to the least-loaded node under a hot model, and dispatcher accounting
// summing to the per-node driver/engine statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/common/rng.h"
#include "src/workloads/fleet.h"

namespace lithos {
namespace {

std::vector<FleetModel> TestModels() { return FleetTelemetry(2026).models(); }

ClusterConfig SmallConfig(PlacementPolicy policy, SystemKind system = SystemKind::kMps) {
  ClusterConfig config;
  config.policy = policy;
  config.system = system;
  config.num_nodes = 4;
  config.aggregate_rps = 300.0;
  config.warmup = FromMillis(500);
  config.duration = FromSeconds(2);
  config.seed = 7;
  return config;
}

// --- Placement policies ------------------------------------------------------

TEST(PlacementTest, PolicyNamesAndRegistry) {
  EXPECT_EQ(AllPlacementPolicies().size(), 3u);
  std::set<std::string> names;
  for (PlacementPolicy policy : AllPlacementPolicies()) {
    names.insert(PlacementPolicyName(policy));
    auto placer = MakePlacer(policy, TestModels(), {1, 4}, 300.0, 0.65);
    ASSERT_NE(placer, nullptr);
    EXPECT_EQ(placer->Name(), PlacementPolicyName(policy));
  }
  EXPECT_EQ(names.size(), 3u);  // distinct names
}

TEST(PlacementTest, RoundRobinCyclesThroughNodes) {
  auto placer = MakePlacer(PlacementPolicy::kRoundRobin, TestModels(), {1, 3}, 300.0, 0.65);
  const std::vector<double> load = {0, 0, 0};
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(placer->Place(i % 13, load, {0.0}), i % 3);
  }
}

TEST(PlacementTest, LeastLoadedPicksMinimumWithDeterministicTies) {
  auto placer = MakePlacer(PlacementPolicy::kLeastLoaded, TestModels(), {1, 4}, 300.0, 0.65);
  EXPECT_EQ(placer->Place(0, {5.0, 2.0, 9.0, 2.5}, {18.5}), 1);
  // Ties break to the lowest index.
  EXPECT_EQ(placer->Place(0, {3.0, 1.0, 1.0, 1.0}, {6.0}), 1);
  EXPECT_EQ(placer->Place(0, {0.0, 0.0, 0.0, 0.0}, {0.0}), 0);
}

TEST(PlacementTest, ModelAffinityPacksColdTailAndFreesNodes) {
  const std::vector<FleetModel> models = TestModels();
  const int num_nodes = 13;
  // Light aggregate load: the whole fleet fits on a few GPUs.
  auto placer = MakePlacer(PlacementPolicy::kModelAffinity, models, {1, num_nodes}, 300.0, 0.65);

  std::set<int> used;
  for (size_t m = 0; m < models.size(); ++m) {
    const std::vector<int> eligible = placer->EligibleNodes(static_cast<int>(m));
    ASSERT_FALSE(eligible.empty());
    used.insert(eligible.begin(), eligible.end());
  }
  // Consolidation: far fewer nodes than one-per-model.
  EXPECT_LT(used.size(), models.size() / 2);

  // The load-oblivious policies replicate every model everywhere.
  auto rr = MakePlacer(PlacementPolicy::kRoundRobin, models, {1, num_nodes}, 300.0, 0.65);
  EXPECT_EQ(rr->EligibleNodes(0).size(), static_cast<size_t>(num_nodes));
}

TEST(PlacementTest, ModelAffinityConstructionIsDeterministic) {
  const std::vector<FleetModel> models = TestModels();
  auto a = MakePlacer(PlacementPolicy::kModelAffinity, models, {1, 8}, 500.0, 0.65);
  auto b = MakePlacer(PlacementPolicy::kModelAffinity, models, {1, 8}, 500.0, 0.65);
  for (size_t m = 0; m < models.size(); ++m) {
    EXPECT_EQ(a->EligibleNodes(static_cast<int>(m)), b->EligibleNodes(static_cast<int>(m)));
  }
}

// On a one-zone pool the zone-first affinity placer must reduce to the flat
// join-shortest-queue rule: the least-outstanding enabled replica, ties to
// the lowest node id, then the two fallbacks — any enabled node when every
// replica is disabled, any node when nothing is enabled.
TEST(PlacementTest, OneZoneAffinityPicksLeastOutstandingEnabledReplica) {
  const std::vector<FleetModel> models = TestModels();
  constexpr int kNodes = 8;
  auto placer = MakePlacer(PlacementPolicy::kModelAffinity, models, {1, kNodes}, 500.0, 0.65);
  size_t max_replicas = 0;
  for (int m = 0; m < placer->num_models(); ++m) {
    max_replicas = std::max(max_replicas, placer->ReplicaNodes(m).size());
  }
  ASSERT_GT(max_replicas, 1u) << "no model has a replica set to break ties in";

  // The lowest id among `candidates` holding the minimum load; -1 if none.
  auto lowest_min = [](const std::vector<int>& candidates, const std::vector<double>& load) {
    if (candidates.empty()) {
      return -1;
    }
    double min_load = load[candidates[0]];
    for (int n : candidates) {
      min_load = std::min(min_load, load[n]);
    }
    for (int n : candidates) {
      if (load[n] == min_load) {
        return n;
      }
    }
    return -1;
  };

  Rng rng(2027);
  int replica_picks = 0, enabled_fallbacks = 0, all_fallbacks = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    // Few distinct load levels, so ties are common.
    std::vector<double> load(kNodes);
    for (double& ms : load) {
      ms = static_cast<double>(rng.UniformInt(0, 3));
    }
    const double enable_odds = 0.25 * static_cast<double>(rng.UniformInt(0, 3));
    std::vector<int> enabled;
    for (int n = 0; n < kNodes; ++n) {
      const bool on = rng.NextDouble() < enable_odds;
      placer->SetNodeEnabled(n, on);
      if (on) {
        enabled.push_back(n);
      }
    }
    const int model = static_cast<int>(rng.UniformInt(0, placer->num_models() - 1));

    std::vector<int> enabled_replicas;
    for (int n : placer->ReplicaNodes(model)) {
      if (placer->NodeEnabled(n)) {
        enabled_replicas.push_back(n);
      }
    }
    std::vector<int> all(kNodes);
    std::iota(all.begin(), all.end(), 0);
    int expected = lowest_min(enabled_replicas, load);
    if (expected >= 0) {
      ++replica_picks;
    } else if ((expected = lowest_min(enabled, load)) >= 0) {
      ++enabled_fallbacks;
    } else {
      expected = lowest_min(all, load);
      ++all_fallbacks;
    }
    const double total = std::accumulate(load.begin(), load.end(), 0.0);
    ASSERT_EQ(placer->Place(model, load, {total}), expected) << "trial " << trial;
  }
  EXPECT_GT(replica_picks, 0);
  EXPECT_GT(enabled_fallbacks, 0);
  EXPECT_GT(all_fallbacks, 0);
}

// --- Dispatcher --------------------------------------------------------------

TEST(ClusterTest, HotModelFailsOverToLeastLoadedNodes) {
  Simulator sim;
  ClusterConfig config = SmallConfig(PlacementPolicy::kLeastLoaded);
  ClusterDispatcher dispatcher(&sim, config);

  // A burst of requests for the hottest model arrives at once: as each
  // dispatch raises its node's outstanding work, subsequent requests must
  // fail over to the now-least-loaded peers instead of piling onto node 0.
  std::set<int> chosen;
  for (int i = 0; i < config.num_nodes; ++i) {
    chosen.insert(dispatcher.Dispatch(/*model_index=*/0));
  }
  EXPECT_EQ(chosen.size(), static_cast<size_t>(config.num_nodes));

  // Continued pressure stays balanced across all nodes.
  for (int i = 0; i < 20; ++i) {
    dispatcher.Dispatch(0);
  }
  uint64_t lo = UINT64_MAX, hi = 0;
  for (int n = 0; n < config.num_nodes; ++n) {
    lo = std::min(lo, dispatcher.dispatched_to(n));
    hi = std::max(hi, dispatcher.dispatched_to(n));
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(ClusterTest, RoundRobinIgnoresLoadImbalance) {
  Simulator sim;
  ClusterConfig config = SmallConfig(PlacementPolicy::kRoundRobin);
  ClusterDispatcher dispatcher(&sim, config);
  // Round-robin sprays the hot model evenly regardless of queue state; the
  // first num_nodes dispatches must hit each node exactly once in order.
  for (int i = 0; i < config.num_nodes; ++i) {
    EXPECT_EQ(dispatcher.Dispatch(0), i);
  }
}

TEST(ClusterTest, DispatcherStatsSumToPerNodeStats) {
  Simulator sim;
  ClusterConfig config = SmallConfig(PlacementPolicy::kLeastLoaded);
  ClusterDispatcher dispatcher(&sim, config);
  const TimeNs horizon = config.warmup + config.duration;
  // No warm-up cutoff: the lifetime routing counters and the reported
  // measurement-window counters must then agree exactly.
  dispatcher.StartArrivals(horizon);
  sim.RunUntil(horizon);

  const ClusterResult result = dispatcher.Collect(config.duration);
  ASSERT_EQ(result.nodes.size(), static_cast<size_t>(config.num_nodes));
  EXPECT_GT(result.dispatched, 0u);
  EXPECT_GT(result.completed, 0u);

  uint64_t dispatched_sum = 0;
  uint64_t completed_sum = 0;
  for (int n = 0; n < config.num_nodes; ++n) {
    const ClusterNodeStats& ns = result.nodes[n];
    EXPECT_EQ(ns.node_id, n);
    EXPECT_EQ(ns.dispatched, dispatcher.dispatched_to(n));
    // Every request issues at least one kernel launch (plus a completion
    // marker and any model-switch kernels) through this node's driver.
    EXPECT_EQ(ns.driver_launches, dispatcher.nodes()[n]->driver()->launches_issued());
    EXPECT_GE(ns.driver_launches, 2 * ns.dispatched);
    EXPECT_LE(ns.completed, ns.dispatched);
    dispatched_sum += ns.dispatched;
    completed_sum += ns.completed;
  }
  EXPECT_EQ(dispatched_sum, dispatcher.dispatched());
  EXPECT_EQ(completed_sum, dispatcher.completed());
}

TEST(ClusterTest, MeasurementWindowCoversAllNodeCounters) {
  Simulator sim;
  ClusterConfig config = SmallConfig(PlacementPolicy::kLeastLoaded);
  config.num_nodes = 1;
  ClusterDispatcher dispatcher(&sim, config);
  dispatcher.SetWarmupEnd(FromMillis(100));

  uint64_t launches_at_window = 0;
  sim.ScheduleAt(0, [&dispatcher] { dispatcher.Dispatch(0); });
  sim.ScheduleAt(FromMillis(100), [&] {
    dispatcher.BeginMeasurement();
    launches_at_window = dispatcher.nodes()[0]->driver()->launches_issued();
  });
  sim.ScheduleAt(FromMillis(150), [&dispatcher] { dispatcher.Dispatch(1); });
  sim.RunToCompletion();

  const ClusterResult result = dispatcher.Collect(FromMillis(150));
  const ClusterNodeStats& ns = result.nodes[0];
  // Model 0 landed only before the window: every counter — including the
  // formerly lifetime distinct_models and driver_launches — must exclude it.
  EXPECT_EQ(ns.dispatched, 1u);
  EXPECT_EQ(ns.completed, 1u);
  EXPECT_EQ(ns.distinct_models, 1);
  EXPECT_GT(launches_at_window, 0u);
  EXPECT_EQ(ns.driver_launches,
            dispatcher.nodes()[0]->driver()->launches_issued() - launches_at_window);
  EXPECT_GE(ns.driver_launches, 2u);  // model-1 request kernel + marker at least
}

TEST(ClusterTest, DiurnalArrivalsTrackNormalizedRps) {
  // Empirical check of the Lewis-thinning arrival process: binned arrival
  // counts over one compressed fleet day must follow the integral of
  // FleetTelemetry::NormalizedRps bin by bin.
  Simulator sim;
  ClusterConfig config = SmallConfig(PlacementPolicy::kLeastLoaded);
  config.aggregate_rps = 800.0;
  config.seconds_per_day = 4.0;
  config.seed = 11;
  ClusterDispatcher dispatcher(&sim, config);

  constexpr int kBins = 8;
  const TimeNs day = FromSeconds(config.seconds_per_day);
  std::vector<uint64_t> dispatched_at_edge(kBins + 1, 0);
  for (int b = 0; b <= kBins; ++b) {
    sim.ScheduleAt(b * day / kBins,
                   [&dispatched_at_edge, &dispatcher, b] {
                     dispatched_at_edge[b] = dispatcher.dispatched();
                   });
  }
  dispatcher.StartArrivals(day);
  sim.RunUntil(day + 1);

  const uint64_t total = dispatched_at_edge[kBins];
  ASSERT_GT(total, 1000u);  // enough samples for the shares to be stable

  // Expected per-bin share: integral of the diurnal curve over the bin.
  const FleetTelemetry& fleet = dispatcher.fleet();
  std::vector<double> expected(kBins);
  double norm = 0;
  for (int b = 0; b < kBins; ++b) {
    constexpr int kSteps = 64;
    for (int s = 0; s < kSteps; ++s) {
      expected[b] += fleet.NormalizedRps((b + (s + 0.5) / kSteps) / kBins);
    }
    norm += expected[b];
  }

  double peak_share = 0, trough_share = 1;
  for (int b = 0; b < kBins; ++b) {
    const double observed =
        static_cast<double>(dispatched_at_edge[b + 1] - dispatched_at_edge[b]) /
        static_cast<double>(total);
    const double want = expected[b] / norm;
    // Each bin's share of the day's traffic within 20% relative error
    // (hundreds of arrivals per bin; Poisson noise is a few percent).
    EXPECT_NEAR(observed, want, 0.2 * want) << "bin " << b;
    peak_share = std::max(peak_share, observed);
    trough_share = std::min(trough_share, observed);
  }
  // The binned max/min ratio reflects the curve's 2.23 peak-to-trough swing
  // (slightly compressed by averaging over bins).
  EXPECT_GT(peak_share / trough_share, 1.6);
  EXPECT_LT(peak_share / trough_share, 2.8);
}

TEST(ClusterTest, RunClusterServingIsDeterministic) {
  const ClusterConfig config = SmallConfig(PlacementPolicy::kModelAffinity, SystemKind::kLithos);
  const ClusterResult a = RunClusterServing(config);
  const ClusterResult b = RunClusterServing(config);
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.total_model_switches, b.total_model_switches);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
  EXPECT_DOUBLE_EQ(a.fleet_utilization, b.fleet_utilization);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (size_t n = 0; n < a.nodes.size(); ++n) {
    EXPECT_EQ(a.nodes[n].dispatched, b.nodes[n].dispatched);
    EXPECT_EQ(a.nodes[n].model_switches, b.nodes[n].model_switches);
  }
}

TEST(ClusterTest, AffinityUsesFewerGpusThanSpraying) {
  ClusterConfig config = SmallConfig(PlacementPolicy::kRoundRobin);
  config.num_nodes = 13;  // the dedicated deployment's pool size
  const ClusterResult rr = RunClusterServing(config);
  config.policy = PlacementPolicy::kModelAffinity;
  const ClusterResult affinity = RunClusterServing(config);

  EXPECT_EQ(rr.nodes_used, 13);
  EXPECT_LT(affinity.nodes_used, rr.nodes_used);
  EXPECT_GT(affinity.gpus_saved_vs_dedicated, 0);
  EXPECT_GT(affinity.used_utilization, rr.used_utilization);
  // Packing also cuts model churn per node.
  EXPECT_LT(affinity.total_model_switches, rr.total_model_switches);
}

// --- Harness fleet mode ------------------------------------------------------

TEST(ClusterTest, FleetStackingDistributesAppsAcrossNodes) {
  StackingConfig config;
  config.system = SystemKind::kMps;
  config.warmup = FromMillis(500);
  config.duration = FromSeconds(2);

  AppSpec a;
  a.role = AppRole::kHpLatency;
  a.model = "ResNet";
  a.load_rps = 200;
  AppSpec b = a;
  b.model = "BERT";
  b.load_rps = 20;

  const FleetStackingResult fleet = RunStackingFleet(config, {a, b, a, b}, 2);
  ASSERT_EQ(fleet.per_node.size(), 2u);
  // Apps 0 and 2 land on node 0; apps 1 and 3 on node 1.
  ASSERT_EQ(fleet.per_node[0].apps.size(), 2u);
  ASSERT_EQ(fleet.per_node[1].apps.size(), 2u);
  EXPECT_EQ(fleet.per_node[0].apps[0].model, "ResNet");
  EXPECT_EQ(fleet.per_node[1].apps[0].model, "BERT");
  for (const StackingResult& node : fleet.per_node) {
    for (const AppResult& app : node.apps) {
      EXPECT_GT(app.completed, 0u);
    }
  }
  EXPECT_GT(fleet.fleet_utilization, 0.0);
  EXPECT_LE(fleet.fleet_utilization, 1.0);
}

TEST(ClusterTest, IdleNodesDoNotPerturbBusyNodes) {
  StackingConfig config;
  config.system = SystemKind::kMps;
  config.warmup = FromMillis(500);
  config.duration = FromSeconds(2);

  AppSpec a;
  a.role = AppRole::kHpLatency;
  a.model = "ResNet";
  a.load_rps = 100;

  // The single app runs on node 0 either way; extra idle nodes share the
  // simulator but contribute no events, so node 0's results must be
  // bit-identical — a real check that fleet wiring does not leak state
  // between per-node stacks.
  const StackingResult solo = RunStacking(config, {a});
  const FleetStackingResult fleet = RunStackingFleet(config, {a}, 3);
  ASSERT_EQ(fleet.per_node.size(), 3u);
  ASSERT_EQ(fleet.per_node[0].apps.size(), 1u);
  EXPECT_TRUE(fleet.per_node[1].apps.empty());
  EXPECT_TRUE(fleet.per_node[2].apps.empty());
  EXPECT_EQ(solo.apps[0].completed, fleet.per_node[0].apps[0].completed);
  EXPECT_DOUBLE_EQ(solo.apps[0].p99_ms, fleet.per_node[0].apps[0].p99_ms);
  EXPECT_DOUBLE_EQ(solo.apps[0].throughput_rps, fleet.per_node[0].apps[0].throughput_rps);
  // Idle engines accrue no busy time, so fleet utilization is one third of
  // the solo node's.
  EXPECT_EQ(fleet.per_node[1].engine.grants_completed, 0u);
  EXPECT_EQ(fleet.per_node[2].engine.grants_completed, 0u);
}

}  // namespace
}  // namespace lithos
