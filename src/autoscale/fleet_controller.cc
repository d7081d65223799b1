#include "src/autoscale/fleet_controller.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/cluster/placement.h"
#include "src/common/check.h"
#include "src/obs/trace.h"

namespace lithos {

namespace {

// Scale-down hysteresis: the demand estimate must call for fewer nodes for
// this many consecutive ticks before any node drains. Scale-up is immediate —
// growing fast and shedding slowly damps the oscillation a lagging (reactive)
// signal otherwise rings with.
constexpr int kScaleDownPatience = 2;

// Outstanding GPU-ms at or below which a draining node counts as empty.
constexpr double kDrainEpsilonMs = 0.01;

}  // namespace

std::string NodePowerName(NodePower state) {
  switch (state) {
    case NodePower::kActive:
      return "active";
    case NodePower::kDraining:
      return "draining";
    case NodePower::kPoweredOff:
      return "powered-off";
  }
  return "?";
}

FleetController::FleetController(Simulator* sim, ClusterDispatcher* dispatcher,
                                 const AutoscaleConfig& config)
    : sim_(sim),
      dispatcher_(dispatcher),
      config_(config),
      policy_(MakeScalingPolicy(config.scaling)),
      last_integrate_(sim->Now()) {
  LITHOS_CHECK(policy_ != nullptr);
  LITHOS_CHECK_GT(config_.control_period, 0);
  LITHOS_CHECK_GT(dispatcher_->config().affinity_target_util, 0.0);
  LITHOS_CHECK_GE(config_.min_nodes, 1);
  LITHOS_CHECK_LE(config_.min_nodes, dispatcher_->config().num_nodes);
  states_.assign(dispatcher_->config().num_nodes, NodePower::kActive);
  remediation_hold_.assign(static_cast<size_t>(dispatcher_->config().num_nodes), 0);

  // Offered load at the diurnal mean and peak: the packing scale reference
  // and the static policy's provisioning envelope.
  mean_offered_ms_per_s_ = dispatcher_->MeanOfferedLoad();
  peak_offered_ms_per_s_ = mean_offered_ms_per_s_ * dispatcher_->PeakNormalizedRps();
}

void FleetController::Start(TimeNs until) { Tick(until); }

void FleetController::ResetAccounting() {
  IntegratePoweredOn();
  powered_on_seconds_ = 0;
  power_ons_ = 0;
  power_offs_ = 0;
}

int FleetController::powered_on_nodes() const {
  int n = 0;
  for (NodePower state : states_) {
    if (state != NodePower::kPoweredOff) {
      ++n;
    }
  }
  return n;
}

double FleetController::PoweredOnNodeSeconds() const {
  const double partial = ToSeconds(sim_->Now() - last_integrate_);
  return powered_on_seconds_ + partial * powered_on_nodes();
}

void FleetController::IntegratePoweredOn() {
  const TimeNs now = sim_->Now();
  powered_on_seconds_ += ToSeconds(now - last_integrate_) * powered_on_nodes();
  last_integrate_ = now;
}

FleetSnapshot FleetController::BuildSnapshot() const {
  FleetSnapshot snap;
  snap.now = sim_->Now();
  snap.control_period = config_.control_period;
  snap.powered_on = powered_on_nodes();
  snap.total_nodes = dispatcher_->config().num_nodes;
  snap.node_capacity_ms_per_s = dispatcher_->config().affinity_target_util * 1000.0;
  snap.offered_now_ms_per_s = dispatcher_->OfferedLoadAt(snap.now);
  snap.predicted_next_ms_per_s = dispatcher_->OfferedLoadAt(snap.now + config_.control_period);
  const double period_s = ToSeconds(config_.control_period);
  if (first_tick_ || period_s <= 0) {
    // No trailing window yet: seed the reactive estimate with the current
    // offered load so the first tick is sane under every policy.
    snap.measured_last_period_ms_per_s = snap.offered_now_ms_per_s;
  } else {
    snap.measured_last_period_ms_per_s =
        (dispatcher_->dispatched_request_ms() - last_dispatched_ms_) / period_s;
  }
  for (double ms : dispatcher_->outstanding_ms()) {
    snap.backlog_ms += ms;
  }
  snap.peak_ms_per_s = peak_offered_ms_per_s_;
  return snap;
}

bool FleetController::ApplyLifecycle(int desired) {
  bool changed = false;
  const int total = static_cast<int>(states_.size());
  int activated = 0;
  for (int n = 0; n < total; ++n) {
    // Crashed or partitioned nodes are never part of the active set; a node
    // the fault layer failed while Active transitions to Draining here (its
    // queued work was already written off — the state just burns out the
    // in-flight kernels before CompleteDrains gates the host dark). A
    // partitioned node likewise drains out of rotation, but keeps its work.
    const bool wanted = activated < desired && !dispatcher_->NodeFailed(n) &&
                        !dispatcher_->NodePartitioned(n) &&
                        remediation_hold_[static_cast<size_t>(n)] == 0;
    if (wanted) {
      ++activated;
      if (states_[n] == NodePower::kPoweredOff) {
        dispatcher_->PowerGateNode(n, false);
        ++power_ons_;
        if (trace_ != nullptr) {
          trace_->Append(sim_->Now(), TraceLayer::kControl, TraceKind::kPowerOn,
                         n, dispatcher_->ZoneOfNode(n), -1, 0);
        }
      }
      if (states_[n] != NodePower::kActive) {
        states_[n] = NodePower::kActive;
        dispatcher_->SetNodeActive(n, true);
        changed = true;
      }
    } else if (states_[n] == NodePower::kActive) {
      states_[n] = NodePower::kDraining;
      dispatcher_->SetNodeActive(n, false);
      changed = true;
      if (trace_ != nullptr) {
        trace_->Append(sim_->Now(), TraceLayer::kControl, TraceKind::kDrainBegin,
                       n, dispatcher_->ZoneOfNode(n), -1, 0);
      }
    }
  }
  return changed;
}

void FleetController::RequestDrain(int node) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, static_cast<int>(states_.size()));
  remediation_hold_[static_cast<size_t>(node)] = 1;
}

void FleetController::ReleaseDrain(int node) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, static_cast<int>(states_.size()));
  remediation_hold_[static_cast<size_t>(node)] = 0;
}

bool FleetController::DrainHeld(int node) const {
  return remediation_hold_[static_cast<size_t>(node)] != 0;
}

bool FleetController::HasStrandedReplicas() const {
  const Placer& placer = static_cast<const ClusterDispatcher*>(dispatcher_)->placer();
  for (int m = 0; m < placer.num_models(); ++m) {
    for (int node : placer.ReplicaNodes(m)) {
      if (states_[node] != NodePower::kActive) {
        return true;
      }
    }
  }
  return false;
}

void FleetController::Rebalance(double demand_ms_per_s) {
  const std::vector<FleetModel>& models = dispatcher_->models();
  std::vector<int> active;
  for (size_t n = 0; n < states_.size(); ++n) {
    if (states_[n] == NodePower::kActive) {
      active.push_back(static_cast<int>(n));
    }
  }
  if (active.empty()) {
    return;  // every node crashed or draining; nothing to pack onto
  }
  // At region scale, pack over the zone-interleaved order so consolidation
  // fills one node per failure domain before reusing a zone — the same
  // cross-zone anti-affinity the affinity placer starts with.
  const std::vector<int> pack_order = ZoneInterleave(active, dispatcher_->zone_topology());

  // Re-pack at the demanded rate: the same first-fit-decreasing packer the
  // affinity placer uses at construction, scaled from the mean-rate packing
  // to the scaler's current demand estimate.
  const double scale =
      mean_offered_ms_per_s_ > 0 ? demand_ms_per_s / mean_offered_ms_per_s_ : 1.0;
  const ClusterConfig& cluster = dispatcher_->config();
  const std::vector<std::vector<int>> target =
      PackModels(models, pack_order, cluster.aggregate_rps * scale, cluster.affinity_target_util);

  Placer& placer = dispatcher_->placer();
  int budget = config_.max_migrations_per_period;
  for (size_t m = 0; m < models.size(); ++m) {
    const int model = static_cast<int>(m);
    const std::vector<int> current = placer.ReplicaNodes(model);  // copy; mutated below
    std::vector<int> removed, added;
    std::set_difference(current.begin(), current.end(), target[m].begin(), target[m].end(),
                        std::back_inserter(removed));
    std::set_difference(target[m].begin(), target[m].end(), current.begin(), current.end(),
                        std::back_inserter(added));

    // Forced moves first: replicas stranded off the active set — on
    // draining or crashed nodes — must leave for the drain (or recovery)
    // to complete, cap or no cap.
    std::stable_partition(removed.begin(), removed.end(), [this](int node) {
      return states_[node] != NodePower::kActive;
    });

    size_t i = 0;
    size_t j = 0;
    while (i < removed.size() && j < added.size()) {
      const bool forced = states_[removed[i]] != NodePower::kActive;
      if (!forced && budget <= 0) {
        break;  // partitioned: everything after is unforced too
      }
      // A crashed or partitioned source takes MigrateModel's restore-only
      // recovery path.
      if (dispatcher_->MigrateModel(model, removed[i], added[j]) && !forced) {
        --budget;
      }
      ++i;
      ++j;
    }
    for (; i < removed.size(); ++i) {  // replica count shrinking
      const bool forced = states_[removed[i]] != NodePower::kActive;
      if (!forced && budget <= 0) {
        continue;
      }
      if (dispatcher_->RemoveModelReplica(model, removed[i]) && !forced) {
        --budget;
      }
    }
    for (; j < added.size() && budget > 0; ++j) {  // replica count growing
      if (dispatcher_->AddModelReplica(model, added[j])) {
        --budget;
      }
    }
  }
}

void FleetController::CompleteDrains() {
  const std::vector<double>& outstanding = dispatcher_->outstanding_ms();
  for (size_t n = 0; n < states_.size(); ++n) {
    const int node = static_cast<int>(n);
    // A partitioned node is never gated: it is still computing (and holding
    // deferred results), just unreachable — power stays on until it heals.
    if (states_[n] == NodePower::kDraining &&
        !dispatcher_->NodePartitioned(static_cast<int>(n)) &&
        outstanding[n] <= kDrainEpsilonMs &&
        dispatcher_->nodes()[n]->engine()->NumRunningGrants() == 0) {
      dispatcher_->PowerGateNode(node, true);
      states_[n] = NodePower::kPoweredOff;
      ++power_offs_;
      if (trace_ != nullptr) {
        trace_->Append(sim_->Now(), TraceLayer::kControl, TraceKind::kPowerOff,
                       node, dispatcher_->ZoneOfNode(node), -1, 0);
      }
    }
  }
}

void FleetController::Tick(TimeNs until) {
  ++ticks_;
  IntegratePoweredOn();

  const FleetSnapshot snap = BuildSnapshot();
  const double demand = policy_->DemandGpuMsPerSec(snap);
  int desired =
      static_cast<int>(std::ceil(demand / snap.node_capacity_ms_per_s - 1e-9));
  desired = std::clamp(desired, config_.min_nodes, snap.total_nodes);

  // Scale-down hysteresis: grow immediately, shed only after the demand has
  // stayed below the current provision for kScaleDownPatience ticks.
  const int provisioned = powered_on_nodes();
  if (desired < provisioned) {
    ++below_ticks_;
    if (below_ticks_ < kScaleDownPatience) {
      desired = provisioned;
    }
  } else {
    below_ticks_ = 0;
  }

  if (trace_ != nullptr) {
    trace_->Append(sim_->Now(), TraceLayer::kControl, TraceKind::kScaleTarget,
                   -1, -1, desired, provisioned);
  }
  const bool changed = ApplyLifecycle(desired);
  // Re-pack when the active set moved, when replicas are stranded on
  // non-active nodes (capped migrations retry next tick), or when the fleet
  // is overloaded — more than one control period of queued work means the
  // current packing is losing and must re-spread even though the active set
  // is stable. A steady, healthy pool never churns placement.
  const bool overloaded =
      snap.backlog_ms >
      snap.powered_on * snap.node_capacity_ms_per_s * ToSeconds(config_.control_period);
  if (dispatcher_->config().policy == PlacementPolicy::kModelAffinity &&
      (changed || overloaded || force_rebalance_ || HasStrandedReplicas())) {
    force_rebalance_ = false;
    // Pack at the demand clamped to the diurnal peak: the backlog term in
    // `demand` buys nodes (capacity), but letting it inflate the packing
    // rate makes every bin overflow and first-fit concentrates the overflow
    // on whichever node just joined empty — the opposite of re-spreading.
    Rebalance(std::min(demand, snap.peak_ms_per_s));
  }
  CompleteDrains();

  first_tick_ = false;
  last_dispatched_ms_ = dispatcher_->dispatched_request_ms();
  if (sim_->Now() + config_.control_period < until) {
    sim_->ScheduleAfter(config_.control_period, [this, until] { Tick(until); });
  }
}

AutoscaleResult RunClusterAutoscale(const AutoscaleConfig& config) {
  Simulator sim;
  ClusterDispatcher dispatcher(&sim, config.cluster);
  FleetController controller(&sim, &dispatcher, config);

  const TimeNs horizon = config.cluster.warmup + config.cluster.duration;
  dispatcher.SetWarmupEnd(config.cluster.warmup);
  dispatcher.StartArrivals(horizon);
  controller.Start(horizon);
  sim.ScheduleAt(config.cluster.warmup, [&dispatcher, &controller] {
    dispatcher.BeginMeasurement();
    controller.ResetAccounting();
  });
  sim.RunUntil(horizon);

  AutoscaleResult result;
  result.scaling = config.scaling;
  result.cluster = dispatcher.Collect(config.cluster.duration);
  result.sim = sim.counters();

  const double secs = ToSeconds(config.cluster.duration);
  result.days = config.cluster.seconds_per_day > 0 ? secs / config.cluster.seconds_per_day : 1.0;
  const double powered_on_seconds = controller.PoweredOnNodeSeconds();
  result.mean_powered_on = secs > 0 ? powered_on_seconds / secs : 0.0;
  result.gpu_hours_per_day = result.mean_powered_on * 24.0;
  result.provisioned_utilization =
      powered_on_seconds > 0
          ? result.cluster.completed_request_gpu_ms / (powered_on_seconds * 1000.0)
          : 0.0;
  double joules = 0;
  for (const ClusterNodeStats& node : result.cluster.nodes) {
    joules += node.energy_joules;
  }
  result.joules_per_day = result.days > 0 ? joules / result.days : joules;
  result.migrations = result.cluster.migrations;
  result.migration_gpu_ms = result.cluster.migration_gpu_ms;
  result.power_ons = controller.power_ons();
  result.power_offs = controller.power_offs();
  return result;
}

}  // namespace lithos
