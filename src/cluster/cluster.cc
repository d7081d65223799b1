#include "src/cluster/cluster.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/gpu/kernel.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"

namespace lithos {

namespace {

// Gray-node breaker: after an attempt times out on a node, new attempts for
// that model steer around the (model, node) pair for this window; a
// successful completion there clears it early. Queue-depth admission alone
// cannot see a node whose drain rate silently degraded (stream interference,
// switch-kernel churn) — the breaker closes the loop with observed timeouts.
constexpr DurationNs kBreakerWindow = FromMillis(500);

// Per-model retry budget: retries for a model are allowed while
//   lifetime_retries(m) < kRetryBudgetFraction * lifetime_dispatched(m)
//                         + kRetryBudgetFloor.
// Caps retry storms during correlated failures (a meltdown cannot more than
// ~1.2x the offered load) while leaving isolated faults fully retryable.
constexpr double kRetryBudgetFraction = 0.2;
constexpr double kRetryBudgetFloor = 32;

// Model-switch cost in GPU ms per unit of (normalized) model size, charged
// when a node's previously served model differs from the incoming one.
constexpr double kSwitchCostMsPerSize = 0.8;
// Live-migration cost in GPU ms per unit of model size, split evenly between
// a memory-bound checkpoint kernel on the source node and a restore kernel on
// the destination (PhoenixOS-style OS-level GPU checkpoint/transfer/restore;
// see docs/autoscale.md).
constexpr double kMigrationCostMsPerSize = 2.5;

}  // namespace

// --- GpuNode -----------------------------------------------------------------

GpuNode::GpuNode(Simulator* sim, int id, const GpuSpec& spec, SystemKind system,
                 const LithosConfig& config)
    : sim_(sim),
      id_(id),
      system_(system),
      engine_(sim, spec),
      driver_(sim, &engine_),
      backend_(MakeBackend(system, sim, &engine_, config)) {
  driver_.SetBackend(backend_.get());
}

// --- ClusterDispatcher -------------------------------------------------------

ClusterDispatcher::ClusterDispatcher(Simulator* sim, const ClusterConfig& config)
    : sim_(sim), config_(config), fleet_(config.seed) {
  LITHOS_CHECK_GT(config_.num_nodes, 0);
  LITHOS_CHECK_GT(config_.aggregate_rps, 0.0);
  LITHOS_CHECK_GE(config_.num_zones, 1);
  LITHOS_CHECK_EQ(config_.num_nodes % config_.num_zones, 0);  // equal-sized zones
  LITHOS_CHECK_GE(config_.racks_per_zone, 1);
  // Equal-sized racks within each zone.
  LITHOS_CHECK_EQ((config_.num_nodes / config_.num_zones) % config_.racks_per_zone, 0);
  // Write-off is the one-attempt setting of the request state machine: no
  // retry, timeout, hedge, or shedding — so it schedules no extra events.
  if (!config_.resilience.enabled) {
    config_.resilience.max_attempts = 1;
    config_.resilience.attempt_timeout = 0;
    config_.resilience.hedge = false;
    config_.resilience.shed_watermark_ms = 0;
  }

  for (int n = 0; n < config_.num_nodes; ++n) {
    nodes_.push_back(
        std::make_unique<GpuNode>(sim_, n, config_.spec, config_.system, LithosConfig{}));
  }

  zone_topo_.num_zones = config_.num_zones;
  zone_topo_.zone_size = config_.num_nodes / config_.num_zones;
  zone_topo_.racks_per_zone = config_.racks_per_zone;
  zone_outstanding_ms_.assign(config_.num_zones, 0.0);

  const std::vector<FleetModel>& models = fleet_.models();
  placer_ = MakePlacer(config_.policy, models, zone_topo_, config_.aggregate_rps,
                       config_.affinity_target_util);

  model_share_ = PopularityShares(models);
  for (size_t i = 0; i < models.size(); ++i) {
    const FleetModel& m = models[i];
    // Request kernel: the model's mean GPU cost per request at full device,
    // with a device-filling grid — inference batches saturate the GPU they
    // run on, so concurrent requests share TPCs and a node behaves like a
    // processor-sharing queue of ~1 GPU-second of work per second.
    const uint32_t blocks = static_cast<uint32_t>(864 + 32 * m.size);
    request_kernels_.push_back(MakeKernel("fleet/" + m.id, blocks, FromMillis(m.cost_ms), 0.92,
                                          0.6, config_.spec));
    // Switch kernel: memory-bound weight load proportional to model size;
    // weakly parallel and frequency-insensitive.
    const double switch_ms = kSwitchCostMsPerSize * m.size;
    switch_kernels_.push_back(
        MakeKernel("load/" + m.id, 256, FromMillis(switch_ms), 0.6, 0.1, config_.spec));
    // Migration halves: checkpoint on the source, restore on the destination.
    // Memory-bound like the switch kernel (weight movement dominates), each
    // carrying half of the size-proportional migration cost.
    const double half_migration_ms = 0.5 * kMigrationCostMsPerSize * m.size;
    checkpoint_kernels_.push_back(
        MakeKernel("ckpt/" + m.id, 256, FromMillis(half_migration_ms), 0.5, 0.1, config_.spec));
    restore_kernels_.push_back(MakeKernel("restore/" + m.id, 256, FromMillis(half_migration_ms),
                                          0.5, 0.1, config_.spec));
    arrival_rng_.emplace_back(config_.seed * 1315423911u + i * 2654435761u + 17);
  }

  node_state_.resize(config_.num_nodes);
  for (NodeState& state : node_state_) {
    state.model_streams.assign(models.size(), nullptr);
  }
  outstanding_ms_.assign(config_.num_nodes, 0.0);

  feed_.node_attempts.assign(config_.num_nodes, 0);
  feed_.node_completions.assign(config_.num_nodes, 0);
  feed_.node_timeouts.assign(config_.num_nodes, 0);
  feed_.pair_completions.assign(models.size() * static_cast<size_t>(config_.num_nodes), 0);
  feed_.pair_latency_ns.assign(models.size() * static_cast<size_t>(config_.num_nodes), 0);

  // Fleet-level accounting as named registry instruments; cache the pointers
  // once so the dispatch/completion hot paths are plain increments.
  ctr_dispatched_ = &metrics_.counter("fleet/dispatched");
  ctr_completed_ = &metrics_.counter("fleet/completed");
  ctr_failed_ = &metrics_.counter("fleet/failed");
  ctr_recoveries_ = &metrics_.counter("fleet/recoveries");
  ctr_migrations_ = &metrics_.counter("fleet/migrations");
  ctr_retries_ = &metrics_.counter("fleet/retries");
  ctr_hedges_ = &metrics_.counter("fleet/hedges");
  ctr_hedge_wins_ = &metrics_.counter("fleet/hedge_wins");
  ctr_timeouts_ = &metrics_.counter("fleet/timeouts");
  ctr_shed_ = &metrics_.counter("fleet/shed");
  ctr_deferred_ = &metrics_.counter("fleet/deferred");
  ctr_deferred_delivered_ = &metrics_.counter("fleet/deferred_delivered");
  ctr_deferred_orphaned_ = &metrics_.counter("fleet/deferred_orphaned");
  g_completed_request_ms_ = &metrics_.gauge("fleet/completed_request_ms");
  g_dispatched_request_ms_ = &metrics_.gauge("fleet/dispatched_request_ms");
  g_migration_gpu_ms_ = &metrics_.gauge("fleet/migration_gpu_ms");
  hist_latency_ms_ = &metrics_.histogram("fleet/latency_ms");

  model_dispatched_.assign(models.size(), 0);
  model_retries_.assign(models.size(), 0);
  quarantine_until_.assign(models.size() * static_cast<size_t>(config_.num_nodes), 0);
  node_quarantine_until_.assign(static_cast<size_t>(config_.num_nodes), 0);
  ctr_node_quarantines_ = &metrics_.counter("fleet/node_quarantines");
  active_node_count_ = config_.num_nodes;  // every node starts in rotation

  // Peak of the diurnal curve, used as the thinning envelope for arrivals.
  peak_norm_ = 1.0;
  if (config_.seconds_per_day > 0) {
    for (double day = 0; day < 1.0; day += 1.0 / 288.0) {
      peak_norm_ = std::max(peak_norm_, fleet_.NormalizedRps(day));
    }
    peak_norm_ *= 1.05;  // margin for the weekly drift term
  }
}

Stream* ClusterDispatcher::StreamFor(int node, int model_index) {
  NodeState& state = node_state_[node];
  Stream*& stream = state.model_streams[model_index];
  if (stream == nullptr) {
    const FleetModel& m = fleet_.models()[model_index];
    Client* client = nodes_[node]->driver()->CuCtxCreate(
        "fleet/" + m.id, PriorityClass::kHighPriority, /*tpc_quota=*/0, m.size);
    stream = nodes_[node]->driver()->CuStreamCreate(client);
  }
  return stream;
}

double ClusterDispatcher::RateNow(int model_index) const {
  double rate = config_.aggregate_rps * model_share_[model_index];
  if (config_.seconds_per_day > 0) {
    const double day = ToSeconds(sim_->Now()) / config_.seconds_per_day;
    rate *= fleet_.NormalizedRps(day);
  }
  return rate;
}

double ClusterDispatcher::MeanOfferedLoad() const {
  double total = 0;
  const std::vector<FleetModel>& models = fleet_.models();
  for (size_t i = 0; i < models.size(); ++i) {
    total += config_.aggregate_rps * model_share_[i] * models[i].cost_ms;
  }
  return total;
}

double ClusterDispatcher::OfferedLoadAt(TimeNs t) const {
  double total = MeanOfferedLoad();
  if (config_.seconds_per_day > 0) {
    total *= fleet_.NormalizedRps(ToSeconds(t) / config_.seconds_per_day);
  }
  return total;
}

void ClusterDispatcher::ScheduleNextArrival(int model_index, TimeNs until) {
  // Non-homogeneous Poisson arrivals by Lewis thinning: draw gaps at the
  // model's peak rate, then accept each candidate with probability
  // rate(now) / peak so per-model traffic tracks the diurnal curve exactly
  // (a gap drawn at trough rate can no longer persist through the peak).
  const double peak_rate = config_.aggregate_rps * model_share_[model_index] * peak_norm_;
  if (peak_rate <= 0) {
    return;
  }
  const DurationNs gap = FromSeconds(arrival_rng_[model_index].Exponential(1.0 / peak_rate));
  const TimeNs at = sim_->Now() + std::max<DurationNs>(gap, 1);
  if (at >= until) {
    return;
  }
  sim_->ScheduleAt(at, [this, model_index, until, peak_rate] {
    if (arrival_rng_[model_index].NextDouble() * peak_rate <= RateNow(model_index)) {
      Dispatch(model_index);
    }
    ScheduleNextArrival(model_index, until);
  });
}

void ClusterDispatcher::StartArrivals(TimeNs until) {
  for (size_t i = 0; i < fleet_.models().size(); ++i) {
    ScheduleNextArrival(static_cast<int>(i), until);
  }
}

void ClusterDispatcher::EmitReq(TraceKind kind, int node, int zone, int32_t arg,
                                uint64_t req_id) {
  if (trace_ == nullptr && span_sink_ == nullptr) {
    return;
  }
  TraceRecord r;
  r.time_ns = sim_->Now();
  r.layer = static_cast<uint8_t>(TraceLayer::kCluster);
  r.kind = static_cast<uint8_t>(kind);
  r.reserved = 0;
  r.node = node;
  r.zone = zone;
  r.arg = arg;
  r.payload = static_cast<int64_t>(req_id);
  if (trace_ != nullptr) {
    trace_->Append(r.time_ns, TraceLayer::kCluster, kind, r.node, r.zone, r.arg,
                   r.payload);
  }
  if (span_sink_ != nullptr) {
    // The sink sees exactly the record the trace got — online span assembly
    // and offline replay are identical by construction.
    span_sink_->Observe(r);
  }
}

void ClusterDispatcher::AddOutstanding(int node, double delta_ms) {
  double& outstanding = outstanding_ms_[node];
  const double before = outstanding;
  outstanding = std::max(0.0, outstanding + delta_ms);
  zone_outstanding_ms_[zone_topo_.ZoneOf(node)] += outstanding - before;
  total_outstanding_ms_ += outstanding - before;
}

void ClusterDispatcher::BeginMeasurement() {
  // The window opens now for every reported statistic: in-flight requests
  // that arrived earlier stay excluded (their completion callbacks compare
  // against warmup_end_), and everything already accumulated is discarded.
  warmup_end_ = sim_->Now();
  for (const std::unique_ptr<GpuNode>& node : nodes_) {
    node->engine()->ResetStats();
  }
  hist_latency_ms_->Clear();
  g_completed_request_ms_->Reset();
  ctr_migrations_->Reset();
  g_migration_gpu_ms_->Reset();
  ctr_recoveries_->Reset();
  for (int n = 0; n < config_.num_nodes; ++n) {
    NodeState& state = node_state_[n];
    state.dispatched_measured = 0;
    state.completed_measured = 0;
    state.switches_measured = 0;
    state.failed_measured = 0;
    state.migrations_in = 0;
    state.migrations_out = 0;
    state.models_seen.clear();
    state.launches_at_window_start = nodes_[n]->driver()->launches_issued();
  }
  unplaced_dispatched_measured_ = 0;
  unplaced_failed_measured_ = 0;
}

void ClusterDispatcher::SetNodeActive(int node, bool active) {
  if (placer_->NodeEnabled(node) != active) {
    active_node_count_ += active ? 1 : -1;
  }
  placer_->SetNodeEnabled(node, active);
}

bool ClusterDispatcher::NodeActive(int node) const { return placer_->NodeEnabled(node); }

void ClusterDispatcher::PowerGateNode(int node, bool gated) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  nodes_[node]->engine()->SetPowerGated(gated);
}

bool ClusterDispatcher::NodeGated(int node) const {
  return nodes_[node]->engine()->power_gated();
}

void ClusterDispatcher::ChargeMigrationKernel(int node, int model_index,
                                              const KernelDesc* kernel) {
  // Migration kernels only ever target live, reachable nodes: a checkpoint
  // runs only on a reachable source, and every restore lands on a survivor.
  LITHOS_CHECK(!Unreachable(node));
  const FleetModel& model = fleet_.models()[model_index];
  const double half_ms = 0.5 * kMigrationCostMsPerSize * model.size;
  Stream* stream = StreamFor(node, model_index);
  Driver* driver = nodes_[node]->driver();
  driver->CuLaunchKernel(stream, kernel);
  AddOutstanding(node, half_ms);
  if (sim_->Now() >= warmup_end_) {
    g_migration_gpu_ms_->Add(half_ms);
  }
  const uint64_t epoch = node_state_[node].epoch;
  driver->CuStreamAddCallback(stream, [this, node, half_ms, epoch] {
    if (node_state_[node].epoch != epoch) {
      return;  // the node crashed mid-migration; FailNode wrote this off
    }
    AddOutstanding(node, -half_ms);
  });
}

bool ClusterDispatcher::MigrateModel(int model_index, int from, int to) {
  LITHOS_CHECK_GE(from, 0);
  LITHOS_CHECK_LT(from, config_.num_nodes);
  if (from == to || !placer_->MoveReplica(model_index, from, to)) {
    return false;
  }
  // Arrivals are redirected from this instant (the placer now routes the
  // model to `to`); the checkpoint drains FIFO behind the replica's
  // in-flight requests on `from`, and the restore serialises ahead of the
  // first redirected request on `to`. Off an unreachable source the move is
  // a restore-only recovery: the checkpoint half is sunk cost (PhoenixOS
  // restores from the latest checkpoint image).
  const bool recovery = Unreachable(from);
  const bool measured = sim_->Now() >= warmup_end_;
  if (recovery) {
    ctr_recoveries_->Inc();
    ++recovery_actions_;
  } else if (measured) {
    ctr_migrations_->Inc();
    ++node_state_[from].migrations_out;
  }
  if (measured) {
    ++node_state_[to].migrations_in;
  }
  if (trace_ != nullptr) {
    trace_->Append(sim_->Now(), TraceLayer::kCluster,
                   recovery ? TraceKind::kRecoverReplica : TraceKind::kMigration, to,
                   zone_topo_.ZoneOf(to), model_index, from);
  }
  if (!recovery) {
    ChargeMigrationKernel(from, model_index, &checkpoint_kernels_[model_index]);
  }
  ChargeMigrationKernel(to, model_index, &restore_kernels_[model_index]);
  return true;
}

bool ClusterDispatcher::AddModelReplica(int model_index, int node) {
  if (!placer_->AddReplica(model_index, node)) {
    return false;
  }
  if (sim_->Now() >= warmup_end_) {
    ++node_state_[node].migrations_in;
  }
  ChargeMigrationKernel(node, model_index, &restore_kernels_[model_index]);
  return true;
}

bool ClusterDispatcher::RemoveModelReplica(int model_index, int node) {
  if (!placer_->RemoveReplica(model_index, node)) {
    return false;
  }
  if (Unreachable(node)) {
    // A copy lost with its node: there is nothing left to checkpoint.
    ++recovery_actions_;
    if (trace_ != nullptr) {
      trace_->Append(sim_->Now(), TraceLayer::kCluster, TraceKind::kDropLostReplica,
                     node, zone_topo_.ZoneOf(node), model_index, 0);
    }
    return true;
  }
  if (sim_->Now() >= warmup_end_) {
    ++node_state_[node].migrations_out;
  }
  ChargeMigrationKernel(node, model_index, &checkpoint_kernels_[model_index]);
  return true;
}

// --- Fault hooks -------------------------------------------------------------

void ClusterDispatcher::FailNode(int node) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  NodeState& state = node_state_[node];
  if (state.crash_causes++ > 0) {
    return;  // already down: one more cause to repair
  }
  ++state.epoch;  // orphans every in-flight completion callback
  state.failed_at = sim_->Now();
  ++failed_node_count_;
  if (trace_ != nullptr) {
    // payload = queued GPU-time written off, in ns.
    trace_->Append(sim_->Now(), TraceLayer::kCluster, TraceKind::kNodeCrash,
                   node, zone_topo_.ZoneOf(node), -1,
                   static_cast<int64_t>(outstanding_ms_[node] * 1e6));
  }
  // Device memory dies with the host: a revived node cold-starts its first
  // request (model-switch charge) like any fresh placement.
  state.last_model = -1;
  SetNodeActive(node, false);
  AddOutstanding(node, -outstanding_ms_[node]);  // queued work is lost
}

void ClusterDispatcher::ReviveNode(int node) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  NodeState& state = node_state_[node];
  if (state.crash_causes == 0 || --state.crash_causes > 0) {
    return;  // healthy, or another cause still holds the node down
  }
  --failed_node_count_;
  if (trace_ != nullptr) {
    // payload = how long the node was down, closing the crash span.
    trace_->Append(sim_->Now(), TraceLayer::kCluster, TraceKind::kNodeRevive,
                   node, zone_topo_.ZoneOf(node), -1,
                   sim_->Now() - state.failed_at);
  }
  // Deliberately *not* re-activated here: the repaired host rejoins the
  // pool the same way a trough-gated node does — when the control plane
  // decides it is needed.
}

bool ClusterDispatcher::NodeFailed(int node) const {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  return node_state_[node].crash_causes > 0;
}

void ClusterDispatcher::PartitionNode(int node) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  NodeState& state = node_state_[node];
  if (state.partition_causes++ > 0) {
    return;  // already partitioned: one more cause to heal
  }
  state.partitioned_at = sim_->Now();
  ++partitioned_node_count_;
  if (trace_ != nullptr) {
    // payload = GPU work the node keeps computing behind the partition, ns.
    trace_->Append(sim_->Now(), TraceLayer::kCluster, TraceKind::kNodePartition,
                   node, zone_topo_.ZoneOf(node), -1,
                   static_cast<int64_t>(outstanding_ms_[node] * 1e6));
  }
  // Unreachable nodes leave the rotation, but — unlike FailNode — keep their
  // epoch, queued work, and device memory: the GPU is healthy, only the
  // network path died.
  SetNodeActive(node, false);
}

void ClusterDispatcher::HealNode(int node) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  NodeState& state = node_state_[node];
  if (state.partition_causes == 0 || --state.partition_causes > 0) {
    return;  // reachable, or another cause still holds the partition
  }
  --partitioned_node_count_;
  if (trace_ != nullptr) {
    // payload = partition duration, closing the partitioned span.
    trace_->Append(sim_->Now(), TraceLayer::kCluster, TraceKind::kNodeHeal,
                   node, zone_topo_.ZoneOf(node), -1,
                   sim_->Now() - state.partitioned_at);
  }
  // Deliver the buffered completions in finish order. A crash behind the
  // partition (stale epoch) lost the buffered result; a request settled by a
  // retry or hedge in the meantime (stale gen) makes the delivery a
  // duplicate. Either way the completion is orphaned.
  std::vector<DeferredCompletion> deferred;
  deferred.swap(state.deferred);
  for (const DeferredCompletion& d : deferred) {
    const bool live = LiveRequest(d.slot, d.gen) != nullptr;
    const bool stale = state.epoch != d.epoch;
    if (live && !stale) {
      OnAttemptComplete(d.slot, d.gen, d.attempt, /*deferred=*/true);
      continue;
    }
    ctr_deferred_orphaned_->Inc();
    if (trace_ != nullptr) {
      trace_->Append(sim_->Now(), TraceLayer::kCluster, TraceKind::kDeferredOrphaned,
                     node, zone_topo_.ZoneOf(node), -1, 0);
    }
    if (live) {
      OnAttemptOrphaned(d.slot, d.gen, d.attempt);
    }
  }
  // Like ReviveNode, deliberately *not* re-activated here: the control plane
  // folds the healed node back into rotation at its next tick.
}

bool ClusterDispatcher::NodePartitioned(int node) const {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  return node_state_[node].partition_causes > 0;
}

void ClusterDispatcher::QuarantineNode(int node, TimeNs until) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  TimeNs& q = node_quarantine_until_[static_cast<size_t>(node)];
  if (until > q) {
    q = until;
  }
  ctr_node_quarantines_->Inc();
}

void ClusterDispatcher::UnquarantineNode(int node) {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  node_quarantine_until_[static_cast<size_t>(node)] = 0;
}

bool ClusterDispatcher::NodeQuarantined(int node) const {
  LITHOS_CHECK_GE(node, 0);
  LITHOS_CHECK_LT(node, config_.num_nodes);
  return node_quarantine_until_[static_cast<size_t>(node)] > sim_->Now();
}

double ClusterDispatcher::HerdImbalance() const {
  double sum = 0;
  double worst = 0;
  int in_rotation = 0;
  for (int n = 0; n < config_.num_nodes; ++n) {
    if (Unreachable(n) || nodes_[n]->engine()->power_gated()) {
      continue;
    }
    const double queued = outstanding_ms_[n];
    sum += queued;
    worst = std::max(worst, queued);
    ++in_rotation;
  }
  if (in_rotation == 0 || sum <= 0) {
    return 0;
  }
  return worst / (sum / in_rotation);
}

// --- Request state machine ---------------------------------------------------

ClusterDispatcher::RequestState* ClusterDispatcher::LiveRequest(uint32_t slot, uint32_t gen) {
  if (slot >= requests_.size() || !requests_[slot].in_use || requests_[slot].gen != gen) {
    return nullptr;
  }
  return &requests_[slot];
}

int ClusterDispatcher::Dispatch(int model_index) {
  const ResilienceConfig& rc = config_.resilience;
  const FleetModel& model = fleet_.models()[model_index];
  ctr_dispatched_->Inc();
  g_dispatched_request_ms_->Add(model.cost_ms);
  ++model_dispatched_[model_index];
  const uint64_t rid = next_request_id_++;
  EmitReq(TraceKind::kReqArrival, -1, -1, model_index, rid);

  // Admission control: above the outstanding-work watermark the fleet is
  // melting down — reject now (cheap, bounded latency for what is admitted)
  // rather than queue into the collapse.
  if (rc.shed_watermark_ms > 0 &&
      total_outstanding_ms_ > rc.shed_watermark_ms * std::max(1, active_node_count_)) {
    ctr_shed_->Inc();
    EmitReq(TraceKind::kReqShed, -1, -1, model_index, rid);
    return -1;
  }

  uint32_t slot;
  if (!free_request_slots_.empty()) {
    slot = free_request_slots_.back();
    free_request_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(requests_.size());
    requests_.emplace_back();
  }
  RequestState& req = requests_[slot];
  ++req.gen;
  req.in_use = true;
  req.hedged = !rc.hedge;  // hedging disabled == already hedged
  req.model = model_index;
  req.req_id = rid;
  req.arrival = sim_->Now();
  req.attempts = 0;
  req.timer_armed = false;
  req.hedge_armed = false;
  req.tries.clear();

  const int node = PickAttemptNode(model_index, req, /*hedge=*/false);
  if (node < 0) {
    // Every eligible node is crashed or partitioned: treat like a dead
    // attempt and go straight to the backoff/retry path.
    ++req.attempts;
    TryRetryOrFail(slot);
    return -1;
  }
  LaunchAttempt(slot, node, /*is_hedge=*/false);
  if (rc.hedge) {
    const uint32_t gen = req.gen;
    req.hedge_event = sim_->ScheduleAfter(rc.hedge_delay, [this, slot, gen] {
      RequestState* r = LiveRequest(slot, gen);
      if (r == nullptr) {
        return;
      }
      r->hedge_armed = false;
      if (r->hedged) {
        return;
      }
      r->hedged = true;
      const int target = PickAttemptNode(r->model, *r, /*hedge=*/true);
      if (target < 0) {
        return;  // no distinct healthy node to hedge onto
      }
      ctr_hedges_->Inc();
      LaunchAttempt(slot, target, /*is_hedge=*/true);
    });
    req.hedge_armed = true;
  }
  return node;
}

int ClusterDispatcher::PickAttemptNode(int model_index, const RequestState& req, bool hedge) {
  auto tried = [&req](int n) {
    for (const AttemptState& a : req.tries) {
      if (a.node == n) {
        return true;
      }
    }
    return false;
  };
  auto healthy = [this](int n) {
    // Gate check matters for repaired hosts: between ReviveNode and the next
    // control tick re-activating them, the node looks fine in node_state_
    // but its engine is still powered dark and cannot accept a launch.
    return !Unreachable(n) && !nodes_[n]->engine()->power_gated();
  };
  // A node whose queued work plus this request's cost already exceeds the
  // attempt timeout is a black hole: the attempt is guaranteed to time out,
  // burn its slot, and retry — which is exactly how a backlogged survivor
  // stays backlogged forever after recovery (every completion it produces
  // belongs to a request that already gave up on it). Steer around such
  // nodes while any unsaturated candidate exists.
  const double timeout_ms =
      static_cast<double>(config_.resilience.attempt_timeout) / 1e6;
  const FleetModel& model = fleet_.models()[model_index];
  const double switch_ms = kSwitchCostMsPerSize * model.size;
  auto doomed = [&](int n) {
    if (node_quarantine_until_[static_cast<size_t>(n)] > sim_->Now()) {
      return true;  // remediation quarantined the whole node
    }
    const size_t pair = static_cast<size_t>(model_index) * config_.num_nodes + n;
    if (quarantine_until_[pair] > sim_->Now()) {
      return true;  // breaker open: a recent attempt timed out on this pair
    }
    const double queued = outstanding_ms_[n] + model.cost_ms +
                          (node_state_[n].last_model == model_index ? 0.0 : switch_ms);
    return timeout_ms > 0 && queued >= timeout_ms;
  };
  // The placer's pick is the common case; it only needs overriding when its
  // last-resort fallback lands on an unreachable or saturated node, or when
  // the request already tried it — a retry after a timeout must not re-join
  // the same backlog, and a hedge needs a node distinct from every prior
  // attempt.
  const int placed = placer_->Place(model_index, outstanding_ms_, zone_outstanding_ms_);
  if (placed >= 0 && placed < config_.num_nodes && healthy(placed) && !tried(placed) &&
      !doomed(placed)) {
    return placed;
  }
  // Deterministic fallback: the least-outstanding healthy node of the first
  // tier that has one. Tiers scan the model's eligible set (sorted) or the
  // whole fleet in id order with a strict comparison, so ties break to the
  // lowest node id.
  struct Tier {
    bool whole_fleet;  // else the model's eligible nodes only
    bool untried;      // skip nodes this request already tried
    bool viable;       // skip quarantined or saturated (doomed) nodes
  };
  static constexpr Tier kTiers[] = {
      {false, true, true},    // an untried, unsaturated replica
      // Escaping to a fresh node matters more than model affinity: pay the
      // model switch (the placers' last resort for a fully-dead replica set).
      {true, true, true},
      {true, true, false},    // everything viable is saturated: accept the timeout
      {false, false, false},  // nothing untried anywhere: reuse a tried replica
      {true, false, false},
  };
  const std::vector<int> eligible = placer_->EligibleNodes(model_index);
  for (const Tier& tier : kTiers) {
    int best = -1;
    auto consider = [&](int n) {
      if (healthy(n) && !(tier.untried && tried(n)) && !(tier.viable && doomed(n)) &&
          (best < 0 || outstanding_ms_[n] < outstanding_ms_[best])) {
        best = n;
      }
    };
    if (tier.whole_fleet) {
      for (int n = 0; n < config_.num_nodes; ++n) {
        consider(n);
      }
    } else {
      for (const int n : eligible) {
        consider(n);
      }
    }
    if (best >= 0 || hedge) {
      return best;  // a hedge without a viable distinct replica is skipped
    }
  }
  return -1;
}

void ClusterDispatcher::LaunchAttempt(uint32_t slot, int node, bool is_hedge) {
  RequestState& req = requests_[slot];
  NodeState& state = node_state_[node];
  const FleetModel& model = fleet_.models()[req.model];
  const bool measured = sim_->Now() >= warmup_end_;
  if (req.tries.empty() && measured) {
    ++state.dispatched_measured;  // the request itself counts once
  }
  state.models_seen.insert(req.model);

  Stream* stream = StreamFor(node, req.model);
  Driver* driver = nodes_[node]->driver();

  // Charge a model switch when this node's previous launch served another
  // model (weight load / cache refill before the request can run); a node's
  // very first request is a cold-start load and counts too. The switch is
  // not cancellable work — once the weights start loading the node pays for
  // them however the request ends — so when the attempt can be cancelled
  // (timeout or hedge on) the switch tracks its outstanding time through its
  // own marker rather than the attempt's clawed-back cost. An attempt that
  // can never be cancelled carries both on its completion marker.
  const bool cancellable = config_.resilience.attempt_timeout > 0 || config_.resilience.hedge;
  double cost = model.cost_ms;
  if (state.last_model != req.model) {
    const double switch_ms = kSwitchCostMsPerSize * model.size;
    driver->CuLaunchKernel(stream, &switch_kernels_[req.model]);
    if (cancellable) {
      AddOutstanding(node, switch_ms);
      const uint64_t switch_epoch = state.epoch;
      driver->CuStreamAddCallback(stream, [this, node, switch_ms, switch_epoch] {
        if (node_state_[node].epoch == switch_epoch) {
          AddOutstanding(node, -switch_ms);
        }
      });
    } else {
      cost += switch_ms;
    }
    if (measured) {
      ++state.switches_measured;
    }
    state.last_model = req.model;
  }

  AttemptState attempt;
  attempt.node = node;
  attempt.stream = stream;
  attempt.kernel_id = driver->CuLaunchKernel(stream, &request_kernels_[req.model]);
  attempt.cost_ms = cost;
  attempt.epoch = state.epoch;
  attempt.launch = sim_->Now();
  attempt.open = true;
  attempt.hedge = is_hedge;

  const int attempt_idx = static_cast<int>(req.tries.size());
  req.tries.push_back(attempt);
  EmitReq(TraceKind::kReqAttemptLaunch, node, zone_topo_.ZoneOf(node),
          ReqArg(attempt_idx, is_hedge), req.req_id);
  ++feed_.node_attempts[node];
  AddOutstanding(node, cost);
  const uint32_t gen = req.gen;
  const uint64_t epoch = state.epoch;
  const uint64_t rid = req.req_id;
  req.tries[attempt_idx].marker_id =
      driver->CuStreamAddCallback(stream, [this, slot, gen, attempt_idx, node, cost, epoch,
                                           rid] {
        NodeState& ns = node_state_[node];
        if (ns.epoch != epoch) {
          // Node crashed under the attempt; FailNode already wrote off the
          // outstanding work.
          OnAttemptOrphaned(slot, gen, attempt_idx);
          return;
        }
        AddOutstanding(node, -cost);
        if (ns.partition_causes > 0) {
          // The node finished the work but cannot deliver the result: buffer
          // it for heal-time delivery (or orphaning, if the node crashes
          // first).
          ctr_deferred_->Inc();
          EmitReq(TraceKind::kReqDeferredFinish, node, zone_topo_.ZoneOf(node),
                  ReqArg(attempt_idx, false), rid);
          ns.deferred.push_back({epoch, slot, gen, attempt_idx});
          return;
        }
        OnAttemptComplete(slot, gen, attempt_idx, /*deferred=*/false);
      });
  if (!is_hedge) {
    ++req.attempts;
    ArmAttemptTimer(slot);
  }
}

void ClusterDispatcher::ArmAttemptTimer(uint32_t slot) {
  RequestState& req = requests_[slot];
  if (req.timer_armed) {
    sim_->Cancel(req.timer_event);
    req.timer_armed = false;
  }
  if (config_.resilience.attempt_timeout <= 0) {
    return;  // 0 disables per-attempt timeouts
  }
  const uint32_t gen = req.gen;
  req.timer_event = sim_->ScheduleAfter(config_.resilience.attempt_timeout,
                                        [this, slot, gen] { OnAttemptTimeout(slot, gen); });
  req.timer_armed = true;
}

void ClusterDispatcher::OnAttemptTimeout(uint32_t slot, uint32_t gen) {
  RequestState* live = LiveRequest(slot, gen);
  if (live == nullptr) {
    return;
  }
  RequestState& req = *live;
  req.timer_armed = false;
  ctr_timeouts_->Inc();
  if (!req.tries.empty()) {
    const int last = static_cast<int>(req.tries.size()) - 1;
    const int node = req.tries[last].node;
    quarantine_until_[static_cast<size_t>(req.model) * config_.num_nodes + node] =
        sim_->Now() + kBreakerWindow;
    ++feed_.node_timeouts[node];
    EmitReq(TraceKind::kReqAttemptTimeout, node, zone_topo_.ZoneOf(node),
            ReqArg(last, false), req.req_id);
  }
  // Claw back whatever can be clawed back; attempts that cannot be cancelled
  // (crashed or partitioned nodes) stay open and race the retry — first
  // completion still wins.
  for (int i = 0; i < static_cast<int>(req.tries.size()); ++i) {
    if (req.tries[i].open) {
      TryCancelAttempt(slot, i);
    }
  }
  TryRetryOrFail(slot);
}

bool ClusterDispatcher::TryCancelAttempt(uint32_t slot, int attempt) {
  RequestState& req = requests_[slot];
  AttemptState& a = req.tries[attempt];
  if (!a.open) {
    return false;
  }
  if (node_state_[a.node].epoch != a.epoch || Unreachable(a.node)) {
    return false;  // unreachable: nothing to send the cancel to
  }
  Driver* driver = nodes_[a.node]->driver();
  // Marker first: cancelling an in-flight head pops it, which drains queued
  // markers — the completion callback must already be gone by then.
  if (!driver->CancelLaunch(a.stream, a.marker_id)) {
    return false;  // completion already delivered (or about to be)
  }
  if (driver->CancelLaunch(a.stream, a.kernel_id)) {
    AddOutstanding(a.node, -a.cost_ms);  // clawed back before it ran
  } else {
    // The kernel is on the device and this backend cannot abort it: the work
    // burns to completion. Track its outstanding time with a replacement
    // decrement-only marker (the result is discarded either way).
    const int node = a.node;
    const double cost = a.cost_ms;
    const uint64_t epoch = a.epoch;
    driver->CuStreamAddCallback(a.stream, [this, node, cost, epoch] {
      if (node_state_[node].epoch == epoch) {
        AddOutstanding(node, -cost);
      }
    });
  }
  a.open = false;
  EmitReq(TraceKind::kReqAttemptCancel, a.node, zone_topo_.ZoneOf(a.node),
          ReqArg(attempt, a.hedge), req.req_id);
  return true;
}

bool ClusterDispatcher::RetryBudgetAllows(int model_index) const {
  const double budget =
      kRetryBudgetFraction * static_cast<double>(model_dispatched_[model_index]) +
      kRetryBudgetFloor;
  return static_cast<double>(model_retries_[model_index]) < budget;
}

void ClusterDispatcher::TryRetryOrFail(uint32_t slot) {
  RequestState& req = requests_[slot];
  const ResilienceConfig& rc = config_.resilience;
  if (req.timer_armed) {
    sim_->Cancel(req.timer_event);
    req.timer_armed = false;
  }
  if (req.attempts < rc.max_attempts && RetryBudgetAllows(req.model)) {
    const int shift = std::min(std::max(req.attempts - 1, 0), 30);
    const DurationNs backoff =
        std::min<DurationNs>(rc.backoff_cap, rc.backoff_base << shift);
    const uint32_t gen = req.gen;
    req.timer_event = sim_->ScheduleAfter(backoff, [this, slot, gen] {
      RequestState* r = LiveRequest(slot, gen);
      if (r == nullptr) {
        return;
      }
      r->timer_armed = false;
      const int node = PickAttemptNode(r->model, *r, /*hedge=*/false);
      if (node < 0) {
        ++r->attempts;  // consumed: nowhere to go this round
        TryRetryOrFail(slot);
        return;
      }
      ++model_retries_[r->model];
      ctr_retries_->Inc();
      LaunchAttempt(slot, node, /*is_hedge=*/false);
    });
    req.timer_armed = true;
    return;
  }
  for (const AttemptState& a : req.tries) {
    if (a.open) {
      return;  // an uncancellable attempt may still deliver (e.g. at heal)
    }
  }
  FailRequest(slot);
}

void ClusterDispatcher::OnAttemptOrphaned(uint32_t slot, uint32_t gen, int attempt) {
  RequestState* live = LiveRequest(slot, gen);
  if (live == nullptr) {
    return;  // the request already settled; nothing left to do
  }
  RequestState& req = *live;
  AttemptState& a = req.tries[attempt];
  if (!a.open) {
    return;
  }
  a.open = false;
  EmitReq(TraceKind::kReqAttemptOrphan, a.node, zone_topo_.ZoneOf(a.node),
          ReqArg(attempt, a.hedge), req.req_id);
  for (const AttemptState& other : req.tries) {
    if (other.open) {
      return;  // another attempt is still racing; the timeout covers it
    }
  }
  TryRetryOrFail(slot);
}

void ClusterDispatcher::OnAttemptComplete(uint32_t slot, uint32_t gen, int attempt,
                                          bool deferred) {
  RequestState* live = LiveRequest(slot, gen);
  if (live == nullptr) {
    return;  // duplicate completion after the request settled
  }
  RequestState& req = *live;
  AttemptState& a = req.tries[attempt];
  if (!a.open) {
    return;
  }
  a.open = false;
  DisarmTimers(slot);
  ctr_completed_->Inc();
  ++feed_.node_completions[a.node];
  if (!deferred) {
    // Deferred deliveries carry no latency sample: the heal-time burst would
    // poison the pair baseline and mask the partition's silence.
    const size_t pair = static_cast<size_t>(req.model) * config_.num_nodes + a.node;
    ++feed_.pair_completions[pair];
    feed_.pair_latency_ns[pair] += sim_->Now() - a.launch;
  }
  quarantine_until_[static_cast<size_t>(req.model) * config_.num_nodes + a.node] = 0;
  if (a.hedge) {
    ctr_hedge_wins_->Inc();
  }
  if (deferred) {
    ctr_deferred_delivered_->Inc();
  }
  EmitReq(TraceKind::kReqComplete, a.node, zone_topo_.ZoneOf(a.node),
          ReqArg(attempt, deferred), req.req_id);
  if (req.arrival >= warmup_end_) {
    ++node_state_[a.node].completed_measured;
    hist_latency_ms_->Add(ToMillis(sim_->Now() - req.arrival));
    g_completed_request_ms_->Add(fleet_.models()[req.model].cost_ms);
  }
  // First completion wins: cancel what can still be cancelled. Losers that
  // cannot be reached deliver into a freed slot later and are dropped (or
  // orphaned at heal) by the gen check above.
  for (int i = 0; i < static_cast<int>(req.tries.size()); ++i) {
    if (i != attempt && req.tries[i].open) {
      TryCancelAttempt(slot, i);
    }
  }
  FreeRequestSlot(slot);
}

void ClusterDispatcher::FailRequest(uint32_t slot) {
  RequestState& req = requests_[slot];
  DisarmTimers(slot);
  ctr_failed_->Inc();
  const int node = req.tries.empty() ? -1 : req.tries.back().node;
  if (node >= 0) {
    if (sim_->Now() >= warmup_end_) {
      ++node_state_[node].failed_measured;
    }
  } else {
    // No reachable node ever took an attempt, so no node counts the request:
    // the window counts it directly (dispatched by arrival, failed by now).
    if (req.arrival >= warmup_end_) {
      ++unplaced_dispatched_measured_;
    }
    if (sim_->Now() >= warmup_end_) {
      ++unplaced_failed_measured_;
    }
  }
  EmitReq(TraceKind::kReqFail, node, node >= 0 ? zone_topo_.ZoneOf(node) : -1,
          req.model, req.req_id);
  FreeRequestSlot(slot);
}

void ClusterDispatcher::DisarmTimers(uint32_t slot) {
  RequestState& req = requests_[slot];
  if (req.timer_armed) {
    sim_->Cancel(req.timer_event);
    req.timer_armed = false;
  }
  if (req.hedge_armed) {
    sim_->Cancel(req.hedge_event);
    req.hedge_armed = false;
  }
}

void ClusterDispatcher::FreeRequestSlot(uint32_t slot) {
  RequestState& req = requests_[slot];
  req.in_use = false;
  req.tries.clear();
  free_request_slots_.push_back(slot);
}

ClusterResult ClusterDispatcher::Collect(DurationNs measured) {
  ClusterResult result;
  result.policy = config_.policy;
  result.num_nodes = config_.num_nodes;
  PercentileDigest& latency_ms = hist_latency_ms_->digest();
  result.mean_ms = latency_ms.Mean();
  latency_ms.Finalize();
  result.p50_ms = latency_ms.Percentile(50);
  result.p99_ms = latency_ms.P99();
  const double secs = ToSeconds(measured);
  result.throughput_rps =
      secs > 0 ? static_cast<double>(latency_ms.count()) / secs : 0.0;

  double busy_total = 0;
  double capacity_total = 0;
  double busy_used = 0;
  double capacity_used = 0;
  double models_on_used = 0;
  for (int n = 0; n < config_.num_nodes; ++n) {
    const EngineStats& engine = nodes_[n]->engine()->Stats();
    ClusterNodeStats ns;
    ns.node_id = n;
    ns.dispatched = node_state_[n].dispatched_measured;
    ns.completed = node_state_[n].completed_measured;
    ns.model_switches = node_state_[n].switches_measured;
    ns.migrations_in = node_state_[n].migrations_in;
    ns.migrations_out = node_state_[n].migrations_out;
    ns.failed = node_state_[n].failed_measured;
    ns.distinct_models = static_cast<int>(node_state_[n].models_seen.size());
    ns.busy_tpc_seconds = engine.busy_tpc_seconds;
    ns.energy_joules = engine.energy_joules;
    ns.driver_launches =
        nodes_[n]->driver()->launches_issued() - node_state_[n].launches_at_window_start;
    const double capacity = engine.elapsed_seconds * config_.spec.TotalTpcs();
    ns.utilization = capacity > 0 ? engine.busy_tpc_seconds / capacity : 0.0;

    busy_total += engine.busy_tpc_seconds;
    capacity_total += capacity;
    // A node counts as used if the policy ever routed to it (lifetime), so
    // warm-up-only traffic still marks a GPU as occupied.
    if (feed_.node_attempts[n] > 0) {
      ++result.nodes_used;
      busy_used += engine.busy_tpc_seconds;
      capacity_used += capacity;
      models_on_used += ns.distinct_models;
    }
    result.dispatched += ns.dispatched;
    result.completed += ns.completed;
    result.failed += ns.failed;
    result.total_model_switches += ns.model_switches;
    result.nodes.push_back(ns);
  }
  result.dispatched += unplaced_dispatched_measured_;
  result.failed += unplaced_failed_measured_;
  result.recoveries = ctr_recoveries_->value();
  result.fleet_utilization = capacity_total > 0 ? busy_total / capacity_total : 0.0;
  result.used_utilization = capacity_used > 0 ? busy_used / capacity_used : 0.0;
  // Serial-equivalent request GPU-ms over the used pool's GPU-ms.
  const double completed_request_ms = g_completed_request_ms_->value();
  const double used_gpu_ms = result.nodes_used * secs * 1000.0;
  result.goodput_utilization = used_gpu_ms > 0 ? completed_request_ms / used_gpu_ms : 0.0;
  result.completed_request_gpu_ms = completed_request_ms;
  result.gpus_saved_vs_dedicated =
      static_cast<int>(fleet_.models().size()) - result.nodes_used;
  result.mean_models_per_node =
      result.nodes_used > 0 ? models_on_used / result.nodes_used : 0.0;
  result.migrations = ctr_migrations_->value();
  result.migration_gpu_ms = g_migration_gpu_ms_->value();
  return result;
}

void ClusterDispatcher::SetTrace(TraceRecorder* trace) {
  trace_ = trace;
  for (int n = 0; n < config_.num_nodes; ++n) {
    nodes_[n]->engine()->SetTrace(trace, n, zone_topo_.ZoneOf(n));
  }
}

ClusterResult RunClusterServing(const ClusterConfig& config) {
  Simulator sim;
  ClusterDispatcher dispatcher(&sim, config);
  const TimeNs horizon = config.warmup + config.duration;
  dispatcher.SetWarmupEnd(config.warmup);
  dispatcher.StartArrivals(horizon);
  sim.ScheduleAt(config.warmup, [&dispatcher] { dispatcher.BeginMeasurement(); });
  sim.RunUntil(horizon);
  return dispatcher.Collect(config.duration);
}

}  // namespace lithos
