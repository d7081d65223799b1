// Multi-GPU fleet serving layer.
//
// A GpuNode bundles one ExecutionEngine + Driver + scheduling backend — a
// complete single-GPU LithOS (or baseline) stack — on the shared
// discrete-event Simulator, so an entire fleet advances on one clock. The
// ClusterDispatcher instantiates N nodes and routes the thirteen-model
// diurnal traffic of FleetTelemetry (Section 3's production study) through a
// pluggable placement policy (src/cluster/placement.h).
//
// Serving model: each fleet model gets one client + one stream per node it
// lands on (a tenant per model, CUDA stream semantics per node). Routing a
// request to a node whose previous request was for a different model charges
// a memory-bound model-switch kernel (weight load / cache refill) before the
// request kernel — the cost that makes consolidation a placement problem
// rather than a free-for-all, and the reason model-affinity packing beats
// load-oblivious spraying.
//
// At region scale the pool splits into contiguous failure-domain zones
// (ClusterConfig::num_zones, described by the dispatcher's ZoneTopology);
// src/fault/ injects crashes, stragglers, power caps, and whole-zone outages
// against the per-node fault hooks below, looping over the topology's zone
// and rack ranges. See docs/fleet.md for the hierarchy, failure model, and
// recovery semantics.
#ifndef LITHOS_CLUSTER_CLUSTER_H_
#define LITHOS_CLUSTER_CLUSTER_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/placement.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/config.h"
#include "src/driver/driver.h"
#include "src/experiments/harness.h"
#include "src/gpu/execution_engine.h"
#include "src/gpu/gpu_spec.h"
#include "src/obs/detect.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/workloads/fleet.h"

namespace lithos {

class SpanBuilder;

// --- GpuNode -----------------------------------------------------------------

// One GPU's worth of stack on a shared simulator. Usable both by the cluster
// dispatcher and by the experiment harness's fleet mode (RunStackingFleet).
class GpuNode {
 public:
  GpuNode(Simulator* sim, int id, const GpuSpec& spec, SystemKind system,
          const LithosConfig& config);
  GpuNode(const GpuNode&) = delete;
  GpuNode& operator=(const GpuNode&) = delete;

  int id() const { return id_; }
  Simulator* sim() const { return sim_; }
  ExecutionEngine* engine() { return &engine_; }
  Driver* driver() { return &driver_; }
  Backend* backend() { return backend_.get(); }
  SystemKind system() const { return system_; }

 private:
  Simulator* sim_;
  int id_;
  SystemKind system_;
  ExecutionEngine engine_;
  Driver driver_;
  std::unique_ptr<Backend> backend_;
};

// --- Cluster serving ---------------------------------------------------------

// Request-level resilience policies for the dispatch path (docs/resilience.md).
// Every request runs through one state machine; disabled (the default) is its
// write-off setting, which schedules no extra events and draws no randomness.
struct ResilienceConfig {
  // Master switch. When false the dispatcher normalises the knobs below to
  // write-off: one attempt, no timeout, no hedge, no shedding.
  bool enabled = false;

  // Sequential attempts per request (first dispatch + retries). A retry is
  // scheduled when an attempt is orphaned by a crash, deferred behind a
  // partition past its timeout, or times out — with capped exponential
  // backoff: min(backoff_cap, backoff_base << (attempt - 1)).
  int max_attempts = 3;
  DurationNs attempt_timeout = FromMillis(250);
  DurationNs backoff_base = FromMillis(20);
  DurationNs backoff_cap = FromMillis(160);

  // Hedged dispatch: if the first attempt has not completed after
  // hedge_delay, launch one duplicate on a distinct healthy node; first
  // completion wins and the loser is cancelled through the driver/engine
  // abort path.
  bool hedge = false;
  DurationNs hedge_delay = FromMillis(75);

  // Admission control: shed (reject at arrival) when fleet-wide outstanding
  // GPU-ms exceeds watermark * active nodes. 0 disables shedding.
  double shed_watermark_ms = 0.0;
};

struct ClusterConfig {
  int num_nodes = 4;
  // Failure domains: nodes are split into this many contiguous, equal-sized
  // zones (num_nodes must divide evenly). The model-affinity policy picks a
  // zone before a node and packs hot models across zones; 1 keeps the flat
  // pre-hierarchy fleet.
  int num_zones = 1;
  // Sub-zone failure domains: each zone splits into this many contiguous,
  // equal-sized racks (zone_size must divide evenly). Racks only matter to
  // the fault layer (rack-correlated crash groups); placement stays
  // zone-granular. 1 keeps the pre-rack topology.
  int racks_per_zone = 1;
  GpuSpec spec = GpuSpec::A100();
  // Per-node scheduling backend; any of the nine systems works (LithOS runs
  // with its default LithosConfig).
  SystemKind system = SystemKind::kLithos;
  PlacementPolicy policy = PlacementPolicy::kLeastLoaded;

  // Fleet-wide mean request rate, split across the thirteen models by their
  // popularity shares (Fig. 5's several-hundred-x spread).
  double aggregate_rps = 800.0;
  // Per-node GPU-time budget the model-affinity packer fills to, and the
  // FleetController provisions and re-packs to; kept well under 1.0 so
  // packed nodes ride out the diurnal peak (~1.38x the mean). The headroom
  // also absorbs burstiness within a control period plus the model-switch
  // overhead consolidation induces; pushing this much past 0.5 trades tail
  // latency for GPU-hours.
  double affinity_target_util = 0.5;
  // Diurnal compression: simulated seconds per fleet "day"; traffic follows
  // FleetTelemetry::NormalizedRps over that compressed day. 0 = flat traffic
  // at the mean rate.
  double seconds_per_day = 0.0;

  DurationNs warmup = FromSeconds(1);
  DurationNs duration = FromSeconds(8);
  uint64_t seed = 42;

  // Request-level resilience (retry / hedge / shed); off by default.
  ResilienceConfig resilience;
};

// Per-node snapshot. Every counter covers the post-warm-up measurement
// window opened by BeginMeasurement() — including `distinct_models` and
// `driver_launches`, which snapshot their lifetime baselines at the window
// start — so all per-node counters share one window with the latency/engine
// statistics. Without a BeginMeasurement() call the window is the full run.
struct ClusterNodeStats {
  int node_id = 0;
  uint64_t dispatched = 0;        // requests routed here
  uint64_t completed = 0;         // requests finished here
  uint64_t model_switches = 0;    // switch/load kernels charged (incl. cold start)
  uint64_t migrations_in = 0;     // replicas restored onto this node
  uint64_t migrations_out = 0;    // replicas checkpointed away from this node
  int distinct_models = 0;        // models that landed here in the window
  uint64_t failed = 0;            // requests lost to a crash of this node
  double utilization = 0;         // busy TPC-seconds / capacity
  double busy_tpc_seconds = 0;
  double energy_joules = 0;
  uint64_t driver_launches = 0;   // kernels + markers through this driver
};

struct ClusterResult {
  PlacementPolicy policy = PlacementPolicy::kRoundRobin;
  int num_nodes = 0;

  // Requests routed/finished inside the measurement window.
  uint64_t dispatched = 0;
  uint64_t completed = 0;
  double throughput_rps = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;

  // Utilization over the whole pool and over only the nodes that received
  // work; consolidation raises the latter while shrinking nodes_used.
  double fleet_utilization = 0;
  double used_utilization = 0;
  // Goodput utilization: GPU-ms of *request* work served per GPU-second of
  // the used nodes. Excludes model-switch overhead, so churny policies do
  // not get credit for busy-but-wasted TPC time.
  double goodput_utilization = 0;
  // Raw numerator of the goodput ratio: request GPU-ms completed inside the
  // measurement window (the autoscale layer re-divides it by powered-on
  // GPU-time rather than ever-used GPU-time).
  double completed_request_gpu_ms = 0;
  int nodes_used = 0;
  // Versus the dedicated deployment the paper's fleet study describes: one
  // GPU per model (13 for the production fleet's model set).
  int gpus_saved_vs_dedicated = 0;
  double mean_models_per_node = 0;  // over used nodes
  uint64_t total_model_switches = 0;

  // Live-migration traffic (autoscale control plane).
  uint64_t migrations = 0;           // replica re-homings (checkpoint + restore)
  double migration_gpu_ms = 0;       // GPU-ms charged for checkpoint/restore kernels

  // Fault traffic (src/fault/ injection): requests lost because their node
  // crashed before completion (or no reachable node could take them), and
  // replicas re-placed off dead nodes via the restore-only recovery path.
  uint64_t failed = 0;
  uint64_t recoveries = 0;

  std::vector<ClusterNodeStats> nodes;
};

class ClusterDispatcher {
 public:
  ClusterDispatcher(Simulator* sim, const ClusterConfig& config);

  const std::vector<FleetModel>& models() const { return fleet_.models(); }
  const std::vector<std::unique_ptr<GpuNode>>& nodes() const { return nodes_; }
  Placer& placer() { return *placer_; }
  const Placer& placer() const { return *placer_; }
  const ClusterConfig& config() const { return config_; }
  const FleetTelemetry& fleet() const { return fleet_; }

  // Starts per-model Poisson arrival processes running until `until`.
  void StartArrivals(TimeNs until);

  // Admits (or sheds) one request for models()[model_index] arriving now and
  // launches its first attempt. Lifecycle: each attempt's completion marker
  // routes to OnAttemptComplete (node reachable), the deferred buffer (node
  // partitioned), or OnAttemptOrphaned (node crashed — stale epoch). The
  // request settles on first completion (losers cancelled) or fails after
  // max_attempts / budget exhaustion. Returns the first attempt's node, or -1
  // when the request was shed or no reachable node could take it.
  int Dispatch(int model_index);

  // Live estimate of queued-but-unfinished GPU ms per node (what the
  // placement policies see).
  const std::vector<double>& outstanding_ms() const { return outstanding_ms_; }

  uint64_t dispatched() const { return ctr_dispatched_->value(); }
  uint64_t completed() const { return ctr_completed_->value(); }
  // Attempts launched on `node` (lifetime; non-zero marks the node used).
  uint64_t dispatched_to(int node) const { return feed_.node_attempts[node]; }

  // Pre-arms the warm-up cutoff: samples and counters for requests arriving
  // before `t` are excluded even while the clock is still short of `t`.
  void SetWarmupEnd(TimeNs t) { warmup_end_ = t; }

  // Opens the measurement window at the current simulated time: discards
  // every accumulated statistic (latency digest, fleet and per-node
  // counters), clears the per-node model sets, and snapshots the driver
  // launch counters — so every ClusterNodeStats counter covers one window.
  // Also resets every node engine's statistics. Call at warm-up end.
  void BeginMeasurement();

  // Snapshots fleet metrics; `measured` is the post-warm-up window length.
  ClusterResult Collect(DurationNs measured);

  // --- Autoscale control-plane hooks ---------------------------------------

  // Expected offered load — GPU-ms of request work arriving per wall-second
  // — at simulated time `t`: the diurnal curve's mean rate, a pure function
  // of the config and `t`. This is the arrival process's *intensity*, not a
  // measurement: realized arrivals are the (thinned) Poisson process around
  // it, and the value is unaffected by capacity, node failures, or what was
  // actually dispatched. The scaling policies' demand oracle — predictive
  // scaling evaluates it one control period ahead; the reactive policy
  // instead differences dispatched_request_ms() to see realized traffic.
  double OfferedLoadAt(TimeNs t) const;

  // Offered load at the diurnal mean (no curve factor applied).
  double MeanOfferedLoad() const;

  // Peak of the diurnal curve (the arrival process's thinning envelope,
  // including its margin for the weekly drift term); 1 for flat traffic.
  double PeakNormalizedRps() const { return peak_norm_; }

  // Cumulative GPU-ms of request work dispatched since construction,
  // arrival-weighted. The reactive policy differences this between control
  // periods to estimate what actually arrived.
  double dispatched_request_ms() const { return g_dispatched_request_ms_->value(); }

  // Takes a node out of (or back into) the placement rotation. An inactive
  // node receives no new arrivals but keeps draining queued work.
  void SetNodeActive(int node, bool active);
  bool NodeActive(int node) const;

  // Power-gates a drained node's engine (idle draw falls to
  // spec.gated_power_w). The caller must have drained it first: gating with
  // work on the device is a checked error.
  void PowerGateNode(int node, bool gated);
  bool NodeGated(int node) const;

  // Live migration: re-homes one replica of the model from `from` to `to`,
  // redirecting future arrivals immediately and charging the migration cost
  // as kernels — a checkpoint on the source stream (FIFO-ordered behind the
  // replica's in-flight requests, i.e. the drain) and a restore on the
  // destination stream (serialising before the first redirected request).
  // When `from` is crashed or partitioned the move is a *recovery*: only
  // the restore is charged — the checkpoint half already happened
  // (PhoenixOS-style: restore from the latest checkpoint; an unreachable
  // node cannot execute anything) — and it counts in recoveries() rather
  // than migrations(). Returns false (charging nothing) if the placer
  // refuses the move.
  bool MigrateModel(int model_index, int from, int to);

  // Replica-set growth/shrink with the matching one-sided costs: a clone
  // charges only the restore on `node`; a retire charges only the
  // checkpoint — or nothing when the copy was lost on a crashed or
  // partitioned node. Both fail (charging nothing) if the placer refuses.
  bool AddModelReplica(int model_index, int node);
  bool RemoveModelReplica(int model_index, int node);

  uint64_t migrations() const { return ctr_migrations_->value(); }

  // --- Zone topology (region-scale hierarchy) -------------------------------

  int num_zones() const { return zone_topo_.num_zones; }
  int ZoneOfNode(int node) const { return zone_topo_.ZoneOf(node); }
  const ZoneTopology& zone_topology() const { return zone_topo_; }

  // Incrementally maintained per-zone sum of outstanding_ms(): the fleet
  // root's zone-selection signal, updated O(1) per dispatch/completion.
  const std::vector<double>& zone_outstanding_ms() const { return zone_outstanding_ms_; }

  // --- Fault hooks (src/fault/ injection) -----------------------------------

  // Crashes a node: it leaves the placement rotation, its queued work is
  // written off (outstanding drops to zero, and every in-flight request's
  // completion is discounted as *failed* — no latency sample, no goodput
  // credit), and its device memory is forgotten (last-served model resets,
  // so a revived node cold-starts). Kernels already on the simulated device
  // still burn to completion — the simulation discards their results rather
  // than rewriting engine history. Counted: each call adds one down cause
  // (an injected crash, a zone or rack outage, a forced restart), and only
  // the first crashes the node.
  void FailNode(int node);

  // Releases one down cause (a no-op on a healthy node). The node is
  // repaired only when its last cause is released, so overlapping causes
  // from different owners never bring it back early. It returns *out of
  // rotation* (and typically power-gated by then): the control plane
  // decides when to re-activate it, exactly as it does for a node woken
  // from the diurnal trough.
  void ReviveNode(int node);

  bool NodeFailed(int node) const;
  int failed_node_count() const { return failed_node_count_; }

  // Gray failure: partitions a node off the network. Unlike a crash the
  // node keeps computing — queued work drains and kernels finish — but it
  // is unreachable: it leaves the placement rotation, new attempts steer
  // around it (a request with no reachable node left fails or backs off to
  // retry), and completions that finish behind the partition are *deferred* —
  // buffered on the node and delivered (or orphaned, if the request was
  // crashed away or already settled by a retry/hedge) when the partition
  // heals. Counted like FailNode: each call adds one partition cause.
  void PartitionNode(int node);

  // Releases one partition cause (a no-op on a reachable node). When the
  // last is released the node heals: deferred completions are delivered in
  // finish order, then the node rejoins *out of rotation* (the control
  // plane re-activates it, as after a crash repair).
  void HealNode(int node);

  bool NodePartitioned(int node) const;
  int partitioned_node_count() const { return partitioned_node_count_; }

  // Requests lost to crashes (lifetime; per-window counts come via Collect).
  uint64_t failed() const { return ctr_failed_->value(); }

  // Restore-only migrations off unreachable nodes in the measurement window.
  uint64_t recoveries() const { return ctr_recoveries_->value(); }
  // Recovery actions since construction: restore-only migrations plus lost
  // replicas dropped (MigrateModel / RemoveModelReplica off an unreachable
  // node). Not a registry instrument, so phase snapshots keep their keys.
  uint64_t recovery_actions() const { return recovery_actions_; }

  // --- Remediation hooks (src/remediate/) -----------------------------------

  // Fleet-level node quarantine: new attempts steer around the node for
  // *every* model until `until` — the whole-node extension of the
  // per-(model, node) breaker, same doomed() avoidance tier, so a fleet with
  // no healthy alternative still serves rather than refusing. Issued by the
  // remediation controller on a gray verdict; extending is monotone, early
  // lift only via UnquarantineNode (rollback). Steers write-off traffic too.
  void QuarantineNode(int node, TimeNs until);
  void UnquarantineNode(int node);
  bool NodeQuarantined(int node) const;
  uint64_t node_quarantines() const { return ctr_node_quarantines_->value(); }

  // Herd imbalance: the max over in-rotation healthy nodes of outstanding
  // GPU-ms divided by their mean (>= 1 under load, 0 for an idle fleet). A
  // post-heal herd — survivors holding the load of nodes that just rejoined
  // empty — shows up as a high max/mean ratio; the remediation controller's
  // load-aware rebalancing keys on it (docs/remediation.md).
  double HerdImbalance() const;

  // --- Observability --------------------------------------------------------

  // The registry behind every fleet-level count above: dispatch/complete/
  // fail/recovery counters, request-GPU-ms gauges, and the latency histogram
  // all live here as named instruments (the accessors read through cached
  // pointers). Scenario drivers bracket measurement windows with
  // BeginPhase()/EndPhase() to get per-phase snapshots, and benches can emit
  // Rows() straight into JsonEmitter.
  MetricsRegistry& metrics() { return metrics_; }

  // Attaches a binary trace recorder (nullptr detaches) to the dispatcher
  // and to every node's engine (tagged with its node/zone ids): the request
  // lifecycle (TraceKind 60+), crashes, partitions, orphaned deferred
  // deliveries, recoveries, and migrations append TraceLayer::kCluster
  // records. See docs/observability.md.
  void SetTrace(TraceRecorder* trace);

  // Attaches a span sink (nullptr detaches): every request-correlation
  // record (TraceKind 60+) the dispatcher emits is also fed to the sink at
  // the same instant, so online span assembly sees exactly the records an
  // offline trace replay would — identical by construction. Works with or
  // without a trace recorder attached.
  void SetSpanSink(SpanBuilder* sink) { span_sink_ = sink; }

  // Cumulative per-node / per-(model, node) dispatch telemetry, maintained
  // on every attempt. The gray-failure detector diffs
  // these window over window (docs/attribution.md).
  const DetectorFeed& detector_feed() const { return feed_; }

 private:
  // A completion that finished while its node was partitioned, buffered for
  // delivery at heal time: a (slot, gen, attempt) handle into the request
  // slab, re-judged at delivery (the request may have been settled by a
  // retry or hedge in the meantime).
  struct DeferredCompletion {
    uint64_t epoch = 0;  // node epoch at launch (stale => orphaned)
    uint32_t slot = 0;
    uint32_t gen = 0;
    int attempt = -1;
  };

  struct NodeState {
    int last_model = -1;                 // model of the most recent launch
    // Crash state: the node is down while crash_causes > 0. `epoch`
    // advances on every crash, and completion callbacks capture the epoch
    // they were dispatched under — a stale epoch at completion means the
    // node crashed in between and the work is discounted as failed.
    int crash_causes = 0;
    uint64_t epoch = 0;
    TimeNs failed_at = 0;                // crash instant (for down-span traces)
    // Gray-failure state: a partitioned node computes but cannot deliver.
    int partition_causes = 0;
    TimeNs partitioned_at = 0;
    std::vector<DeferredCompletion> deferred;  // finish-order buffer
    // Measurement-window counters reported through ClusterNodeStats.
    uint64_t dispatched_measured = 0;
    uint64_t completed_measured = 0;
    uint64_t switches_measured = 0;
    uint64_t failed_measured = 0;
    uint64_t migrations_in = 0;
    uint64_t migrations_out = 0;
    std::set<int> models_seen;           // cleared at window start
    uint64_t launches_at_window_start = 0;
    // Lazily created client/stream per model; index by model, null until
    // the first request for that model lands here.
    std::vector<Stream*> model_streams;
  };

  // One dispatch attempt of a request. `open` means the attempt
  // can still deliver: its completion marker is queued or its node is
  // partitioned with the completion deferred.
  struct AttemptState {
    int node = -1;
    Stream* stream = nullptr;
    uint64_t kernel_id = 0;   // request-kernel launch id (cancellation)
    uint64_t marker_id = 0;   // completion-marker launch id
    double cost_ms = 0;       // GPU-ms its marker releases (+ switch if uncancellable)
    uint64_t epoch = 0;       // node epoch at launch
    TimeNs launch = 0;        // launch instant (detector latency samples)
    bool open = false;
    bool hedge = false;       // the hedged duplicate (for hedge-win stats)
  };

  // Slab entry for an in-flight request. Slots are recycled
  // (free-list); `gen` guards stale closures exactly like node epochs.
  struct RequestState {
    uint32_t gen = 0;
    bool in_use = false;
    bool hedged = false;      // hedge attempt launched (or skipped)
    int model = -1;
    uint64_t req_id = 0;      // request-correlation id (span records)
    TimeNs arrival = 0;
    int attempts = 0;         // sequential attempts launched (excl. hedge)
    EventId timer_event = 0;  // backoff or timeout timer (one at a time)
    bool timer_armed = false;
    EventId hedge_event = 0;
    bool hedge_armed = false;
    std::vector<AttemptState> tries;
  };

  void ScheduleNextArrival(int model_index, TimeNs until);
  double RateNow(int model_index) const;
  Stream* StreamFor(int node, int model_index);
  // Launches one half of a migration (checkpoint or restore kernel) on the
  // node's stream for the model and tracks its outstanding GPU time.
  void ChargeMigrationKernel(int node, int model_index, const KernelDesc* kernel);
  // Adjusts a node's outstanding-work estimate (clamped at zero) and keeps
  // the per-zone and fleet-total aggregates in sync.
  void AddOutstanding(int node, double delta_ms);
  // Crashed or partitioned: no kernel can be launched on or cancelled at it.
  bool Unreachable(int node) const {
    return node_state_[node].crash_causes > 0 || node_state_[node].partition_causes > 0;
  }
  // Emits one request-correlation record (trace + span sink). `req_id` rides
  // in the payload; `arg` is kind-specific (see TraceKind 60+).
  void EmitReq(TraceKind kind, int node, int zone, int32_t arg, uint64_t req_id);

  // --- Request state machine (see Dispatch) ---------------------------------
  // The in-use slab entry for (slot, gen), or nullptr once it settled.
  RequestState* LiveRequest(uint32_t slot, uint32_t gen);
  // Picks a healthy target for the next attempt; prefers the placer's
  // choice, falls back to a least-outstanding scan of the model's eligible
  // nodes (hedges require an untried node). Returns -1 when none qualifies.
  int PickAttemptNode(int model_index, const RequestState& req, bool hedge);
  // Launches one attempt (switch kernel if needed + request kernel +
  // completion marker) on `node`. `is_hedge` marks the duplicate.
  void LaunchAttempt(uint32_t slot, int node, bool is_hedge);
  void OnAttemptComplete(uint32_t slot, uint32_t gen, int attempt, bool deferred);
  void OnAttemptOrphaned(uint32_t slot, uint32_t gen, int attempt);
  void OnAttemptTimeout(uint32_t slot, uint32_t gen);
  // Cancels an open attempt through the driver (marker first, then kernel;
  // in-flight heads abort through the engine). False when the attempt's
  // node crashed/partitioned or the work cannot be clawed back.
  bool TryCancelAttempt(uint32_t slot, int attempt);
  // Schedules a backoff retry if attempts and budget allow, else fails the
  // request. No-op while another attempt is still open.
  void TryRetryOrFail(uint32_t slot);
  void FailRequest(uint32_t slot);
  bool RetryBudgetAllows(int model_index) const;
  void ArmAttemptTimer(uint32_t slot);
  void DisarmTimers(uint32_t slot);
  void FreeRequestSlot(uint32_t slot);

  Simulator* sim_;
  ClusterConfig config_;
  FleetTelemetry fleet_;
  std::vector<std::unique_ptr<GpuNode>> nodes_;
  std::unique_ptr<Placer> placer_;

  // Per-model request, switch, and migration kernels (hidden ground-truth
  // timing built from the fleet study's per-request cost and model size).
  std::vector<KernelDesc> request_kernels_;
  std::vector<KernelDesc> switch_kernels_;
  std::vector<KernelDesc> checkpoint_kernels_;
  std::vector<KernelDesc> restore_kernels_;
  std::vector<double> model_share_;      // popularity share, sums to 1

  std::vector<NodeState> node_state_;
  std::vector<double> outstanding_ms_;
  ZoneTopology zone_topo_;
  std::vector<double> zone_outstanding_ms_;  // zone -> sum of outstanding_ms_
  std::vector<Rng> arrival_rng_;         // one deterministic stream per model
  double peak_norm_ = 1.0;               // diurnal peak, thinning envelope

  // Fleet-level accounting lives in the registry as named instruments; the
  // pointers below are the cached hot-path handles (stable for the
  // registry's lifetime). Counter/gauge semantics mirror the old members:
  // dispatched/completed/failed and dispatched_request_ms are lifetime,
  // the rest reset when BeginMeasurement() opens a window.
  MetricsRegistry metrics_;
  Counter* ctr_dispatched_ = nullptr;
  Counter* ctr_completed_ = nullptr;
  Counter* ctr_failed_ = nullptr;      // requests lost to node crashes
  Counter* ctr_recoveries_ = nullptr;  // replica recoveries in the window
  Counter* ctr_migrations_ = nullptr;
  // Resilience counters (lifetime; per-phase deltas come via the registry's
  // phase snapshots).
  Counter* ctr_retries_ = nullptr;
  Counter* ctr_hedges_ = nullptr;
  Counter* ctr_hedge_wins_ = nullptr;
  Counter* ctr_timeouts_ = nullptr;
  Counter* ctr_shed_ = nullptr;
  Counter* ctr_deferred_ = nullptr;
  Counter* ctr_deferred_delivered_ = nullptr;
  Counter* ctr_deferred_orphaned_ = nullptr;
  Gauge* g_completed_request_ms_ = nullptr;   // request GPU-ms finished after warm-up
  Gauge* g_dispatched_request_ms_ = nullptr;  // cumulative arrival-weighted request GPU-ms
  Gauge* g_migration_gpu_ms_ = nullptr;
  Histogram* hist_latency_ms_ = nullptr;
  int failed_node_count_ = 0;
  int partitioned_node_count_ = 0;
  uint64_t recovery_actions_ = 0;  // lifetime; see recovery_actions()
  TimeNs warmup_end_ = 0;
  TraceRecorder* trace_ = nullptr;
  SpanBuilder* span_sink_ = nullptr;
  uint64_t next_request_id_ = 0;  // arrival-order request-correlation ids
  DetectorFeed feed_;

  // In-flight request slab.
  std::vector<RequestState> requests_;
  std::vector<uint32_t> free_request_slots_;
  // Per-model lifetime dispatch/retry counts backing the retry budget.
  std::vector<uint64_t> model_dispatched_;
  std::vector<uint64_t> model_retries_;
  // Gray-node breaker: sim time until which new attempts avoid the
  // (model, node) pair, indexed model * num_nodes + node. Tripped by an
  // attempt timeout, cleared by a completion on the pair.
  std::vector<TimeNs> quarantine_until_;
  // Fleet-level quarantine (remediation): avoid the node for every model.
  std::vector<TimeNs> node_quarantine_until_;
  Counter* ctr_node_quarantines_ = nullptr;
  // Shed signal: fleet-wide outstanding GPU-ms and in-rotation node count,
  // both maintained incrementally.
  double total_outstanding_ms_ = 0;
  int active_node_count_ = 0;
  // Window counts of requests that failed before any node took an attempt
  // (no node's counters see them; Collect adds them to the totals).
  uint64_t unplaced_dispatched_measured_ = 0;
  uint64_t unplaced_failed_measured_ = 0;
};

// Builds the full cluster stack, runs warmup + duration, and collects fleet
// metrics. Deterministic for a given config.
ClusterResult RunClusterServing(const ClusterConfig& config);

}  // namespace lithos

#endif  // LITHOS_CLUSTER_CLUSTER_H_
