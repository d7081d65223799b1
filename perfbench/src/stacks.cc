#include "stacks.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>

#include "src/autoscale/fleet_controller.h"
#include "src/cluster/fleet_dispatcher.h"
#include "src/common/rng.h"
#include "src/core/lithos_backend.h"
#include "src/experiments/harness.h"
#include "src/fault/fault_injector.h"
#include "src/obs/attribution.h"
#include "src/obs/detect.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/remediate/remediation_controller.h"
#include "src/sim/simulator.h"
#include "src/workloads/clients.h"
#include "src/workloads/fleet.h"
#include "src/workloads/zoo.h"

namespace perfbench {

using namespace lithos;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort: on failure, stay put
}

// --- Workload definitions ------------------------------------------------------

// gpu_stack: the paper's inference-only stacking on one A100 (Section 7.1):
// HP A = ResNet at its Table-2 rate and latency SLO, HP B = BERT (throughput
// SLO), best effort = GPT-J inference in a closed loop; LithOS with every
// mechanism on (atomization, stealing, right-sizing, DVFS).
constexpr double kGpuWarmupS = 2.0;
constexpr double kGpuMeasureS = 10.0;
constexpr double kGpuDrainS = 0.5;
const char* const kGpuServices[] = {"ResNet", "BERT"};
constexpr int kNumGpuServices = 2;

// fleet_*: the region of bench_cluster_resilience / bench_fleet_remediate —
// 1024 MPS nodes in 8 zones x 4 racks, zoned model-affinity placement, flat
// Poisson traffic at 24k rps over the thirteen-model catalogue.
constexpr int kFleetNodes = 1024;
constexpr int kFleetZones = 8;
constexpr int kFleetRacksPerZone = 4;
constexpr double kFleetRps = 24000.0;
constexpr uint64_t kFleetCatalogueSeed = 2026;  // model costs/sizes, not traffic
constexpr double kFleetWarmupS = 2.0;
constexpr double kFleetMeasureS = 15.0;
// Long enough for the slowest settle path (3 attempts x 250 ms timeouts plus
// backoff) so every measured arrival has settled when the loop stops.
constexpr double kFleetDrainS = 1.5;
// Fleet latency SLO for every request: the interactive cutoff the fleet
// benches and the attributor use (LatencyAttributor::kInteractiveCutoff).
constexpr DurationNs kFleetSlo = FromMillis(25);
constexpr DurationNs kControlPeriod = FromMillis(250);
// Same grace as RunFleetFaultScenario's action scoring.
constexpr DurationNs kJustifiedGrace = FromMillis(2000);

bool IsFleet(const std::string& workload) {
  return workload == "fleet_steady" || workload == "fleet_faults";
}

ClusterConfig FleetCluster(bool resilient) {
  ClusterConfig cc;
  cc.num_nodes = kFleetNodes;
  cc.num_zones = kFleetZones;
  cc.racks_per_zone = kFleetRacksPerZone;
  cc.policy = PlacementPolicy::kModelAffinity;
  cc.system = SystemKind::kMps;
  cc.aggregate_rps = kFleetRps;
  cc.seed = kFleetCatalogueSeed;
  if (resilient) {
    // The full policy of bench_cluster_resilience.
    ResilienceConfig& rc = cc.resilience;
    rc.enabled = true;
    rc.max_attempts = 3;
    rc.attempt_timeout = FromMillis(250);
    rc.backoff_base = FromMillis(20);
    rc.backoff_cap = FromMillis(160);
    rc.hedge = true;
    rc.hedge_delay = FromMillis(75);
    rc.shed_watermark_ms = 60.0;
  }
  return cc;
}

// fleet_faults' fault mix, all drawn from the run seed: Poisson stragglers,
// Poisson rack crashes with heavy-tailed (Weibull) repair, and one zone
// partition (zone picked by the seed) a third of the way into the window.
// The partition is kept short: the requests it delays past the hedge delay
// stay well under 1% of the window, so p99 measures the fleet rather than
// where one cliff happens to fall (a 1 s partition moved p99 by 14% between
// seeds; 400 ms moves it by 1.5%).
FaultScenarioConfig FleetFaults(uint64_t seed, const Timeline& tl) {
  FaultScenarioConfig faults;
  faults.name = "fleet_faults";
  faults.seed = seed;
  faults.horizon = tl.arrivals_end;
  faults.stragglers_per_second = 1.0;
  faults.straggler_slowdown = 0.15;
  faults.straggler_duration = FromMillis(2500);
  faults.rack_crashes_per_second = 0.2;
  faults.rack_repair = RepairModel::Weibull(0.7, 1.2);
  Rng pick(seed ^ 0x5a17c0deULL);
  const int zone = static_cast<int>(pick.UniformInt(0, kFleetZones - 1));
  const TimeNs at = tl.warmup + (tl.arrivals_end - tl.warmup) / 3 + FromMillis(20);
  faults.partitions = {{zone, at, FromMillis(400)}};
  return faults;
}

DetectorConfig FleetDetector() {
  // bench_fleet_remediate's calibration for model-affinity placement.
  DetectorConfig dc;
  dc.window = kControlPeriod;
  dc.straggler_inflation = 2.8;
  dc.warmup_windows = 4;
  return dc;
}

RemediationConfig FleetRemediation() {
  RemediationConfig rc;
  rc.drain_score = 3.0;
  return rc;
}

// One arrival: the benchmark calls the library at `at` for target `target`.
struct Arrival {
  TimeNs at = 0;
  int32_t target = 0;
};

// Merges Poisson processes (one per target) into one time-ordered stream,
// drawn lazily: a small min-heap holds each target's next arrival. Ties go
// to the lower target index. Target i draws from Rng(seed * 1000003 + i).
class ArrivalStream {
 public:
  ArrivalStream(const std::vector<double>& rates, uint64_t seed, TimeNs until)
      : rates_(rates), until_(until) {
    rngs_.reserve(rates.size());
    for (size_t i = 0; i < rates.size(); ++i) {
      rngs_.emplace_back(seed * 1000003ULL + i);
      Draw(static_cast<int32_t>(i), 0);
    }
  }

  // Pops the earliest pending arrival; false once every stream has passed
  // `until`.
  bool Next(Arrival* out) {
    if (heap_.empty()) {
      return false;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    *out = heap_.back();
    heap_.pop_back();
    Draw(out->target, out->at);
    return true;
  }

 private:
  static bool Later(const Arrival& a, const Arrival& b) {
    return a.at != b.at ? a.at > b.at : a.target > b.target;
  }
  void Draw(int32_t target, TimeNs after) {
    const size_t i = static_cast<size_t>(target);
    const TimeNs t =
        after + std::max<DurationNs>(1, FromSeconds(rngs_[i].Exponential(1.0 / rates_[i])));
    if (t < until_) {
      heap_.push_back({t, target});
      std::push_heap(heap_.begin(), heap_.end(), Later);
    }
  }

  std::vector<double> rates_;
  TimeNs until_;
  std::vector<Rng> rngs_;
  std::vector<Arrival> heap_;
};

// --- Run-loop plumbing ------------------------------------------------------------

// State the benchmark's own events share with the loop.
struct LoopState {
  bool bench_event = false;  // set by every benchmark-owned callback
  bool stop = false;         // set by the stop event at the horizon
  // Host time a benchmark event spent inside library calls during the
  // current step, and the layer those calls belong to.
  int64_t call_ns = 0;
  int call_layer = kBench;

  void Charge(int layer, int64_t ns) {
    call_layer = layer;
    call_ns += ns;
  }
};

// Walks the arrival stream with one self-rescheduling event per arrival and
// times each library call.
struct ArrivalPump {
  Simulator* sim = nullptr;
  ArrivalStream* stream = nullptr;
  LoopState* loop = nullptr;
  NsHistogram* call_ns = nullptr;
  int call_layer = kBench;
  std::function<void(int32_t)> call;
  Arrival pending;
  uint64_t fired = 0;
  bool armed = false;  // an arrival is scheduled and has not fired yet

  void Arm() {
    armed = stream->Next(&pending);
    if (armed) {
      sim->ScheduleAt(pending.at, [this] { Fire(); });
    }
  }
  void Fire() {
    loop->bench_event = true;
    ++fired;
    const int64_t t0 = NowNs();
    call(pending.target);
    const int64_t ns = NowNs() - t0;
    call_ns->Add(ns);
    loop->Charge(call_layer, ns);
    Arm();
  }
};

int HostLayerOf(uint8_t trace_layer) {
  switch (static_cast<TraceLayer>(trace_layer)) {
    case TraceLayer::kEngine:
      return kEngine;
    case TraceLayer::kCluster:
      return kCluster;
    case TraceLayer::kControl:
      return kControl;
    case TraceLayer::kFault:
      return kFault;
    case TraceLayer::kSim:
      break;
  }
  return kUntagged;
}

// Ring size of the traced run's recorder; the loop drains it well before it
// could wrap, so no record is ever dropped.
constexpr size_t kRingRecords = size_t{1} << 18;
constexpr uint64_t kDrainAt = uint64_t{1} << 17;

// Traced loop bookkeeping: each Step's host time is charged to a layer once
// its records are read back, in chunks, outside the timed region.
struct TraceSplit {
  struct StepRecord {
    int64_t ns;
    uint64_t first;  // recorder total() before the step
    uint64_t end;    // recorder total() after the step
    bool bench;
    int64_t call_ns;  // part of `ns` spent in library calls (bench events)
    int call_layer;
  };
  std::vector<StepRecord> steps;
  std::array<uint64_t, 256> kind_counts{};
  bool dropped = false;

  void Drain(TraceRecorder* trace, HostSample* host) {
    const std::vector<TraceRecord> records = trace->Records();
    dropped = dropped || trace->dropped() > 0;
    for (const StepRecord& s : steps) {
      if (s.bench) {
        host->layer_ns[static_cast<size_t>(s.call_layer)] += s.call_ns;
        host->layer_ns[kBench] += s.ns - s.call_ns;
        continue;
      }
      int layer = kUntagged;
      if (s.end > s.first && s.first < records.size()) {
        layer = HostLayerOf(records[s.first].layer);
      }
      host->layer_ns[static_cast<size_t>(layer)] += s.ns;
    }
    for (const TraceRecord& r : records) {
      ++kind_counts[r.kind];
    }
    steps.clear();
    trace->Clear();
  }
};

// Advances the simulator with Step until the stop event fires. Untraced:
// one wall-clock span around the loop. Traced: every Step is timed and
// classified; run_s is the sum of the Step times.
void RunLoop(Simulator* sim, LoopState* loop, TraceRecorder* trace, TraceSplit* split,
             HostSample* host) {
  if (trace == nullptr) {
    const int64_t t0 = NowNs();
    while (!loop->stop && sim->Step()) {
    }
    host->run_s = Seconds(NowNs() - t0);
    return;
  }
  int64_t total_ns = 0;
  split->steps.reserve(1 << 16);
  while (!loop->stop) {
    loop->bench_event = false;
    loop->call_ns = 0;
    const uint64_t before = trace->total();
    const int64_t t0 = NowNs();
    const bool ran = sim->Step();
    const int64_t ns = NowNs() - t0;
    if (!ran) {
      break;
    }
    total_ns += ns;
    split->steps.push_back(
        {ns, before, trace->total(), loop->bench_event, loop->call_ns, loop->call_layer});
    if (trace->total() >= kDrainAt || split->steps.size() >= (1 << 16)) {
      split->Drain(trace, host);
    }
  }
  split->Drain(trace, host);
  host->run_s = Seconds(total_ns);
}

TraceRecorder* MakeRecorder(std::unique_ptr<TraceRecorder>* owner) {
  *owner = std::make_unique<TraceRecorder>(kRingRecords);
  // Sim-layer records (schedule/fire per event) never name an owner layer.
  (*owner)->SetLayerMask(~TraceRecorder::LayerBit(TraceLayer::kSim));
  return owner->get();
}

class Collector {
 public:
  explicit Collector(SimSample* out) : out_(out) {}
  void Add(const std::string& name, double value, const std::string& unit) {
    out_->metrics.push_back({name, value, unit});
  }
  void Count(const std::string& name, uint64_t value) {
    Add(name, static_cast<double>(value), "count");
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      out_->violations.push_back(what);
    }
  }

 private:
  SimSample* out_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Engine integrals over the measured window (snapshot at arrivals_end).
struct EngineWindow {
  double energy_j = 0;
  double idle_energy_j = 0;
  double busy_tpc_s = 0;
  double capacity_tpc_s = 0;

  void Add(const EngineStats& s, int tpcs) {
    energy_j += s.energy_joules;
    idle_energy_j += s.idle_energy_joules;
    busy_tpc_s += s.busy_tpc_seconds;
    capacity_tpc_s += s.elapsed_seconds * tpcs;
  }
};

// Trace-derived engine counts (traced runs only).
void AddGrantCounts(const TraceSplit& split, Collector* c) {
  auto kind = [&split](TraceKind k) { return split.kind_counts[static_cast<uint8_t>(k)]; };
  c->Count("gpu.grants_launched", kind(TraceKind::kGrantLaunch));
  c->Count("gpu.grants_completed", kind(TraceKind::kGrantComplete));
  c->Count("gpu.grants_aborted", kind(TraceKind::kGrantAbort));
  c->Count("gpu.checkpoints", kind(TraceKind::kGrantCheckpoint));
  c->Count("gpu.dvfs_switches", kind(TraceKind::kDvfsApply));
  c->Check(!split.dropped, "trace ring dropped records");
}

// --- gpu_stack -----------------------------------------------------------------------

void RunGpuStack(const Inputs& in, bool traced, int cpu, HostSample* host, SimSample* out) {
  const Timeline& tl = in.timeline;
  LoopState loop;
  std::unique_ptr<TraceRecorder> trace_owner;
  TraceRecorder* trace = traced ? MakeRecorder(&trace_owner) : nullptr;

  const int64_t t_setup = NowNs();
  const GpuSpec spec = GpuSpec::A100();
  Simulator sim;
  sim.SetTrace(trace);
  LithosConfig lithos;
  lithos.enable_rightsizing = true;
  lithos.enable_dvfs = true;
  GpuNode node(&sim, 0, spec, SystemKind::kLithos, lithos);
  node.engine()->SetTrace(trace, 0, -1);
  Driver* driver = node.driver();

  // Apps and quotas exactly as the harness's inference-only stacking.
  std::vector<AppSpec> apps(3);
  for (int i = 0; i < kNumGpuServices; ++i) {
    const InferenceServiceSpec svc = ServiceFor(kGpuServices[i]);
    apps[i].role = i == 0 ? AppRole::kHpLatency : AppRole::kHpThroughput;
    apps[i].model = svc.model;
    apps[i].load_rps = svc.load_rps;
    apps[i].slo = svc.slo;
    apps[i].max_batch = svc.max_batch;
  }
  apps[2].role = AppRole::kBeInference;
  apps[2].model = "GPT-J";
  AssignInferenceOnlyQuotas(SystemKind::kLithos, spec, &apps[0], &apps[1], &apps[2]);

  std::vector<std::unique_ptr<RequestRecorder>> recorders;
  std::vector<std::unique_ptr<BatchingInferenceServer>> servers;
  for (int i = 0; i < kNumGpuServices; ++i) {
    const AppSpec& app = apps[i];
    Client* client = driver->CuCtxCreate(app.model + "/" + std::to_string(i),
                                         PriorityClass::kHighPriority, app.quota_tpcs);
    recorders.push_back(std::make_unique<RequestRecorder>());
    recorders.back()->SetWarmupEnd(tl.warmup);
    const std::string model = app.model;
    servers.push_back(std::make_unique<BatchingInferenceServer>(
        driver, client,
        [&spec, model](int batch) { return MakeInferenceByName(model, spec, batch); },
        app.max_batch, app.batch_delay, recorders.back().get()));
  }
  Client* be_client = driver->CuCtxCreate("GPT-J/2", PriorityClass::kBestEffort,
                                          apps[2].quota_tpcs);
  ClosedLoopRunner runner(driver, be_client, MakeInferenceByName("GPT-J", spec, 1));
  runner.SetWarmupEnd(tl.warmup);
  runner.Start();

  std::array<uint64_t, kNumGpuServices> submitted_measured{};
  ArrivalStream stream(in.rates, in.seed, tl.arrivals_end);
  ArrivalPump pump;
  pump.sim = &sim;
  pump.stream = &stream;
  pump.loop = &loop;
  pump.call_ns = &host->call_ns;
  pump.call_layer = kClients;
  pump.call = [&](int32_t svc) {
    if (sim.Now() >= tl.warmup) {
      ++submitted_measured[static_cast<size_t>(svc)];
    }
    servers[static_cast<size_t>(svc)]->Submit();
  };

  EngineWindow window;
  double be_iterations = 0;
  sim.ScheduleAt(tl.warmup, [&] {
    loop.bench_event = true;
    node.engine()->ResetStats();
  });
  sim.ScheduleAt(tl.arrivals_end, [&] {
    loop.bench_event = true;
    window.Add(node.engine()->Stats(), spec.TotalTpcs());
    be_iterations = runner.FractionalIterations();
  });
  sim.ScheduleAt(tl.horizon, [&loop] {
    loop.bench_event = true;
    loop.stop = true;
  });
  pump.Arm();
  host->setup_s = Seconds(NowNs() - t_setup);

  TraceSplit split;
  if (cpu >= 0) {
    PinTo(cpu);
  }
  RunLoop(&sim, &loop, trace, &split, host);
  runner.Stop();

  // --- Outputs ---
  Collector c(out);
  const double window_s = ToSeconds(tl.arrivals_end - tl.warmup);
  RequestRecorder& hp_a = *recorders[0];
  for (auto& rec : recorders) {
    rec->Finalize();
  }
  const double slo_ms = ToMillis(apps[0].slo);
  const double met = hp_a.latency_ms().FractionAtOrBelow(slo_ms) *
                     static_cast<double>(hp_a.completed());
  c.Check(hp_a.completed() > 0, "HP A completed no request");
  c.Add("mean_ms", hp_a.latency_ms().Mean(), "sim_ms");
  c.Add("p50_ms", hp_a.latency_ms().Percentile(50), "sim_ms");
  c.Add("p99_ms", hp_a.latency_ms().P99(), "sim_ms");
  c.Add("slo_attainment", Ratio(met, static_cast<double>(hp_a.issued())), "frac");
  c.Add("goodput_rps", met / window_s, "req/sim_s");
  c.Add("energy_j", window.energy_j, "sim_J");
  c.Add("be_iters_per_s", be_iterations / window_s, "it/sim_s");
  // Nothing fails or is shed on one GPU; the invariant checks below are
  // what can count operations as failed here.
  c.Add("failed_frac", 0.0, "frac");

  const SimCounters sc = sim.counters();
  c.Count("sim.events_fired", sc.fired);
  c.Count("sim.events_scheduled", sc.scheduled);
  c.Count("sim.events_canceled", sc.canceled);
  c.Count("sim.events_rescheduled", sc.rescheduled);
  c.Add("gpu.busy_tpc_frac", Ratio(window.busy_tpc_s, window.capacity_tpc_s), "frac");
  c.Count("driver.launches", driver->launches_issued());

  auto* backend = dynamic_cast<LithosBackend*>(node.backend());
  c.Check(backend != nullptr, "gpu_stack node is not running LithOS");
  if (backend != nullptr) {
    backend->predictor().FinalizeStats();
    const PredictionStats& ps = backend->predictor().stats();
    c.Count("core.atoms", backend->atoms_dispatched());
    c.Add("core.atoms_per_launch",
          Ratio(static_cast<double>(backend->atoms_dispatched()),
                static_cast<double>(driver->launches_issued())),
          "ratio");
    c.Count("core.tpcs_stolen", backend->tpc_scheduler().stats().tpcs_stolen);
    c.Add("core.predictor_mispred_rate", ps.MispredictionRate(), "frac");
    c.Add("core.predictor_err_p99_us", ps.abs_error_us.P99(), "sim_us");
  }
  uint64_t issued = 0;
  uint64_t completed = 0;
  for (int i = 0; i < kNumGpuServices; ++i) {
    const RequestRecorder& rec = *recorders[static_cast<size_t>(i)];
    issued += rec.issued();
    completed += rec.completed();
    const std::string name = kGpuServices[i];
    c.Check(rec.issued() == submitted_measured[static_cast<size_t>(i)],
            name + ": recorder issued != benchmark submissions");
    c.Check(rec.completed() <= rec.issued(), name + ": completed > issued");
  }
  c.Count("clients.hp_issued", issued);
  c.Count("clients.hp_completed", completed);
  c.Count("clients.hp_pending", issued - std::min(issued, completed));
  c.Count("clients.hp_a_requests", hp_a.issued());
  c.Add("clients.hp_b_p99_ms", recorders[1]->latency_ms().P99(), "sim_ms");
  c.Count("clients.be_iterations", runner.iterations());
  c.Check(window.energy_j >= window.idle_energy_j, "energy below idle energy");
  if (traced) {
    AddGrantCounts(split, &c);
  }
  out->attempted = issued;
}

// --- fleet_steady / fleet_faults ------------------------------------------------------

// Recurring control-grid tick: the detector samples the dispatcher's feed
// with announced crash state as its known-down input, and the remediation
// controller ticks right after it (as RunFleetFaultScenario does).
struct ControlTicker {
  Simulator* sim = nullptr;
  FleetDispatcher* fleet = nullptr;
  GrayNodeDetector* detector = nullptr;
  RemediationController* remedy = nullptr;
  LoopState* loop = nullptr;
  HostSample* host = nullptr;
  TimeNs horizon = 0;
  DurationNs window = 0;
  std::vector<uint8_t> known_down;

  void Schedule(TimeNs at) {
    if (at > horizon) {
      return;
    }
    sim->ScheduleAt(at, [this, at] {
      loop->bench_event = true;
      const int n = fleet->config().num_nodes;
      known_down.assign(static_cast<size_t>(n), 0);
      for (int i = 0; i < n; ++i) {
        known_down[static_cast<size_t>(i)] = fleet->NodeFailed(i) ? 1 : 0;
      }
      const int64_t t0 = NowNs();
      detector->Tick(at, fleet->detector_feed(), known_down);
      const int64_t t1 = NowNs();
      remedy->Tick(at);
      const int64_t t2 = NowNs();
      host->detect_tick_ns.Add(static_cast<double>(t1 - t0));
      host->remedy_tick_ns.Add(static_cast<double>(t2 - t1));
      loop->Charge(kControl, t2 - t0);
      Schedule(at + window);
    });
  }
};

bool ActionJustified(const RemedyEvent& event, const std::vector<GroundTruthSpan>& truth) {
  for (const GroundTruthSpan& span : truth) {
    const bool target =
        span.node >= 0 ? span.node == event.node : span.zone == event.zone;
    if (target && event.at >= span.start && event.at <= span.end + kJustifiedGrace) {
      return true;
    }
  }
  return false;
}

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

void RunFleet(const Inputs& in, bool traced, int cpu, HostSample* host, SimSample* out) {
  const Timeline& tl = in.timeline;
  const bool faults = in.workload == "fleet_faults";
  LoopState loop;
  std::unique_ptr<TraceRecorder> trace_owner;
  TraceRecorder* trace = traced ? MakeRecorder(&trace_owner) : nullptr;
  std::unique_ptr<SpanBuilder> spans;
  if (traced) {
    spans = std::make_unique<SpanBuilder>();
  }

  const int64_t t_setup = NowNs();
  const ClusterConfig cc = FleetCluster(/*resilient=*/faults);
  Simulator sim;
  FleetDispatcher fleet(&sim, cc);
  sim.SetTrace(trace);
  fleet.SetTrace(trace);
  fleet.SetSpanSink(spans.get());

  std::unique_ptr<FleetController> controller;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<GrayNodeDetector> detector;
  std::unique_ptr<RemediationController> remedy;
  ControlTicker ticker;
  const RemediationConfig remedy_cfg = FleetRemediation();
  const DetectorConfig detect_cfg = FleetDetector();
  if (faults) {
    AutoscaleConfig control;
    control.cluster = cc;
    control.scaling = ScalingPolicyKind::kStaticPeak;
    control.control_period = kControlPeriod;
    control.max_migrations_per_period = 8;
    controller = std::make_unique<FleetController>(&sim, &fleet, control);
    controller->SetTrace(trace);
    injector = std::make_unique<FaultInjector>(&sim, &fleet, FleetFaults(in.seed, tl));
    injector->SetTrace(trace);
    injector->Arm();
    std::vector<int> node_zone(static_cast<size_t>(cc.num_nodes));
    for (int n = 0; n < cc.num_nodes; ++n) {
      node_zone[static_cast<size_t>(n)] = fleet.ZoneOfNode(n);
    }
    detector = std::make_unique<GrayNodeDetector>(
        detect_cfg, cc.num_nodes, static_cast<int>(fleet.models().size()), cc.num_zones,
        std::move(node_zone), &fleet.metrics());
    remedy = std::make_unique<RemediationController>(&sim, &fleet, controller.get(),
                                                     detector.get(), remedy_cfg);
    remedy->SetTrace(trace);
    ticker.sim = &sim;
    ticker.fleet = &fleet;
    ticker.detector = detector.get();
    ticker.remedy = remedy.get();
    ticker.loop = &loop;
    ticker.host = host;
    ticker.horizon = tl.horizon;
    ticker.window = detect_cfg.window;
    ticker.Schedule(detect_cfg.window);
  }

  EngineWindow window;
  sim.ScheduleAt(tl.warmup, [&] {
    loop.bench_event = true;
    for (const std::unique_ptr<GpuNode>& node : fleet.nodes()) {
      node->engine()->ResetStats();
    }
    fleet.BeginMeasurement();
  });
  sim.ScheduleAt(tl.arrivals_end, [&] {
    loop.bench_event = true;
    for (const std::unique_ptr<GpuNode>& node : fleet.nodes()) {
      window.Add(node->engine()->Stats(), cc.spec.TotalTpcs());
    }
  });

  uint64_t arrivals_measured = 0;
  ArrivalStream stream(in.rates, in.seed, tl.arrivals_end);
  ArrivalPump pump;
  pump.sim = &sim;
  pump.stream = &stream;
  pump.loop = &loop;
  pump.call_ns = &host->call_ns;
  pump.call_layer = kCluster;
  pump.call = [&](int32_t model) {
    if (sim.Now() >= tl.warmup) {
      ++arrivals_measured;
    }
    fleet.Dispatch(model);
  };
  fleet.SetWarmupEnd(tl.warmup);
  pump.Arm();
  if (controller) {
    controller->Start(tl.horizon);
  }
  sim.ScheduleAt(tl.horizon, [&loop] {
    loop.bench_event = true;
    loop.stop = true;
  });
  host->setup_s = Seconds(NowNs() - t_setup);

  TraceSplit split;
  if (cpu >= 0) {
    PinTo(cpu);
  }
  RunLoop(&sim, &loop, trace, &split, host);

  // --- Outputs ---
  Collector c(out);
  const double window_s = ToSeconds(tl.arrivals_end - tl.warmup);
  MetricsRegistry& m = fleet.metrics();
  auto counter = [&m](const char* name) { return m.counter(name).value(); };
  PercentileDigest& latency = m.histogram("fleet/latency_ms").digest();
  latency.Finalize();
  const double met = latency.FractionAtOrBelow(ToMillis(kFleetSlo)) *
                     static_cast<double>(latency.count());
  const uint64_t arrivals = pump.fired;
  const uint64_t dispatched = fleet.dispatched();
  const uint64_t completed = fleet.completed();
  const uint64_t failed = fleet.failed();
  const uint64_t shed = counter("fleet/shed");
  const int64_t in_flight = static_cast<int64_t>(dispatched) -
                            static_cast<int64_t>(completed + failed + shed);

  c.Check(latency.count() > 0, "no measured request completed");
  c.Add("mean_ms", latency.Mean(), "sim_ms");
  c.Add("p50_ms", latency.Percentile(50), "sim_ms");
  c.Add("p99_ms", latency.P99(), "sim_ms");
  c.Add("slo_attainment", Ratio(met, static_cast<double>(arrivals_measured)), "frac");
  c.Add("goodput_rps", met / window_s, "req/sim_s");
  c.Add("energy_j", window.energy_j, "sim_J");
  c.Add("be_iters_per_s", 0.0, "it/sim_s");
  c.Add("failed_frac", Ratio(static_cast<double>(failed + shed), static_cast<double>(arrivals)),
        "frac");

  const SimCounters sc = sim.counters();
  c.Count("sim.events_fired", sc.fired);
  c.Count("sim.events_scheduled", sc.scheduled);
  c.Count("sim.events_canceled", sc.canceled);
  c.Count("sim.events_rescheduled", sc.rescheduled);
  c.Add("gpu.busy_tpc_frac", Ratio(window.busy_tpc_s, window.capacity_tpc_s), "frac");
  uint64_t launches = 0;
  for (const std::unique_ptr<GpuNode>& node : fleet.nodes()) {
    launches += node->driver()->launches_issued();
  }
  c.Count("driver.launches", launches);

  uint64_t attempts = 0;
  for (uint64_t a : fleet.detector_feed().node_attempts) {
    attempts += a;
  }
  const uint64_t hedges = counter("fleet/hedges");
  c.Count("cluster.requests", arrivals);
  c.Count("cluster.measured_requests", arrivals_measured);
  c.Count("cluster.completed", completed);
  c.Count("cluster.failed", failed);
  c.Count("cluster.in_flight", static_cast<uint64_t>(std::max<int64_t>(0, in_flight)));
  c.Add("cluster.attempts_per_request",
        Ratio(static_cast<double>(attempts), static_cast<double>(dispatched)), "ratio");
  c.Count("cluster.retries", counter("fleet/retries"));
  c.Count("cluster.hedges", hedges);
  c.Count("cluster.timeouts", counter("fleet/timeouts"));
  c.Count("cluster.shed", shed);
  c.Add("cluster.hedge_win_frac",
        Ratio(static_cast<double>(counter("fleet/hedge_wins")), static_cast<double>(hedges)),
        "frac");
  c.Count("cluster.deferred_delivered", counter("fleet/deferred_delivered"));
  c.Count("cluster.deferred_orphaned", counter("fleet/deferred_orphaned"));
  c.Count("cluster.migrations", fleet.migrations());
  c.Count("cluster.recoveries", fleet.recoveries());

  c.Count("control.ticks", controller ? controller->ticks() : 0);
  c.Count("control.power_ons", controller ? controller->power_ons() : 0);
  c.Count("control.power_offs", controller ? controller->power_offs() : 0);
  c.Count("fault.node_crashes", injector ? injector->node_crashes() : 0);
  c.Count("fault.rack_crashes", injector ? injector->rack_crashes() : 0);
  c.Count("fault.stragglers", injector ? injector->stragglers() : 0);
  c.Count("fault.partitions", injector ? injector->partitions() : 0);

  DetectorScore score;
  uint64_t justified = 0;
  uint64_t unjustified = 0;
  if (faults) {
    const std::vector<GroundTruthSpan> truth = injector->GroundTruthSpans(tl.horizon);
    score = ScoreDetector(detector->verdicts(), ScoreableTruth(truth), detect_cfg.window,
                          2 * detect_cfg.window);
    for (const RemedyEvent& e : remedy->events()) {
      const bool action = e.action == RemedyAction::kQuarantine ||
                          e.action == RemedyAction::kDrain ||
                          e.action == RemedyAction::kRestart;
      if (action && !e.synthetic) {
        ++(ActionJustified(e, truth) ? justified : unjustified);
      }
    }
    c.Check(remedy->peak_fleet_drains() <= remedy_cfg.max_drains_fleet,
            "remediation fleet drains above the governor cap");
    c.Check(remedy->peak_zone_drains() <= remedy_cfg.max_drains_per_zone,
            "remediation zone drains above the governor cap");
  }
  c.Count("detect.verdicts", detector ? detector->verdicts().size() : 0);
  c.Add("detect.precision", faults ? score.precision : 0.0, "frac");
  c.Add("detect.recall", faults ? score.recall : 0.0, "frac");
  c.Add("detect.ttd_windows_median", score.median_ttd_windows, "windows");
  c.Count("remedy.actions", remedy ? remedy->actions() : 0);
  c.Count("remedy.rollbacks", remedy ? remedy->rollbacks() : 0);
  c.Count("remedy.deferrals", remedy ? remedy->deferrals() : 0);
  c.Count("remedy.rebalances", remedy ? remedy->rebalances() : 0);
  c.Add("remedy.justified_frac",
        Ratio(static_cast<double>(justified), static_cast<double>(justified + unjustified)),
        "frac");

  // Conservation: every arrival the benchmark issued reached the dispatcher
  // and settled exactly once (the drain outlasts the slowest settle path).
  c.Check(!pump.armed, "arrival stream not fully issued");
  c.Check(dispatched == arrivals, "dispatcher count != benchmark arrivals");
  c.Check(in_flight >= 0, "settled requests exceed arrivals");
  c.Check(in_flight == 0, "requests still in flight after the drain");
  c.Check(latency.count() <= arrivals_measured, "more measured completions than arrivals");
  c.Check(window.energy_j >= window.idle_energy_j, "energy below idle energy");

  if (traced) {
    AddGrantCounts(split, &c);
    const std::vector<RequestSpan> all = spans->Spans();
    uint64_t by_outcome[4] = {0, 0, 0, 0};
    uint64_t partial = 0;
    for (const RequestSpan& s : all) {
      ++by_outcome[static_cast<int>(s.outcome)];
      partial += s.partial ? 1 : 0;
    }
    c.Check(all.size() == arrivals, "span count != arrivals");
    c.Check(partial == 0, "partial request spans");
    c.Check(by_outcome[static_cast<int>(RequestOutcome::kCompleted)] == completed,
            "completed spans != completed counter");
    c.Check(by_outcome[static_cast<int>(RequestOutcome::kFailed)] == failed,
            "failed spans != failed counter");
    c.Check(by_outcome[static_cast<int>(RequestOutcome::kShed)] == shed,
            "shed spans != shed counter");
    c.Check(static_cast<int64_t>(by_outcome[static_cast<int>(RequestOutcome::kOpen)]) ==
                in_flight,
            "open spans != in-flight requests");
    LatencyAttributor attributor;
    attributor.Attribute(all);
    std::array<double, kNumAttributionComponents> sum_ns{};
    bool exact = true;
    for (const Attribution& a : attributor.attributions()) {
      int64_t parts = 0;
      for (int k = 0; k < kNumAttributionComponents; ++k) {
        const int64_t v = AttributionComponent(a, k);
        parts += v;
        sum_ns[static_cast<size_t>(k)] += static_cast<double>(v);
      }
      exact = exact && parts == a.total;
    }
    c.Check(exact, "attribution components do not sum to span latency");
    const double n = static_cast<double>(attributor.attributions().size());
    const char* names[kNumAttributionComponents] = {"queue",    "service", "backoff",
                                                    "recovery", "hedge",   "deferral"};
    for (int k = 0; k < kNumAttributionComponents; ++k) {
      c.Add(std::string("attr.") + names[k] + "_ms_mean",
            Ratio(sum_ns[static_cast<size_t>(k)], n) * 1e-6, "sim_ms");
    }
  }
  out->attempted = arrivals_measured;
}

}  // namespace

void NsHistogram::Add(int64_t ns) {
  const uint64_t v = static_cast<uint64_t>(std::max<int64_t>(0, ns));
  int bucket = static_cast<int>(v);
  if (v >= (uint64_t{1} << kSubBits)) {
    const int exp = 63 - __builtin_clzll(v);
    const int shift = exp - kSubBits;
    bucket = ((shift + 1) << kSubBits) + static_cast<int>((v >> shift) & ((1u << kSubBits) - 1));
  }
  ++counts_[static_cast<size_t>(bucket)];
  ++count_;
  sum_ns_ += static_cast<double>(v);
}

double NsHistogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double rank = q / 100.0 * static_cast<double>(count_);
  double below = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const double n = static_cast<double>(counts_[static_cast<size_t>(b)]);
    if (n == 0 || below + n < rank) {
      below += n;
      continue;
    }
    // Bucket b covers [lo, lo + width): below 2^kSubBits one value each,
    // above it 2^kSubBits buckets per power of two.
    double lo = b;
    double width = 1;
    if (b >= (1 << kSubBits)) {
      const int shift = (b >> kSubBits) - 1;
      const int sub = b & ((1 << kSubBits) - 1);
      lo = std::ldexp(static_cast<double>((1 << kSubBits) + sub), shift);
      width = std::ldexp(1.0, shift);
    }
    return lo + width * std::clamp((rank - below) / n, 0.0, 1.0);
  }
  return 0.0;
}

const char* HostLayerName(int layer) {
  static const char* const kNames[kNumHostLayers] = {
      "bench", "clients", "engine", "cluster", "control", "fault", "untagged"};
  return kNames[layer];
}

bool MakeInputs(const std::string& workload, uint64_t seed, double measure_s,
                Inputs* out) {
  out->workload = workload;
  out->seed = seed;
  Timeline& tl = out->timeline;
  if (workload == "gpu_stack") {
    tl.warmup = FromSeconds(kGpuWarmupS);
    tl.arrivals_end = tl.warmup + FromSeconds(measure_s > 0 ? measure_s : kGpuMeasureS);
    tl.horizon = tl.arrivals_end + FromSeconds(kGpuDrainS);
    for (const char* model : kGpuServices) {
      out->rates.push_back(ServiceFor(model).load_rps);
    }
    return true;
  }
  if (IsFleet(workload)) {
    tl.warmup = FromSeconds(kFleetWarmupS);
    tl.arrivals_end = tl.warmup + FromSeconds(measure_s > 0 ? measure_s : kFleetMeasureS);
    tl.horizon = tl.arrivals_end + FromSeconds(kFleetDrainS);
    // Per-model rates from the catalogue's popularity shares, as the
    // dispatcher's own arrival process splits the aggregate.
    const FleetTelemetry catalogue(kFleetCatalogueSeed);
    for (double share : PopularityShares(catalogue.models())) {
      out->rates.push_back(kFleetRps * share);
    }
    return true;
  }
  return false;
}

void RunOnce(const Inputs& in, bool traced, int cpu, HostSample* host, SimSample* sim) {
  if (IsFleet(in.workload)) {
    RunFleet(in, traced, cpu, host, sim);
  } else {
    RunGpuStack(in, traced, cpu, host, sim);
  }
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}


}  // namespace perfbench
