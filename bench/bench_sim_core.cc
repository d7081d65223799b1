// Event-core throughput: micro benchmarks of the discrete-event simulator
// (events/sec, new slab/d-ary-heap core vs the pre-PR priority_queue +
// unordered_map core) plus end-to-end wall-clock of the two scenario
// families every figure rides on — single-GPU inference stacking and the
// fleet-autoscale day. Emits BENCH_sim_core.json so CI can gate event-core
// regressions (scripts/check_bench_regression.py against
// bench/baselines/BENCH_sim_core_baseline.json).
//
// The pre-PR core is embedded below (namespace legacy) so the speedup ratio
// is measured in one binary on one machine — absolute events/sec vary across
// runners, the ratio much less.
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/autoscale/fleet_controller.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/experiments/harness.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace legacy {

// The seed-era simulator, verbatim: heap-allocated std::function callbacks
// keyed by id in an unordered_map, lazy-deletion priority_queue (Cancel()
// leaves a tombstone the pop loop skips later).
using lithos::DurationNs;
using lithos::TimeNs;
using EventId = uint64_t;

class Simulator {
 public:
  Simulator() = default;
  TimeNs Now() const { return now_; }

  EventId ScheduleAt(TimeNs at, std::function<void()> fn) {
    const EventId id = next_id_++;
    queue_.push(Event{at, next_seq_++, id});
    callbacks_.emplace(id, std::move(fn));
    return id;
  }

  EventId ScheduleAfter(DurationNs delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  void Cancel(EventId id) { callbacks_.erase(id); }

  bool Step() {
    while (!queue_.empty()) {
      const Event ev = queue_.top();
      queue_.pop();
      auto it = callbacks_.find(ev.id);
      if (it == callbacks_.end()) {
        continue;  // Cancelled.
      }
      std::function<void()> fn = std::move(it->second);
      callbacks_.erase(it);
      now_ = ev.at;
      fn();
      return true;
    }
    return false;
  }

  void RunToCompletion() {
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      if (callbacks_.find(top.id) == callbacks_.end()) {
        queue_.pop();
        continue;
      }
      Step();
    }
  }

 private:
  struct Event {
    TimeNs at;
    uint64_t seq;
    EventId id;
    bool operator>(const Event& other) const {
      if (at != other.at) {
        return at > other.at;
      }
      return seq > other.seq;
    }
  };

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::unordered_map<EventId, std::function<void()>> callbacks_;
};

}  // namespace legacy

using namespace lithos;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// --- Micro 1: schedule/fire ring --------------------------------------------
// A ring of `ring` outstanding events; every firing schedules a successor
// until `total` events have fired. The callback is a 32-byte functor passed
// directly, like the engine's `[this, id]` completion lambdas: the new core
// stores it inline in the event slot, the legacy core wraps it in a
// std::function whose captures exceed the SBO — one heap allocation per
// event, exactly the pre-PR cost.
template <typename Sim>
struct RingTick {
  Sim* sim;
  int64_t* fired;
  int ring;
  int64_t total;
  void operator()() const {
    ++*fired;
    if (*fired + ring <= total) {
      sim->ScheduleAfter(100, RingTick{sim, fired, ring, total});
    }
  }
};

// `trace` (new core only) attaches a binary recorder: every schedule and
// fire then appends a 32-byte record into a preallocated ring buffer, so the
// rate measures the *enabled* tracing cost (the disabled path is the nullptr
// branch every untraced run already pays).
template <typename Sim>
double RingEventsPerSec(int64_t total, int ring, TraceRecorder* trace = nullptr) {
  Sim sim;
  if constexpr (std::is_same_v<Sim, Simulator>) {
    sim.SetTrace(trace);
  }
  int64_t fired = 0;
  for (int i = 0; i < ring; ++i) {
    sim.ScheduleAfter(i + 1, RingTick<Sim>{&sim, &fired, ring, total});
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.RunToCompletion();
  return static_cast<double>(fired) / SecondsSince(t0);
}

// --- Micro 2: cancel/reschedule churn ---------------------------------------
// `pending` events parked at a horizon; `ops` operations each move one event
// to a new timestamp — the engine's checkpoint/reschedule pattern. The legacy
// core can only cancel + re-insert (each op grows the queue by a tombstone);
// the new core either removes in place or, with `use_reschedule`, sifts the
// entry without touching the slab at all. Rate counts ops + the final drain.
constexpr TimeNs kChurnHorizon = 1'000'000'000;

struct ChurnRng {
  uint64_t state = 0x9E3779B97F4A7C15ull;
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  }
};

template <typename Sim>
double ChurnCancelReinsertPerSec(int64_t ops, int pending) {
  Sim sim;
  int64_t fired = 0;
  auto cb = [&fired] { ++fired; };
  std::vector<uint64_t> ids(static_cast<size_t>(pending));
  for (int i = 0; i < pending; ++i) {
    ids[static_cast<size_t>(i)] = sim.ScheduleAt(kChurnHorizon + i, cb);
  }
  ChurnRng rng;
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t op = 0; op < ops; ++op) {
    const uint64_t r = rng.Next();
    const size_t j = static_cast<size_t>(r % static_cast<uint64_t>(pending));
    const TimeNs at = kChurnHorizon + static_cast<TimeNs>(r % 1'000'000u);
    sim.Cancel(ids[j]);
    ids[j] = sim.ScheduleAt(at, cb);
  }
  sim.RunToCompletion();
  return static_cast<double>(ops + fired) / SecondsSince(t0);
}

double ChurnReschedulePerSec(int64_t ops, int pending) {
  Simulator sim;
  int64_t fired = 0;
  auto cb = [&fired] { ++fired; };
  std::vector<EventId> ids(static_cast<size_t>(pending));
  for (int i = 0; i < pending; ++i) {
    ids[static_cast<size_t>(i)] = sim.ScheduleAt(kChurnHorizon + i, cb);
  }
  ChurnRng rng;
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t op = 0; op < ops; ++op) {
    const uint64_t r = rng.Next();
    const size_t j = static_cast<size_t>(r % static_cast<uint64_t>(pending));
    const TimeNs at = kChurnHorizon + static_cast<TimeNs>(r % 1'000'000u);
    sim.Reschedule(ids[j], at);
  }
  sim.RunToCompletion();
  return static_cast<double>(ops + fired) / SecondsSince(t0);
}

// --- End-to-end scenarios ----------------------------------------------------

FleetStackingResult RunStackingScenario() {
  StackingConfig cfg;
  cfg.system = SystemKind::kLithos;
  cfg.warmup = bench::kWarmup;
  cfg.duration = FromSeconds(6);
  const GpuSpec spec = GpuSpec::A100();
  AppSpec a = bench::MakeHpApp("ResNet", AppRole::kHpLatency);
  AppSpec b = bench::MakeHpApp("Llama 3", AppRole::kHpThroughput);
  AppSpec be = bench::MakeBeInferenceApp("GPT-J");
  AssignInferenceOnlyQuotas(cfg.system, spec, &a, &b, &be);
  return RunStackingFleet(cfg, {a, b, be}, /*num_nodes=*/1);
}

AutoscaleResult RunAutoscaleScenario() {
  // Mirrors bench_cluster_autoscale's headline config: a 10-node pool over
  // two compressed fleet days under the predictive scaler.
  AutoscaleConfig config;
  config.cluster.policy = PlacementPolicy::kModelAffinity;
  config.cluster.num_nodes = 10;
  config.cluster.system = SystemKind::kLithos;
  config.cluster.aggregate_rps = 700.0;
  config.cluster.seconds_per_day = 6.0;
  config.cluster.warmup = FromSeconds(1);
  config.cluster.duration = FromSeconds(12);
  config.cluster.seed = 2026;
  config.scaling = ScalingPolicyKind::kPredictive;
  config.control_period = FromMillis(250);
  config.target_util = 0.5;
  config.min_nodes = 2;
  return RunClusterAutoscale(config);
}

bool SameStacking(const StackingResult& x, const StackingResult& y) {
  if (x.apps.size() != y.apps.size()) {
    return false;
  }
  for (size_t i = 0; i < x.apps.size(); ++i) {
    if (x.apps[i].p99_ms != y.apps[i].p99_ms ||
        x.apps[i].throughput_rps != y.apps[i].throughput_rps ||
        x.apps[i].completed != y.apps[i].completed) {
      return false;
    }
  }
  return x.engine.energy_joules == y.engine.energy_joules &&
         x.engine.grants_completed == y.engine.grants_completed;
}

bool SameAutoscale(const AutoscaleResult& x, const AutoscaleResult& y) {
  return x.gpu_hours_per_day == y.gpu_hours_per_day &&
         x.joules_per_day == y.joules_per_day &&
         x.cluster.p99_ms == y.cluster.p99_ms && x.migrations == y.migrations &&
         x.mean_powered_on == y.mean_powered_on;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Event-core throughput: slab/d-ary-heap simulator vs pre-PR core",
      "infrastructure for every figure; events/sec gates scenario campaign size");

  const bench::BenchOptions bench_opts = bench::ParseBenchOptions(argc, argv);
  bench::JsonEmitter json("sim_core");

  // --- Micro -----------------------------------------------------------------
  constexpr int64_t kRingTotal = 2'000'000;
  constexpr int kRingSize = 64;
  constexpr int64_t kChurnOps = 2'000'000;
  constexpr int kChurnPending = 512;

  // Warm both allocators once, then measure.
  RingEventsPerSec<Simulator>(kRingTotal / 10, kRingSize);
  RingEventsPerSec<legacy::Simulator>(kRingTotal / 10, kRingSize);

  const double ring_new = RingEventsPerSec<Simulator>(kRingTotal, kRingSize);
  const double ring_legacy = RingEventsPerSec<legacy::Simulator>(kRingTotal, kRingSize);
  // Tracing overhead: traced/untraced ratio of the same ring, one ratio per
  // back-to-back pair, with the order alternating so neither side always
  // runs second on a drifting host. The median ratio is gated (CI, through
  // the wall_metrics baseline); the interquartile range is reported so a
  // noisy host shows up as spread rather than as a gate failure. Ring
  // recorder sized to one segment: appends stay allocation-free, and it
  // keeps the last traced run's final 64K records (--trace writes them out).
  constexpr int kTracePairs = 9;
  TraceRecorder ring_trace(TraceRecorder::kSegmentRecords);
  PercentileDigest traced_rates;
  PercentileDigest traced_fractions;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    double plain = 0;
    if (pair % 2 == 1) {
      plain = RingEventsPerSec<Simulator>(kRingTotal, kRingSize);
    }
    ring_trace.Clear();
    const double traced = RingEventsPerSec<Simulator>(kRingTotal, kRingSize, &ring_trace);
    if (pair % 2 == 0) {
      plain = RingEventsPerSec<Simulator>(kRingTotal, kRingSize);
    }
    traced_rates.Add(traced);
    traced_fractions.Add(traced / plain);
  }
  traced_rates.Finalize();
  traced_fractions.Finalize();
  const double ring_traced = traced_rates.Median();
  const double ring_traced_fraction = traced_fractions.Median();
  const double ring_traced_fraction_iqr =
      traced_fractions.Percentile(75) - traced_fractions.Percentile(25);
  const double churn_new_cancel = ChurnCancelReinsertPerSec<Simulator>(kChurnOps, kChurnPending);
  const double churn_new_resched = ChurnReschedulePerSec(kChurnOps, kChurnPending);
  const double churn_legacy =
      ChurnCancelReinsertPerSec<legacy::Simulator>(kChurnOps, kChurnPending);

  Table micro({"micro", "legacy Mev/s", "new Mev/s", "speedup"});
  const double ring_speedup = ring_new / ring_legacy;
  const double churn_speedup = churn_new_resched / churn_legacy;
  micro.AddRow({"schedule/fire ring", Table::Num(ring_legacy / 1e6, 2),
                Table::Num(ring_new / 1e6, 2), Table::Num(ring_speedup, 2)});
  micro.AddRow({"churn (cancel+reinsert)", Table::Num(churn_legacy / 1e6, 2),
                Table::Num(churn_new_cancel / 1e6, 2),
                Table::Num(churn_new_cancel / churn_legacy, 2)});
  micro.AddRow({"churn (reschedule)", Table::Num(churn_legacy / 1e6, 2),
                Table::Num(churn_new_resched / 1e6, 2), Table::Num(churn_speedup, 2)});
  micro.Print();

  std::printf("\nTraced ring (binary recorder attached, %zu-record ring): %.2f Mev/s, "
              "%.0f%% of untraced (median of %d alternating pairs, IQR %.3f)\n",
              TraceRecorder::kSegmentRecords, ring_traced / 1e6, 100 * ring_traced_fraction,
              kTracePairs, ring_traced_fraction_iqr);

  // Throughput numbers depend on the machine's wall clock, so they go in the
  // jobs-gated wall_metrics section (this bench is always a jobs=1 run).
  json.WallMetric("ring_events_per_sec_new", ring_new);
  json.WallMetric("ring_events_per_sec_legacy", ring_legacy);
  json.WallMetric("ring_speedup", ring_speedup);
  json.WallMetric("ring_events_per_sec_traced", ring_traced);
  json.WallMetric("ring_traced_fraction", ring_traced_fraction);
  json.WallMetric("ring_traced_fraction_iqr", ring_traced_fraction_iqr);
  json.WallMetric("churn_events_per_sec_new_cancel", churn_new_cancel);
  json.WallMetric("churn_events_per_sec_new_reschedule", churn_new_resched);
  json.WallMetric("churn_events_per_sec_legacy", churn_legacy);
  json.WallMetric("churn_speedup", churn_speedup);
  json.WallMetric("churn_cancel_speedup", churn_new_cancel / churn_legacy);

  // --- End-to-end ------------------------------------------------------------
  std::printf("\nEnd-to-end scenario wall-clock (same seed run twice; metrics must be identical)\n");

  auto t0 = std::chrono::steady_clock::now();
  const FleetStackingResult stack1 = RunStackingScenario();
  const double stack_ms_1 = SecondsSince(t0) * 1e3;
  t0 = std::chrono::steady_clock::now();
  const FleetStackingResult stack2 = RunStackingScenario();
  const double stack_ms = std::min(stack_ms_1, SecondsSince(t0) * 1e3);
  const bool stack_same = SameStacking(stack1.per_node[0], stack2.per_node[0]);

  t0 = std::chrono::steady_clock::now();
  const AutoscaleResult fleet1 = RunAutoscaleScenario();
  const double fleet_ms_1 = SecondsSince(t0) * 1e3;
  t0 = std::chrono::steady_clock::now();
  const AutoscaleResult fleet2 = RunAutoscaleScenario();
  const double fleet_ms = std::min(fleet_ms_1, SecondsSince(t0) * 1e3);
  const bool fleet_same = SameAutoscale(fleet1, fleet2);

  Table e2e({"scenario", "wall ms", "deterministic", "headline"});
  char headline[96];
  std::snprintf(headline, sizeof(headline), "HP A p99 %.2f ms",
                stack1.per_node[0].apps[0].p99_ms);
  e2e.AddRow({"inference stacking (LithOS)", Table::Num(stack_ms, 1),
              stack_same ? "yes" : "NO", headline});
  std::snprintf(headline, sizeof(headline), "%.1f GPU-h/day, p99 %.2f ms",
                fleet1.gpu_hours_per_day, fleet1.cluster.p99_ms);
  e2e.AddRow({"fleet autoscale (2 days, predictive)", Table::Num(fleet_ms, 1),
              fleet_same ? "yes" : "NO", headline});
  e2e.Print();

  json.WallMetric("stacking_wall_ms", stack_ms);
  json.Metric("stacking_deterministic", stack_same ? 1 : 0);
  json.Metric("stacking_hp_a_p99_ms", stack1.per_node[0].apps[0].p99_ms);
  json.WallMetric("autoscale_wall_ms", fleet_ms);
  json.Metric("autoscale_deterministic", fleet_same ? 1 : 0);
  json.Metric("autoscale_gpu_hours_per_day", fleet1.gpu_hours_per_day);
  json.Metric("autoscale_p99_ms", fleet1.cluster.p99_ms);
  json.Metric("autoscale_joules_per_day", fleet1.joules_per_day);

  // Event-core work done by the two scenarios, routed through the registry
  // so the JSON carries the simulator's schedule/cancel/reschedule counters
  // (deterministic: pure functions of the seeds).
  MetricsRegistry registry;
  registry.counter("stacking/events_scheduled").Inc(stack1.sim.scheduled);
  registry.counter("stacking/events_fired").Inc(stack1.sim.fired);
  registry.counter("stacking/events_canceled").Inc(stack1.sim.canceled);
  registry.counter("stacking/events_rescheduled").Inc(stack1.sim.rescheduled);
  registry.counter("autoscale/events_scheduled").Inc(fleet1.sim.scheduled);
  registry.counter("autoscale/events_fired").Inc(fleet1.sim.fired);
  registry.counter("autoscale/events_canceled").Inc(fleet1.sim.canceled);
  registry.counter("autoscale/events_rescheduled").Inc(fleet1.sim.rescheduled);
  for (const auto& [name, value] : registry.Rows()) {
    std::string key = name;
    for (char& c : key) {
      if (c == '/') {
        c = '_';
      }
    }
    json.Metric(key, value);
  }

  json.Write();
  bench::WriteTraceIfRequested(ring_trace, bench_opts);
  return (stack_same && fleet_same) ? 0 : 1;
}
