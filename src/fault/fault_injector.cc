#include "src/fault/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/gpu/execution_engine.h"
#include "src/obs/trace.h"

namespace lithos {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash:
      return "crash";
    case FaultKind::kNodeRepair:
      return "repair";
    case FaultKind::kStragglerStart:
      return "straggle";
    case FaultKind::kStragglerEnd:
      return "recover-clock";
    case FaultKind::kZoneOutage:
      return "zone-outage";
    case FaultKind::kZoneRepair:
      return "zone-repair";
    case FaultKind::kPowerCapStart:
      return "power-cap";
    case FaultKind::kPowerCapEnd:
      return "power-uncap";
    case FaultKind::kRackCrash:
      return "rack-crash";
    case FaultKind::kRackRepair:
      return "rack-repair";
    case FaultKind::kPartitionStart:
      return "partition";
    case FaultKind::kPartitionHeal:
      return "partition-heal";
  }
  return "?";
}

namespace {

constexpr bool Paired(FaultKind start, FaultKind end) {
  return static_cast<int>(start) % 2 == 0 &&
         static_cast<int>(end) == static_cast<int>(start) + 1;
}
static_assert(Paired(FaultKind::kNodeCrash, FaultKind::kNodeRepair));
static_assert(Paired(FaultKind::kStragglerStart, FaultKind::kStragglerEnd));
static_assert(Paired(FaultKind::kZoneOutage, FaultKind::kZoneRepair));
static_assert(Paired(FaultKind::kPowerCapStart, FaultKind::kPowerCapEnd));
static_assert(Paired(FaultKind::kRackCrash, FaultKind::kRackRepair));
static_assert(Paired(FaultKind::kPartitionStart, FaultKind::kPartitionHeal));
static_assert(static_cast<int>(FaultKind::kPartitionHeal) + 1 == kNumFaultKinds);

// Floor of every repair delay (a repair takes nonzero time).
constexpr DurationNs kMinRepair = FromMillis(1);

// One repair delay. kFixed consumes no Rng draws (legacy schedules stay
// byte-identical); kWeibull consumes exactly one draw, inverting the CDF
// from a single uniform.
DurationNs SampleRepair(const RepairModel& model, Rng& rng) {
  if (model.dist == RepairModel::Dist::kFixed) {
    return std::max<DurationNs>(model.fixed, kMinRepair);
  }
  const double u = rng.NextDouble();
  const double seconds =
      model.weibull_scale_s * std::pow(-std::log(1.0 - u), 1.0 / model.weibull_shape);
  return std::max<DurationNs>(FromSeconds(seconds), kMinRepair);
}

}  // namespace

FaultInjector::FaultInjector(Simulator* sim, ClusterDispatcher* fleet,
                             const FaultScenarioConfig& config)
    : sim_(sim), fleet_(fleet), config_(config) {
  LITHOS_CHECK(fleet_ != nullptr);
  const int num_nodes = fleet_->config().num_nodes;
  const int num_zones = fleet_->num_zones();
  const ZoneTopology& topo = fleet_->zone_topology();
  straggle_causes_.assign(num_nodes, 0);
  zone_cap_.assign(num_zones, 1.0);

  // Scripted events first, in declaration order.
  for (const ZoneOutageSpec& outage : config_.zone_outages) {
    LITHOS_CHECK_GE(outage.zone, 0);
    LITHOS_CHECK_LT(outage.zone, num_zones);
    schedule_.push_back({outage.at, FaultKind::kZoneOutage, outage.zone, -1, -1, 0.0});
    schedule_.push_back(
        {outage.at + outage.duration, FaultKind::kZoneRepair, outage.zone, -1, -1, 1.0});
  }
  for (const PowerCapSpec& cap : config_.power_caps) {
    LITHOS_CHECK_GE(cap.zone, 0);
    LITHOS_CHECK_LT(cap.zone, num_zones);
    LITHOS_CHECK_GT(cap.freq_fraction, 0.0);
    schedule_.push_back({cap.at, FaultKind::kPowerCapStart, cap.zone, -1, -1, cap.freq_fraction});
    schedule_.push_back({cap.at + cap.duration, FaultKind::kPowerCapEnd, cap.zone, -1, -1, 1.0});
  }
  for (const PartitionSpec& part : config_.partitions) {
    LITHOS_CHECK_GE(part.zone, 0);
    LITHOS_CHECK_LT(part.zone, num_zones);
    schedule_.push_back({part.at, FaultKind::kPartitionStart, part.zone, -1, -1, 0.0});
    schedule_.push_back(
        {part.at + part.duration, FaultKind::kPartitionHeal, part.zone, -1, -1, 1.0});
  }
  for (const RackCrashSpec& rc : config_.rack_crashes) {
    LITHOS_CHECK_GE(rc.zone, 0);
    LITHOS_CHECK_LT(rc.zone, num_zones);
    LITHOS_CHECK_GE(rc.rack, 0);
    LITHOS_CHECK_LT(rc.rack, topo.racks_per_zone);
    schedule_.push_back({rc.at, FaultKind::kRackCrash, rc.zone, -1, rc.rack, 0.0});
    schedule_.push_back({rc.at + rc.duration, FaultKind::kRackRepair, rc.zone, -1, rc.rack, 1.0});
  }

  // Random processes: one seeded generator, drawn in a fixed order (all
  // crashes, then all stragglers, then all rack crashes — new processes
  // append after the legacy ones so configs that never enable them draw an
  // identical sequence), keeping the schedule a pure function of the config.
  // Repair durations draw from their own stream so switching the repair
  // distribution (fixed vs heavy-tailed) never perturbs the crash instants:
  // the same seed replays the same incident timeline under any repair model.
  Rng rng(config_.seed * 0x9E3779B97F4A7C15ULL + 0xFA01Du);
  Rng repair_rng(config_.seed * 0x9E3779B97F4A7C15ULL + 0x5EFA12u);
  if (config_.crashes_per_second > 0 && config_.horizon > 0) {
    TimeNs t = 0;
    while (true) {
      t += FromSeconds(rng.Exponential(1.0 / config_.crashes_per_second));
      if (t >= config_.horizon) {
        break;
      }
      const int node = static_cast<int>(rng.UniformInt(0, num_nodes - 1));
      const DurationNs repair = SampleRepair(config_.crash_repair, repair_rng);
      schedule_.push_back({t, FaultKind::kNodeCrash, fleet_->ZoneOfNode(node), node, -1, 0.0});
      schedule_.push_back(
          {t + repair, FaultKind::kNodeRepair, fleet_->ZoneOfNode(node), node, -1, 1.0});
    }
  }
  if (config_.stragglers_per_second > 0 && config_.horizon > 0) {
    LITHOS_CHECK_GT(config_.straggler_slowdown, 0.0);
    TimeNs t = 0;
    while (true) {
      t += FromSeconds(rng.Exponential(1.0 / config_.stragglers_per_second));
      if (t >= config_.horizon) {
        break;
      }
      const int node = static_cast<int>(rng.UniformInt(0, num_nodes - 1));
      schedule_.push_back({t, FaultKind::kStragglerStart, fleet_->ZoneOfNode(node), node, -1,
                           config_.straggler_slowdown});
      schedule_.push_back({t + config_.straggler_duration, FaultKind::kStragglerEnd,
                           fleet_->ZoneOfNode(node), node, -1, 1.0});
    }
  }
  if (config_.rack_crashes_per_second > 0 && config_.horizon > 0) {
    LITHOS_CHECK_GT(topo.NumRacks(), 0);
    TimeNs t = 0;
    while (true) {
      t += FromSeconds(rng.Exponential(1.0 / config_.rack_crashes_per_second));
      if (t >= config_.horizon) {
        break;
      }
      const int grack = static_cast<int>(rng.UniformInt(0, topo.NumRacks() - 1));
      const int zone = grack / topo.racks_per_zone;
      const int rack = grack % topo.racks_per_zone;
      const DurationNs repair = SampleRepair(config_.rack_repair, repair_rng);
      schedule_.push_back({t, FaultKind::kRackCrash, zone, -1, rack, 0.0});
      schedule_.push_back({t + repair, FaultKind::kRackRepair, zone, -1, rack, 1.0});
    }
  }

  // Stable by time: simultaneous events keep generation order, and Arm()
  // inserts them into the simulator in this order, so equal-timestamp faults
  // fire exactly as listed.
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
}

std::vector<GroundTruthSpan> FaultInjector::GroundTruthSpans(TimeNs horizon) const {
  std::vector<GroundTruthSpan> out;
  // Open intervals, FIFO per (start kind, first target node): overlapping
  // causes on one target pair up first start, first end.
  std::map<std::pair<int, int>, std::vector<size_t>> open;
  for (const FaultEvent& e : schedule_) {
    const int kind = static_cast<int>(e.kind);
    std::vector<size_t>& fifo = open[{kind & ~1, NodeRange(e).first}];
    if ((kind & 1) == 0) {
      GroundTruthSpan span;
      span.kind = e.kind;
      span.zone = e.zone;
      span.node = e.node;
      span.rack = e.rack;
      span.start = e.at;
      span.end = horizon;  // provisional: still open at the horizon
      span.factor = e.factor;
      fifo.push_back(out.size());
      out.push_back(span);
    } else if (!fifo.empty()) {  // an unmatched end (no start) is ignored
      out[fifo.front()].end = e.at;
      fifo.erase(fifo.begin());
    }
  }

  // Drop spans the run never sees; clamp tails to the horizon. Order stays
  // start order (the schedule is time-sorted).
  std::vector<GroundTruthSpan> visible;
  visible.reserve(out.size());
  for (GroundTruthSpan& span : out) {
    if (span.start >= horizon) {
      continue;
    }
    span.end = std::min(span.end, horizon);
    visible.push_back(span);
  }
  return visible;
}

void FaultInjector::Arm() {
  for (size_t i = 0; i < schedule_.size(); ++i) {
    const TimeNs at = std::max(schedule_[i].at, sim_->Now());
    sim_->ScheduleAt(at, [this, i] { Apply(schedule_[i]); });
  }
}

std::pair<int, int> FaultInjector::NodeRange(const FaultEvent& event) const {
  const ZoneTopology& topo = fleet_->zone_topology();
  if (event.node >= 0) {
    return {event.node, event.node + 1};
  }
  if (event.rack >= 0) {
    return {topo.RackBegin(event.zone, event.rack), topo.RackEnd(event.zone, event.rack)};
  }
  return {topo.ZoneBegin(event.zone), topo.ZoneEnd(event.zone)};
}

void FaultInjector::ApplyFrequency(int node) {
  const GpuSpec& spec = fleet_->config().spec;
  const double straggle = straggle_causes_[node] > 0 ? config_.straggler_slowdown : 1.0;
  const double fraction = std::min(straggle, zone_cap_[fleet_->ZoneOfNode(node)]);
  const int mhz = spec.ClampFrequency(static_cast<int>(std::llround(spec.max_mhz * fraction)));
  fleet_->nodes()[node]->engine()->RequestFrequencyMhz(mhz);
}

void FaultInjector::Apply(const FaultEvent& event) {
  ++applied_[static_cast<size_t>(event.kind)];
  if (event.kind == FaultKind::kPowerCapStart || event.kind == FaultKind::kPowerCapEnd) {
    zone_cap_[event.zone] = event.factor;  // the end event's factor is 1
  }
  const auto [first, last] = NodeRange(event);
  for (int n = first; n < last; ++n) {
    switch (event.kind) {
      case FaultKind::kNodeCrash:
      case FaultKind::kZoneOutage:
      case FaultKind::kRackCrash:
        fleet_->FailNode(n);
        break;
      case FaultKind::kNodeRepair:
      case FaultKind::kZoneRepair:
      case FaultKind::kRackRepair:
        fleet_->ReviveNode(n);
        break;
      case FaultKind::kPartitionStart:
        fleet_->PartitionNode(n);
        break;
      case FaultKind::kPartitionHeal:
        fleet_->HealNode(n);
        break;
      case FaultKind::kStragglerStart:
        ++straggle_causes_[n];
        ApplyFrequency(n);
        break;
      case FaultKind::kStragglerEnd:
        --straggle_causes_[n];
        LITHOS_CHECK_GE(straggle_causes_[n], 0);
        ApplyFrequency(n);
        break;
      case FaultKind::kPowerCapStart:
      case FaultKind::kPowerCapEnd:
        ApplyFrequency(n);
        break;
    }
  }
  if (recorder_ != nullptr) {
    recorder_->Append(sim_->Now(), TraceLayer::kFault, TraceKind::kFaultApplied,
                      event.node, event.zone, static_cast<int32_t>(event.kind),
                      static_cast<int64_t>(std::llround(event.factor * 1e6)));
  }
}

}  // namespace lithos
