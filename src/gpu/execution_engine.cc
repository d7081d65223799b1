#include "src/gpu/execution_engine.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/obs/trace.h"

namespace lithos {

namespace {
// Progress is a double in [0,1]; values within this epsilon of 1 count as
// finished, absorbing floating-point drift from repeated checkpointing.
constexpr double kProgressEpsilon = 1e-9;
}  // namespace

ExecutionEngine::ExecutionEngine(Simulator* sim, const GpuSpec& spec)
    : sim_(sim),
      spec_(spec),
      total_tpcs_(spec.TotalTpcs()),
      current_mhz_(spec.max_mhz),
      desired_mhz_(spec.max_mhz),
      last_account_(sim->Now()) {}

ExecutionEngine::Grant* ExecutionEngine::Resolve(GrantId id) {
  const uint32_t slot = SlotOf(id);
  if (slot >= grants_.size()) {
    return nullptr;
  }
  Grant& g = grants_[slot];
  if (!g.occupied || g.generation != GenOf(id)) {
    return nullptr;
  }
  return &g;
}

const ExecutionEngine::Grant* ExecutionEngine::Resolve(GrantId id) const {
  return const_cast<ExecutionEngine*>(this)->Resolve(id);
}

uint32_t ExecutionEngine::AllocGrantSlot() {
  if (!free_grants_.empty()) {
    const uint32_t slot = free_grants_.back();
    free_grants_.pop_back();
    return slot;
  }
  grants_.emplace_back();
  return static_cast<uint32_t>(grants_.size() - 1);
}

void ExecutionEngine::FreeGrantSlot(uint32_t slot) {
  Grant& g = grants_[slot];
  g.occupied = false;
  g.paused = false;
  g.item = WorkItem{};
  g.completion_event = 0;
  ++g.generation;
  if (g.generation == 0) {
    g.generation = 1;
  }
  free_grants_.push_back(slot);
}

double ExecutionEngine::CurrentLatencyNs(const Grant& g) const {
  const KernelDesc& k = *g.item.kernel;
  const uint32_t lo = g.item.block_lo;
  const uint32_t hi = g.item.block_hi == 0 ? k.NumBlocks() : g.item.block_hi;

  // One pass over the mask computes both the effective TPC share and the
  // foreign share-weight fraction.
  const double w = g.item.share_weight;
  double effective = 0;
  double foreign_sum = 0;
  int n = 0;
  ForEachTpc(g.mask, total_tpcs_, [&](int t) {
    LITHOS_CHECK_GT(sharers_[t], 0);
    const double total_w = share_weight_[t];
    effective += w / total_w;
    if (total_w > w) {
      foreign_sum += (total_w - w) / total_w;
    }
    ++n;
  });
  effective = std::max(effective, 1e-6);
  double lat = static_cast<double>(k.RangeLatencyNs(spec_, lo, hi, effective, current_mhz_));

  // Intra-SM co-residency contention: average foreign share-weight fraction
  // across the grant's TPCs, discounted by the kernel's own device-filling
  // ability (see GpuSpec::coresidency_penalty).
  const double foreign = n > 0 ? foreign_sum / static_cast<double>(n) : 0.0;
  if (foreign > 0) {
    const double own_span =
        std::min(1.0, static_cast<double>(k.MaxUsefulTpcs(spec_)) /
                          static_cast<double>(total_tpcs_));
    // Quadratic in the foreign fraction: a kernel that retains most of the
    // issue bandwidth (e.g. hardware stream priority boosts its share) hides
    // contention much better than one swamped by foreign blocks.
    lat *= 1.0 + spec_.coresidency_penalty * foreign * foreign * (1.0 - own_span);
  }

  lat += static_cast<double>(g.item.extra_overhead_ns);
  return std::max(lat, 1.0);
}

void ExecutionEngine::FlushAccounting() {
  const TimeNs now = sim_->Now();
  const double dt = static_cast<double>(now - last_account_);
  if (dt <= 0) {
    return;
  }
  const double dt_s = dt / static_cast<double>(kSecond);
  const double f_ratio = static_cast<double>(current_mhz_) / static_cast<double>(spec_.max_mhz);
  const double idle_j =
      power_gated_
          ? spec_.gated_power_w * dt_s
          : spec_.idle_power_w *
                (spec_.idle_freq_floor + (1.0 - spec_.idle_freq_floor) * f_ratio) * dt_s;
  stats_.energy_joules += InstantPowerW() * dt_s;
  stats_.idle_energy_joules += idle_j;
  stats_.busy_tpc_seconds += static_cast<double>(busy_mask_.count()) * dt_s;
  stats_.elapsed_seconds += dt_s;
  // Between flushes the running set is constant, so the per-client allocation
  // rate accumulated in client_alloc_tpcs_ held for the whole interval.
  for (const int c : active_clients_) {
    client_alloc_seconds_[static_cast<size_t>(c)] +=
        static_cast<double>(client_alloc_tpcs_[static_cast<size_t>(c)]) * dt_s;
  }
  last_account_ = now;
}

double ExecutionEngine::InstantPowerW() const {
  if (power_gated_) {
    return spec_.gated_power_w;
  }
  const double busy_frac =
      static_cast<double>(busy_mask_.count()) / static_cast<double>(total_tpcs_);
  const double f_ratio = static_cast<double>(current_mhz_) / static_cast<double>(spec_.max_mhz);
  const double idle_scale = spec_.idle_freq_floor + (1.0 - spec_.idle_freq_floor) * f_ratio;
  return spec_.idle_power_w * idle_scale +
         spec_.dynamic_power_w * busy_frac * std::pow(f_ratio, spec_.freq_power_exponent);
}

void ExecutionEngine::CheckpointGrant(Grant& g) {
  const TimeNs now = sim_->Now();
  const double elapsed = static_cast<double>(now - g.last_checkpoint);
#ifndef NDEBUG
  // The memo is exact: every rate change checkpoints before and reschedules
  // after, so the latency from the last RescheduleGrant is still current.
  LITHOS_CHECK_EQ(g.latency_ns, CurrentLatencyNs(g));
#endif
  if (elapsed > 0) {
    g.progress = std::min(1.0, g.progress + elapsed / g.latency_ns);
  }
  g.last_checkpoint = now;
  if (trace_ != nullptr) {
    trace_->Append(now, TraceLayer::kEngine, TraceKind::kGrantCheckpoint,
                   trace_node_, trace_zone_, g.item.client_id,
                   static_cast<int64_t>(g.progress * 1e6));
  }
}

void ExecutionEngine::CheckpointOverlapping(const TpcMask& touched) {
  for (Grant& g : grants_) {
    if (g.occupied && !g.paused && (g.mask & touched).any()) {
      CheckpointGrant(g);
    }
  }
}

void ExecutionEngine::RescheduleOverlapping(const TpcMask& touched) {
  for (Grant& g : grants_) {
    if (g.occupied && !g.paused && (g.mask & touched).any()) {
      RescheduleGrant(g);
    }
  }
}

void ExecutionEngine::CheckpointAllRunning() {
  for (Grant& g : grants_) {
    if (g.occupied && !g.paused) {
      CheckpointGrant(g);
    }
  }
}

void ExecutionEngine::RescheduleAllRunning() {
  for (Grant& g : grants_) {
    if (g.occupied && !g.paused) {
      RescheduleGrant(g);
    }
  }
}

void ExecutionEngine::RescheduleGrant(Grant& g) {
  g.latency_ns = CurrentLatencyNs(g);
  const double remaining = (1.0 - g.progress) * g.latency_ns;
  const TimeNs finish =
      sim_->Now() + std::max<DurationNs>(0, static_cast<DurationNs>(std::ceil(remaining)));
  if (g.completion_event != 0 && sim_->Reschedule(g.completion_event, finish)) {
    return;  // Moved in place: no cancel, no re-insert, no new allocation.
  }
  const GrantId id = g.id;
  g.completion_event = sim_->ScheduleAt(finish, [this, id] { OnGrantFinished(id); });
}

void ExecutionEngine::EnsureClient(int client_id) {
  LITHOS_CHECK_GE(client_id, 0);
  const size_t need = static_cast<size_t>(client_id) + 1;
  if (client_running_.size() < need) {
    client_running_.resize(need, 0);
    client_alloc_tpcs_.resize(need, 0);
    client_alloc_seconds_.resize(need, 0.0);
  }
}

void ExecutionEngine::AddToTpcs(Grant& g) {
  ForEachTpc(g.mask, total_tpcs_, [&](int t) {
    if (sharers_[t]++ == 0) {
      busy_mask_.set(t);
    }
    share_weight_[t] += g.item.share_weight;
  });
  const int c = g.item.client_id;
  EnsureClient(c);
  client_alloc_tpcs_[static_cast<size_t>(c)] += static_cast<int>(g.mask.count());
  if (client_running_[static_cast<size_t>(c)]++ == 0) {
    active_clients_.push_back(c);
  }
  ++running_grants_;
}

void ExecutionEngine::RemoveFromTpcs(Grant& g) {
  ForEachTpc(g.mask, total_tpcs_, [&](int t) {
    LITHOS_CHECK_GT(sharers_[t], 0);
    if (--sharers_[t] == 0) {
      busy_mask_.reset(t);
      share_weight_[t] = 0;  // Clear accumulated floating-point residue.
    } else {
      share_weight_[t] -= g.item.share_weight;
    }
  });
  const int c = g.item.client_id;
  client_alloc_tpcs_[static_cast<size_t>(c)] -= static_cast<int>(g.mask.count());
  if (--client_running_[static_cast<size_t>(c)] == 0) {
    active_clients_.erase(std::find(active_clients_.begin(), active_clients_.end(), c));
  }
  --running_grants_;
}

GrantId ExecutionEngine::Launch(WorkItem item, const TpcMask& mask) {
  LITHOS_CHECK(item.kernel != nullptr);
  LITHOS_CHECK_GT(mask.count(), 0u);
  LITHOS_CHECK(!power_gated_);  // a powered-off device cannot execute work

  FlushAccounting();
  // Sharing ratios change only for grants overlapping the new mask; they fold
  // progress at the old rates before the newcomer lands.
  CheckpointOverlapping(mask);

  const uint32_t slot = AllocGrantSlot();
  Grant& g = grants_[slot];
  g.occupied = true;
  g.paused = false;
  g.id = MakeId(slot, g.generation);
  g.item = std::move(item);
  g.mask = mask;
  g.progress = 0;
  g.submit_time = sim_->Now();
  g.start_time = sim_->Now();
  g.last_checkpoint = sim_->Now();
  g.freq_at_start = current_mhz_;
  g.completion_event = 0;

  AddToTpcs(g);
  if (trace_ != nullptr) {
    trace_->Append(sim_->Now(), TraceLayer::kEngine, TraceKind::kGrantLaunch,
                   trace_node_, trace_zone_, g.item.client_id,
                   static_cast<int64_t>(g.mask.count()));
  }
  // Includes the new grant itself: its first completion event is created here.
  RescheduleOverlapping(mask);
  return g.id;
}

void ExecutionEngine::Pause(GrantId id) {
  Grant* g = Resolve(id);
  LITHOS_CHECK(g != nullptr);
  LITHOS_CHECK(!g->paused);

  FlushAccounting();
  CheckpointOverlapping(g->mask);
  RemoveFromTpcs(*g);
  g->paused = true;
  if (g->completion_event != 0) {
    sim_->Cancel(g->completion_event);
    g->completion_event = 0;
  }
  RescheduleOverlapping(g->mask);  // former co-tenants speed up
}

void ExecutionEngine::Resume(GrantId id, const TpcMask& mask) {
  Grant* g = Resolve(id);
  LITHOS_CHECK(g != nullptr);
  LITHOS_CHECK(g->paused);
  LITHOS_CHECK_GT(mask.count(), 0u);
  LITHOS_CHECK(!power_gated_);

  FlushAccounting();
  CheckpointOverlapping(mask);  // incoming mask's tenants slow down
  g->mask = mask;
  g->paused = false;
  g->last_checkpoint = sim_->Now();
  AddToTpcs(*g);
  RescheduleOverlapping(mask);  // includes the resumed grant
}

void ExecutionEngine::Reassign(GrantId id, const TpcMask& mask) {
  Grant* g = Resolve(id);
  LITHOS_CHECK(g != nullptr);
  LITHOS_CHECK_GT(mask.count(), 0u);

  if (g->paused) {
    g->mask = mask;  // No rates change until Resume.
    return;
  }
  FlushAccounting();
  const TpcMask touched = g->mask | mask;
  CheckpointOverlapping(touched);
  RemoveFromTpcs(*g);
  g->mask = mask;
  AddToTpcs(*g);
  RescheduleOverlapping(touched);
}

WorkItem ExecutionEngine::Abort(GrantId id) {
  Grant* g = Resolve(id);
  LITHOS_CHECK(g != nullptr);

  FlushAccounting();
  const TpcMask touched = g->mask;
  const bool was_running = !g->paused;
  if (was_running) {
    CheckpointOverlapping(touched);
    RemoveFromTpcs(*g);
  }
  if (g->completion_event != 0) {
    sim_->Cancel(g->completion_event);
  }
  if (trace_ != nullptr) {
    trace_->Append(sim_->Now(), TraceLayer::kEngine, TraceKind::kGrantAbort,
                   trace_node_, trace_zone_, g->item.client_id,
                   sim_->Now() - g->start_time);
  }
  WorkItem item = std::move(g->item);
  FreeGrantSlot(SlotOf(id));
  ++stats_.grants_aborted;
  if (was_running) {
    RescheduleOverlapping(touched);  // survivors speed up
  }
  return item;
}

void ExecutionEngine::OnGrantFinished(GrantId id) {
  Grant* g = Resolve(id);
  if (g == nullptr) {
    return;  // Raced with Abort.
  }
  g->completion_event = 0;  // the firing event consumed itself

  FlushAccounting();
  CheckpointGrant(*g);
  if (g->progress < 1.0 - kProgressEpsilon) {
    // Conditions changed since this event was scheduled; not actually done.
    RescheduleGrant(*g);
    return;
  }

  GrantInfo info;
  info.id = g->id;
  info.client_id = g->item.client_id;
  info.stream_tag = g->item.stream_tag;
  info.kernel = g->item.kernel;
  info.block_lo = g->item.block_lo;
  info.block_hi = g->item.block_hi == 0 ? g->item.kernel->NumBlocks() : g->item.block_hi;
  info.submit_time = g->submit_time;
  info.start_time = g->start_time;
  info.end_time = sim_->Now();
  info.allocated_tpcs = static_cast<int>(g->mask.count());
  info.freq_mhz_at_start = g->freq_at_start;

  if (trace_ != nullptr) {
    trace_->Append(sim_->Now(), TraceLayer::kEngine, TraceKind::kGrantComplete,
                   trace_node_, trace_zone_, info.client_id, info.Duration());
  }
  const TpcMask touched = g->mask;
  // Co-tenants fold progress at the shared rate before the capacity frees up.
  CheckpointOverlapping(touched);
  std::function<void(const GrantInfo&)> cb = std::move(g->item.on_complete);
  RemoveFromTpcs(*g);
  FreeGrantSlot(SlotOf(id));
  ++stats_.grants_completed;
  RescheduleOverlapping(touched);  // survivors speed up

  // The callback runs after engine state is consistent; it typically launches
  // the next kernel in the stream.
  if (cb) {
    cb(info);
  }
}

void ExecutionEngine::RequestFrequencyMhz(int mhz) {
  const int clamped = spec_.ClampFrequency(mhz);
  if (trace_ != nullptr && clamped != desired_mhz_) {
    trace_->Append(sim_->Now(), TraceLayer::kEngine, TraceKind::kDvfsRequest,
                   trace_node_, trace_zone_, clamped, current_mhz_);
  }
  desired_mhz_ = clamped;
  if (clamped == current_mhz_ && switch_event_ == 0) {
    return;
  }
  if (switch_event_ != 0) {
    return;  // A switch is in flight; it will apply the latest desired state.
  }
  switch_event_ = sim_->ScheduleAfter(spec_.freq_switch_latency, [this] {
    // The clock is global: every running grant's rate changes, so this is the
    // one mutation that checkpoints and reschedules the full running set.
    FlushAccounting();
    CheckpointAllRunning();
    switch_event_ = 0;
    if (current_mhz_ != desired_mhz_) {
      current_mhz_ = desired_mhz_;
      if (trace_ != nullptr) {
        trace_->Append(sim_->Now(), TraceLayer::kEngine, TraceKind::kDvfsApply,
                       trace_node_, trace_zone_, current_mhz_, 0);
      }
      RescheduleAllRunning();
      // The desired state may have moved again while switching.
      if (desired_mhz_ != current_mhz_) {
        RequestFrequencyMhz(desired_mhz_);
      }
    }
  });
}

void ExecutionEngine::SetPowerGated(bool gated) {
  if (gated == power_gated_) {
    return;
  }
  // Fold the interval spent in the previous power state into the integrals
  // before the draw changes.
  FlushAccounting();
  if (gated) {
    LITHOS_CHECK(busy_mask_.none());  // drain before powering off
  }
  power_gated_ = gated;
  if (trace_ != nullptr) {
    trace_->Append(sim_->Now(), TraceLayer::kEngine,
                   TraceKind::kEnginePowerGate, trace_node_, trace_zone_, -1,
                   gated ? 1 : 0);
  }
}

const EngineStats& ExecutionEngine::Stats() {
  FlushAccounting();
  stats_.allocated_tpc_seconds.clear();
  for (size_t c = 0; c < client_alloc_seconds_.size(); ++c) {
    if (client_alloc_seconds_[c] > 0) {
      stats_.allocated_tpc_seconds[static_cast<int>(c)] = client_alloc_seconds_[c];
    }
  }
  return stats_;
}

void ExecutionEngine::ResetStats() {
  FlushAccounting();
  stats_ = EngineStats{};
  std::fill(client_alloc_seconds_.begin(), client_alloc_seconds_.end(), 0.0);
}

}  // namespace lithos
