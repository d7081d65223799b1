#include "src/core/lithos_backend.h"

#include <algorithm>

#include "src/common/check.h"

namespace lithos {

namespace {
// Outstanding-atom cap for best-effort clients: half the high-priority
// default, so best-effort work never builds a deep GPU backlog.
constexpr int kMaxOutstandingBe = 2;
}  // namespace

LithosBackend::LithosBackend(Simulator* sim, ExecutionEngine* engine, LithosConfig config)
    : Backend(sim, engine),
      config_(config),
      tpc_scheduler_(engine->spec(), config),
      predictor_(engine->spec()),
      atomizer_(config),
      right_sizer_(engine->spec(), config, &predictor_),
      dvfs_(sim, engine, config) {
  dvfs_.Start();
}

void LithosBackend::OnClientRegistered(const Client& client) {
  clients_[client.id] = client;
  tpc_scheduler_.RegisterClient(client.id, client.priority, client.tpc_quota);
}

bool LithosBackend::IsHighPriority(int client_id) const {
  auto it = clients_.find(client_id);
  return it != clients_.end() && it->second.priority == PriorityClass::kHighPriority;
}

int LithosBackend::OutstandingLimit(int client_id) const {
  return IsHighPriority(client_id) ? config_.max_outstanding_hp : kMaxOutstandingBe;
}

int LithosBackend::BaseAllocation(int client_id, const KernelDesc& kernel) const {
  auto it = clients_.find(client_id);
  const int quota = it == clients_.end() ? 0 : it->second.tpc_quota;
  const int useful = std::max(1, kernel.MaxUsefulTpcs(engine_->spec()));
  if (config_.allocate_full_quota && quota > 0) {
    // Dedicated-deployment behaviour: the kernel occupies the whole quota,
    // used or not — the overprovisioning right-sizing reclaims (Fig. 17).
    return std::min(engine_->spec().TotalTpcs(), std::max(quota, useful));
  }
  // Normal scheduling width: what the grid can actually occupy. The quota is
  // a guarantee floor, not a per-kernel width; kernels wider than the quota
  // draw the surplus from TPC Stealing (Fig. 14's HP-B goodput).
  return useful;
}

void LithosBackend::OnStreamReady(Stream* stream) {
  if (waiting_set_.count(stream) > 0 || inflight_.count(stream) > 0) {
    return;
  }
  waiting_set_.insert(stream);
  tpc_scheduler_.Park(stream->client_id());
  if (IsHighPriority(stream->client_id())) {
    waiting_hp_.push_back(stream);
  } else {
    waiting_be_.push_back(stream);
  }
  Pump();
}

void LithosBackend::Pump() {
  if (pumping_) {
    return;  // Re-entrant completions fold into the active pump loop.
  }
  pumping_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    // HP queue strictly before BE, each FIFO.
    for (auto* queue : {&waiting_hp_, &waiting_be_}) {
      for (size_t i = 0; i < queue->size();) {
        Stream* s = (*queue)[i];
        if (TryDispatch(s)) {
          queue->erase(queue->begin() + static_cast<long>(i));
          waiting_set_.erase(s);
          tpc_scheduler_.Unpark(s->client_id());
          progress = true;
        } else {
          ++i;
        }
      }
    }
  }
  pumping_ = false;
}

bool LithosBackend::TryDispatch(Stream* stream) {
  // A parked mid-kernel head (TPCs ran out between atoms) resumes here.
  auto parked = inflight_.find(stream);
  if (parked != inflight_.end()) {
    return LaunchNextAtom(&parked->second);
  }

  if (!stream->HasDispatchableKernel()) {
    // A marker drained it or it was completed elsewhere; drop from queue.
    return true;
  }
  const int client = stream->client_id();
  if (outstanding_[client] >= OutstandingLimit(client)) {
    return false;  // Sync-queue throttle: backlog above threshold.
  }

  const LaunchRecord& rec = stream->PeekHead();
  const KernelDesc& kernel = *rec.kernel;

  OperatorKey key;
  key.queue_id = stream->id();
  key.ordinal = rec.batch_ordinal;
  key.signature = kernel.LaunchSignature();

  // Batch-boundary detection for the DVFS learning period: ordinal reset
  // means a synchronization event passed.
  auto lo = last_ordinal_.find(stream->id());
  if (lo != last_ordinal_.end() && rec.batch_ordinal <= lo->second) {
    dvfs_.OnBatchBoundary(stream->id());
  }
  last_ordinal_[stream->id()] = rec.batch_ordinal;

  // Desired allocation: without right-sizing, a kernel occupies the client's
  // full guaranteed region (quota), like a dedicated deployment — the waste
  // the right-sizer then reclaims per kernel (Fig. 17's baseline). Quota-less
  // best-effort clients ask for the kernel's occupancy bound.
  const int desired = right_sizer_.ChooseTpcs(key, kernel, BaseAllocation(client, kernel));

  const TpcMask mask = AcquireOrReclaim(client, desired);
  if (mask.none()) {
    return false;
  }

  // Predict the whole kernel on the grant, plan its atoms, and run atom 0 on
  // that same grant.
  ExecConditions cond;
  cond.tpcs = static_cast<double>(mask.count());
  cond.freq_mhz = engine_->CurrentFrequencyMhz();
  const DurationNs predicted = predictor_.Predict(key, cond);

  HeadExec exec;
  exec.stream = stream;
  exec.kernel = &kernel;
  exec.key = key;
  exec.plan =
      atomizer_.Plan(kernel, predicted, static_cast<int>(mask.count()), engine_->spec());

  stream->BeginHead();
  auto [it, inserted] = inflight_.emplace(stream, std::move(exec));
  LITHOS_CHECK(inserted);

  LaunchAtom(&it->second, mask);
  return true;
}

TpcMask LithosBackend::AcquireOrReclaim(int client, int desired) {
  const TpcMask mask = tpc_scheduler_.Acquire(client, desired);
  if (mask.none() && IsHighPriority(client)) {
    tpc_scheduler_.RequestReclaim(client);
  }
  return mask;
}

bool LithosBackend::LaunchNextAtom(HeadExec* exec) {
  // Re-acquire TPCs: allocations may shrink (reclaim took effect) or grow
  // (new idle TPCs appeared) between atoms — the paper's mid-kernel
  // reallocation.
  const int client = exec->stream->client_id();
  const int desired =
      right_sizer_.ChooseTpcs(exec->key, *exec->kernel, BaseAllocation(client, *exec->kernel));
  const TpcMask mask = AcquireOrReclaim(client, desired);
  if (mask.none()) {
    return false;
  }
  LaunchAtom(exec, mask);
  return true;
}

void LithosBackend::LaunchAtom(HeadExec* exec, const TpcMask& mask) {
  LITHOS_CHECK_LT(exec->next_atom, exec->plan.atoms.size());
  const Atom& atom = exec->plan.atoms[exec->next_atom];
  const int client = exec->stream->client_id();

  ExecConditions cond;
  cond.tpcs = static_cast<double>(mask.count());
  cond.freq_mhz = engine_->CurrentFrequencyMhz();
  cond.block_fraction =
      static_cast<double>(atom.NumBlocks()) / static_cast<double>(exec->kernel->NumBlocks());
  exec->predicted_atom = predictor_.Predict(exec->key, cond) + atom.overhead_ns;
  exec->mask = mask;

  WorkItem item;
  item.kernel = exec->kernel;
  item.block_lo = atom.block_lo;
  item.block_hi = atom.block_hi;
  item.client_id = client;
  item.stream_tag = static_cast<uint64_t>(exec->stream->id());
  item.extra_overhead_ns = atom.overhead_ns;
  Stream* s = exec->stream;
  item.on_complete = [this, s](const GrantInfo& info) { OnAtomComplete(s, info); };

  engine_->Launch(std::move(item), mask);
  ++outstanding_[client];
  ++atoms_dispatched_;
  ++exec->next_atom;
}

void LithosBackend::OnAtomComplete(Stream* stream, const GrantInfo& info) {
  auto it = inflight_.find(stream);
  LITHOS_CHECK(it != inflight_.end());
  HeadExec& exec = it->second;
  const int client = stream->client_id();

  --outstanding_[client];
  tpc_scheduler_.Release(client, exec.mask);

  // Tracker duties: feed the predictor, DVFS weights, and atomizer feedback.
  const Atom& atom = exec.plan.atoms[exec.next_atom - 1];
  ExecConditions cond;
  cond.tpcs = static_cast<double>(info.allocated_tpcs);
  cond.freq_mhz = info.freq_mhz_at_start;
  cond.block_fraction =
      static_cast<double>(atom.NumBlocks()) / static_cast<double>(exec.kernel->NumBlocks());
  const DurationNs observed = info.Duration();
  predictor_.Record(exec.key, cond, observed, exec.predicted_atom);

  exec.work_ns += std::max<DurationNs>(0, observed - atom.overhead_ns);
  exec.overhead_ns += atom.overhead_ns;

  if (exec.next_atom < exec.plan.atoms.size()) {
    if (!LaunchNextAtom(&exec)) {
      // No TPCs right now: park the head mid-kernel; the pump loop resumes
      // it (via the inflight_ lookup in TryDispatch) when capacity frees.
      exec.mask.reset();
      if (waiting_set_.insert(stream).second) {
        tpc_scheduler_.Park(client);
        if (IsHighPriority(client)) {
          waiting_hp_.push_front(stream);  // Mid-kernel heads resume first.
        } else {
          waiting_be_.push_back(stream);
        }
      }
    }
    Pump();
    return;
  }

  // Head complete.
  dvfs_.RecordKernel(stream->id(), exec.work_ns + exec.overhead_ns,
                     predictor_.FreqSensitivity(exec.key));
  atomizer_.RecordOverhead(exec.key.signature, exec.work_ns, exec.overhead_ns);
  inflight_.erase(it);
  stream->CompleteHead();  // May synchronously re-notify OnStreamReady.
  Pump();
}

void LithosBackend::ResetAccounting() {
  predictor_.ResetStats();
}

}  // namespace lithos
