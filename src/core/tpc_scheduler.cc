#include "src/core/tpc_scheduler.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace lithos {

namespace {
// The lowest `n` set TPCs of `mask` (all of them if it has fewer).
TpcMask LowestTpcs(const TpcMask& mask, int n) {
  TpcMask out;
  ForEachTpc(mask, kMaxTpcs, [&](int t) {
    if (n > 0) {
      out.set(t);
      --n;
    }
  });
  return out;
}
}  // namespace

TpcScheduler::TpcScheduler(const GpuSpec& spec, const LithosConfig& config)
    : config_(config), total_tpcs_(spec.TotalTpcs()), free_pool_(spec.AllTpcs()) {}

void TpcScheduler::RegisterClient(int client_id, PriorityClass priority, int quota) {
  const bool inserted = slot_.emplace(client_id, clients_.size()).second;
  LITHOS_CHECK(inserted);
  ClientState& state = clients_.emplace_back();
  state.priority = priority;
  const int granted = std::clamp(quota, 0, total_tpcs_ - next_home_tpc_);
  state.home = TpcRange(next_home_tpc_, next_home_tpc_ + granted);
  next_home_tpc_ += granted;
  free_pool_ &= ~state.home;
}

const TpcScheduler::ClientState* TpcScheduler::Find(int client_id) const {
  auto it = slot_.find(client_id);
  return it == slot_.end() ? nullptr : &clients_[it->second];
}

TpcScheduler::ClientState& TpcScheduler::At(int client_id) {
  auto it = slot_.find(client_id);
  LITHOS_CHECK(it != slot_.end());
  return clients_[it->second];
}

TpcMask TpcScheduler::Acquire(int client_id, int desired) {
  LITHOS_CHECK_GT(desired, 0);
  ClientState& self = At(client_id);
  // Track the client's per-kernel demand: fast rise, slow decay.
  self.demand = std::max<double>(desired, self.demand * 0.98);

  TpcMask granted;
  int remaining = desired;
  auto take = [&](const TpcMask& candidates, int n) {
    const TpcMask got = LowestTpcs(candidates, n);
    granted |= got;
    occupied_ |= got;
    remaining -= static_cast<int>(got.count());
    return got;
  };

  // Own home region first; the owner is back, so its reclaim flags served
  // their purpose. Then the free pool.
  reclaim_ &= ~take(self.home & ~occupied_, remaining);
  take(free_pool_ & ~occupied_, remaining);

  // TPC Stealing: idle, unflagged foreign home TPCs, in ascending-TPC order.
  // Nothing is taken from a waiting owner, and a best-effort thief takes
  // nothing while a high-priority client waits. An active owner keeps enough
  // free home TPCs for its next kernel (its recent demand), so stealing never
  // shrinks the owner's very next allocation.
  uint64_t stolen = 0;
  const bool be_blocked = self.priority == PriorityClass::kBestEffort && hp_parked_ > 0;
  if (config_.enable_stealing && !be_blocked) {
    for (const ClientState& owner : clients_) {
      if (remaining == 0) {
        break;
      }
      if (&owner == &self || owner.parked > 0) {
        continue;
      }
      const TpcMask idle = owner.home & ~occupied_;
      int budget = remaining;
      if (owner.held.any()) {
        const int headroom =
            static_cast<int>(idle.count()) - static_cast<int>(std::ceil(owner.demand));
        budget = std::min(budget, headroom);
      }
      if (budget > 0) {
        stolen += take(idle & ~reclaim_, budget).count();
      }
    }
  }

  self.held |= granted;
  ++stats_.acquisitions;
  stats_.tpcs_granted += granted.count();
  stats_.tpcs_stolen += stolen;
  if (granted.none()) {
    ++stats_.failed_acquisitions;
  }
  return granted;
}

void TpcScheduler::Release(int client_id, const TpcMask& mask) {
  ClientState& c = At(client_id);
  LITHOS_CHECK((c.held & mask) == mask);
  c.held &= ~mask;
  occupied_ &= ~mask;
}

void TpcScheduler::RequestReclaim(int client_id) {
  const ClientState* c = Find(client_id);
  if (c == nullptr) {
    return;
  }
  ++stats_.reclaim_requests;
  reclaim_ |= c->home & occupied_ & ~c->held;
}

void TpcScheduler::Park(int client_id) {
  ClientState& c = At(client_id);
  ++c.parked;
  if (c.priority == PriorityClass::kHighPriority) {
    ++hp_parked_;
  }
}

void TpcScheduler::Unpark(int client_id) {
  ClientState& c = At(client_id);
  LITHOS_CHECK_GT(c.parked, 0);
  --c.parked;
  if (c.priority == PriorityClass::kHighPriority) {
    --hp_parked_;
  }
}

int TpcScheduler::HomeQuota(int client_id) const {
  return static_cast<int>(HomeMask(client_id).count());
}

TpcMask TpcScheduler::HomeMask(int client_id) const {
  const ClientState* c = Find(client_id);
  return c == nullptr ? TpcMask{} : c->home;
}

int TpcScheduler::FreeHomeTpcs(int client_id) const {
  return static_cast<int>((HomeMask(client_id) & ~occupied_).count());
}

}  // namespace lithos
