#include "src/core/tpc_scheduler.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace lithos {

TpcScheduler::TpcScheduler(const GpuSpec& spec, const LithosConfig& config)
    : config_(config), total_tpcs_(spec.TotalTpcs()) {
  home_owner_.fill(-1);
  occupant_.fill(-1);
  reclaim_.fill(false);
}

void TpcScheduler::RegisterClient(int client_id, PriorityClass priority, int quota) {
  LITHOS_CHECK(clients_.count(client_id) == 0);
  ClientState state;
  state.priority = priority;
  const int granted = std::clamp(quota, 0, total_tpcs_ - next_home_tpc_);
  for (int i = 0; i < granted; ++i) {
    const int t = next_home_tpc_ + i;
    home_owner_[t] = client_id;
    state.home.set(t);
  }
  next_home_tpc_ += granted;
  clients_.emplace(client_id, std::move(state));
}

bool TpcScheduler::StealAllowed(int thief, int tpc) const {
  const int owner = home_owner_[tpc];
  if (owner == thief || owner == -1) {
    return true;  // Not a steal.
  }
  if (reclaim_[tpc]) {
    return false;  // Owner asked for it back.
  }
  auto oit = clients_.find(owner);
  if (oit != clients_.end() && oit->second.waiting) {
    return false;  // Owner has work parked right now.
  }
  auto tit = clients_.find(thief);
  const bool thief_is_be =
      tit == clients_.end() || tit->second.priority == PriorityClass::kBestEffort;
  if (thief_is_be && AnyHighPriorityWaiting()) {
    return false;  // Never let BE work delay a waiting HP client.
  }
  return true;
}

TpcMask TpcScheduler::Acquire(int client_id, int desired) {
  LITHOS_CHECK_GT(desired, 0);
  // Track the client's per-kernel demand: fast rise, slow decay.
  auto cit = clients_.find(client_id);
  if (cit != clients_.end()) {
    cit->second.demand = std::max<double>(desired, cit->second.demand * 0.98);
  }
  TpcMask granted;
  int remaining = desired;
  uint64_t stolen = 0;
  const int total = total_tpcs_;

  auto take = [&](int t, bool is_steal) {
    granted.set(t);
    occupant_[t] = client_id;
    if (home_owner_[t] == client_id) {
      reclaim_[t] = false;  // Owner is back; the flag served its purpose.
    }
    if (is_steal) {
      ++stolen;
    }
    --remaining;
  };

  // Pass 1: own home region.
  for (int t = 0; t < total && remaining > 0; ++t) {
    if (home_owner_[t] == client_id && occupant_[t] == -1) {
      take(t, false);
    }
  }
  // Pass 2: free pool (unowned TPCs).
  for (int t = 0; t < total && remaining > 0; ++t) {
    if (home_owner_[t] == -1 && occupant_[t] == -1) {
      take(t, false);
    }
  }
  // Pass 3: TPC Stealing — idle foreign home TPCs, subject to policy and each
  // active owner's headroom: an owner mid-job keeps enough free home TPCs for
  // its next kernel (its recent demand), so stealing never shrinks the
  // owner's very next allocation.
  if (config_.enable_stealing) {
    std::unordered_map<int, int> spare;  // owner -> stealable TPC budget
    for (int t = 0; t < total && remaining > 0; ++t) {
      if (occupant_[t] != -1 || home_owner_[t] == -1 || home_owner_[t] == client_id ||
          !StealAllowed(client_id, t)) {
        continue;
      }
      const int owner = home_owner_[t];
      auto oit = clients_.find(owner);
      if (oit != clients_.end() && oit->second.active) {
        auto [sit, inserted] = spare.try_emplace(owner, 0);
        if (inserted) {
          // Free home TPCs beyond the owner's recent per-kernel demand.
          sit->second = FreeHomeTpcs(owner) - static_cast<int>(std::ceil(oit->second.demand));
        }
        if (sit->second <= 0) {
          continue;
        }
        --sit->second;
      }
      take(t, true);
    }
  }

  ++stats_.acquisitions;
  stats_.tpcs_granted += granted.count();
  stats_.tpcs_stolen += stolen;
  if (granted.none()) {
    ++stats_.failed_acquisitions;
  }
  return granted;
}

void TpcScheduler::Release(const TpcMask& mask) {
  ForEachTpc(mask, total_tpcs_, [&](int t) {
    LITHOS_CHECK_NE(occupant_[t], -1);
    occupant_[t] = -1;
  });
}

void TpcScheduler::RequestReclaim(int client_id) {
  auto it = clients_.find(client_id);
  if (it == clients_.end()) {
    return;
  }
  ++stats_.reclaim_requests;
  ForEachTpc(it->second.home, total_tpcs_, [&](int t) {
    if (occupant_[t] != -1 && occupant_[t] != client_id) {
      reclaim_[t] = true;
    }
  });
}

void TpcScheduler::SetClientWaiting(int client_id, bool waiting) {
  auto it = clients_.find(client_id);
  if (it != clients_.end()) {
    it->second.waiting = waiting;
  }
}

void TpcScheduler::SetClientActive(int client_id, bool active) {
  auto it = clients_.find(client_id);
  if (it != clients_.end()) {
    it->second.active = active;
  }
}

bool TpcScheduler::AnyHighPriorityWaiting() const {
  for (const auto& [id, c] : clients_) {
    if (c.waiting && c.priority == PriorityClass::kHighPriority) {
      return true;
    }
  }
  return false;
}

int TpcScheduler::HomeQuota(int client_id) const {
  auto it = clients_.find(client_id);
  return it == clients_.end() ? 0 : static_cast<int>(it->second.home.count());
}

TpcMask TpcScheduler::HomeMask(int client_id) const {
  auto it = clients_.find(client_id);
  return it == clients_.end() ? TpcMask{} : it->second.home;
}

int TpcScheduler::FreeHomeTpcs(int client_id) const {
  auto it = clients_.find(client_id);
  if (it == clients_.end()) {
    return 0;
  }
  int n = 0;
  ForEachTpc(it->second.home, total_tpcs_, [&](int t) {
    if (occupant_[t] == -1) {
      ++n;
    }
  });
  return n;
}

}  // namespace lithos
