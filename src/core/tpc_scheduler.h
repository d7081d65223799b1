// TPC Scheduler allocation state (paper Section 4.3).
//
// LithOS manages TPCs the way a traditional OS manages CPU cores. Each client
// may hold a *quota*: a home region of TPCs guaranteed to it whenever it has
// work. Unclaimed TPCs form a free pool. TPC Stealing lends idle TPCs —
// foreign home TPCs whose owner is not asking for them — to whoever has work,
// raising utilization without giving up isolation:
//
//   * an *active* owner (one with atoms in flight) keeps demand headroom:
//     thieves may take only its free home TPCs beyond its recent per-kernel
//     demand, so an owner between two kernels still finds its next
//     allocation free. No per-TPC busy timer is needed: TPCs are released
//     when their atom completes, so a free TPC is idle at its release
//     instant, and "busy" is simply "has an occupant";
//   * when an owner has waiting work but finds its home TPCs stolen, it
//     flags them for *reclaim*: thieves' subsequent atoms exclude flagged
//     TPCs, so the owner waits at most one atom duration (Fig. 9c);
//   * best-effort clients may steal only when no high-priority client is
//     waiting, preventing priority inversion.
//
// This class is pure allocation bookkeeping (no simulation callbacks), which
// keeps it independently unit-testable; LithosBackend drives it.
#ifndef LITHOS_CORE_TPC_SCHEDULER_H_
#define LITHOS_CORE_TPC_SCHEDULER_H_

#include <array>
#include <unordered_map>
#include <vector>

#include "src/core/config.h"
#include "src/driver/client.h"
#include "src/gpu/gpu_spec.h"

namespace lithos {

struct TpcSchedulerStats {
  uint64_t acquisitions = 0;
  uint64_t tpcs_granted = 0;
  uint64_t tpcs_stolen = 0;    // granted TPCs that were foreign home TPCs
  uint64_t reclaim_requests = 0;
  uint64_t failed_acquisitions = 0;  // Acquire returned an empty mask
};

class TpcScheduler {
 public:
  TpcScheduler(const GpuSpec& spec, const LithosConfig& config);

  // Registers a client and carves its home region (next-fit from TPC 0).
  // Quotas beyond the remaining capacity are truncated.
  void RegisterClient(int client_id, PriorityClass priority, int quota);

  // Grants up to `desired` TPCs to `client_id`, preferring its home region,
  // then the free pool, then stealing, and updates the client's demand. The
  // TPCs stay occupied until Release. May return fewer than desired,
  // including an empty mask when nothing is available.
  TpcMask Acquire(int client_id, int desired);

  // Returns TPCs to the idle state; they are stealable from this instant.
  void Release(const TpcMask& mask);

  // The owner has waiting work: flag its stolen home TPCs so thieves vacate
  // at the next atom boundary.
  void RequestReclaim(int client_id);

  // Dispatcher hint used for steal eligibility.
  void SetClientWaiting(int client_id, bool waiting);
  bool AnyHighPriorityWaiting() const;

  // Dispatcher hint: the client currently has work on the device (in-flight
  // atoms). Stealing from an *active* owner is limited to the owner's idle
  // headroom — home TPCs beyond the owner's recent per-kernel demand — so the
  // owner's next kernel still finds its full allocation free. An *inactive*
  // owner's whole home region is up for grabs. Together with the reclaim
  // flags this distinguishes "idle" from "between two kernels of a running
  // job".
  void SetClientActive(int client_id, bool active);

  // --- Introspection --------------------------------------------------------
  int HomeQuota(int client_id) const;
  TpcMask HomeMask(int client_id) const;
  int FreeHomeTpcs(int client_id) const;     // idle TPCs in own home region
  bool IsReclaimFlagged(int tpc) const { return reclaim_[tpc]; }
  const TpcSchedulerStats& stats() const { return stats_; }

 private:
  struct ClientState {
    PriorityClass priority = PriorityClass::kBestEffort;
    TpcMask home;
    bool waiting = false;
    bool active = false;   // has in-flight work on the device
    double demand = 0;     // recent max of desired TPCs per kernel
  };

  bool StealAllowed(int thief, int tpc) const;

  LithosConfig config_;
  int total_tpcs_;
  std::array<int, kMaxTpcs> home_owner_;   // -1 = free pool
  std::array<int, kMaxTpcs> occupant_;     // -1 = idle
  std::array<bool, kMaxTpcs> reclaim_;
  std::unordered_map<int, ClientState> clients_;
  int next_home_tpc_ = 0;
  TpcSchedulerStats stats_;
};

}  // namespace lithos

#endif  // LITHOS_CORE_TPC_SCHEDULER_H_
