// TPC Scheduler allocation state (paper Section 4.3).
//
// LithOS manages TPCs the way a traditional OS manages CPU cores. Each client
// may hold a *quota*: a home region of TPCs guaranteed to it whenever it has
// work. Unclaimed TPCs form a free pool. TPC Stealing lends idle TPCs —
// foreign home TPCs whose owner is not asking for them — to whoever has work,
// raising utilization without giving up isolation:
//
//   * an *active* owner (one that holds TPCs, i.e. has atoms in flight) keeps
//     demand headroom: thieves may take only its free home TPCs beyond its
//     recent per-kernel demand, so an owner between two kernels still finds
//     its next allocation free. No per-TPC busy timer is needed: TPCs are
//     released when their atom completes, so a free TPC is idle at its
//     release instant, and "busy" is simply "occupied";
//   * when an owner has waiting work but finds its home TPCs stolen, it
//     flags them for *reclaim*: thieves' subsequent atoms exclude flagged
//     TPCs, so the owner waits at most one atom duration (Fig. 9c);
//   * a *waiting* owner (one with parked streams) lends nothing, and
//     best-effort clients steal nothing while any high-priority client is
//     waiting, preventing priority inversion.
//
// All state is TPC masks — the occupied, reclaim-flagged and free-pool sets,
// and each client's home and held sets — so every step of Acquire is a few
// word operations. "Active" and "waiting" are derived, not mirrored: a client
// is active while its held mask is non-empty (every in-flight atom holds the
// TPCs it was granted until Release), and waiting while its count of parked
// streams (Park/Unpark) is positive.
//
// This class is pure allocation bookkeeping (no simulation callbacks), which
// keeps it independently unit-testable; LithosBackend drives it.
#ifndef LITHOS_CORE_TPC_SCHEDULER_H_
#define LITHOS_CORE_TPC_SCHEDULER_H_

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
  // client holds the TPCs until Release. May return fewer than desired,
  // including an empty mask when nothing is available.
  TpcMask Acquire(int client_id, int desired);

  // Returns TPCs that `client_id` holds to the idle state; they are
  // stealable from this instant.
  void Release(int client_id, const TpcMask& mask);

  // The owner has waiting work: flag its stolen home TPCs so thieves vacate
  // at the next atom boundary.
  void RequestReclaim(int client_id);

  // One of the client's streams was parked (it waits for TPCs) or left the
  // waiting queue.
  void Park(int client_id);
  void Unpark(int client_id);

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
    TpcMask held;          // TPCs granted and not yet released
    int parked = 0;        // streams waiting for TPCs
    double demand = 0;     // recent max of desired TPCs per kernel
  };

  const ClientState* Find(int client_id) const;  // nullptr if unregistered
  ClientState& At(int client_id);                 // checks registration

  LithosConfig config_;
  int total_tpcs_;
  TpcMask occupied_;
  TpcMask reclaim_;
  TpcMask free_pool_;    // TPCs in no client's home region
  // Registered clients in registration order. Homes are carved next-fit from
  // TPC 0, so this is also ascending home-TPC order.
  std::vector<ClientState> clients_;
  std::unordered_map<int, size_t> slot_;  // client id -> index in clients_
  int hp_parked_ = 0;    // parked streams of high-priority clients
  int next_home_tpc_ = 0;
  TpcSchedulerStats stats_;
};

}  // namespace lithos

#endif  // LITHOS_CORE_TPC_SCHEDULER_H_
