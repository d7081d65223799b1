// Work-progress execution engine: the ground-truth physics of the simulated
// GPU that every scheduling system (LithOS and all eight baselines) runs on.
//
// A *grant* is a kernel (or atom: a contiguous thread-block range) executing
// on a set of TPCs. Each grant progresses at rate 1/l where l is its
// ground-truth latency under the grant's *effective* TPC allocation and the
// device's current clock. TPCs may be shared by multiple grants (this is how
// MPS-style concurrency is expressed): a TPC contributes 1/n of itself to
// each of its n resident grants.
//
// This one substrate expresses:
//   * exclusive spatial allocation  (LithOS, MIG, thread Limits)
//   * processor sharing             (MPS)
//   * temporal preemption           (time slicing: Pause/Resume keep progress)
//   * reset-based preemption        (REEF: Abort discards progress)
//
// Hot-path design: a mutation (launch, completion, pause, abort, reassign)
// only changes the progress rates of grants whose masks overlap the touched
// TPCs — disjoint grants keep their rate, so their progress and completion
// events are left untouched (the *affected-set* fast path). Affected grants
// checkpoint their progress at the old rates, then their completion events
// are moved in place with Simulator::Reschedule. Only a DVFS transition
// touches every running grant (the clock is global). Grants live in a
// slot-indexed slab with generation-tagged GrantIds; the busy mask, running
// counts, active-client list, and per-client allocation rates are maintained
// incrementally so the control-plane pollers (fleet controller, DVFS, right-
// sizer) never trigger a rebuild.
//
// Per-grant work is O(set bits): mask loops use ForEachTpc, which walks the
// mask a 64-bit word at a time in ascending TPC order, so floating-point sums
// keep the order of a bit-by-bit loop. Each grant also memoises its latency:
// RescheduleGrant stores CurrentLatencyNs in Grant::latency_ns, and
// CheckpointGrant divides by the stored value. The memo is exact because
// every rate change (launch, pause, resume, reassign, abort, completion, DVFS
// apply) checkpoints the affected grants before it touches sharers_,
// share_weight_ or the clock and reschedules them after; Debug builds
// recompute and compare at every checkpoint.
//
// The engine also integrates power and allocation accounting so the
// right-sizing (Fig. 17) and DVFS (Fig. 18) experiments read energy and
// capacity directly from the same clockwork.
#ifndef LITHOS_GPU_EXECUTION_ENGINE_H_
#define LITHOS_GPU_EXECUTION_ENGINE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/common/time.h"
#include "src/gpu/gpu_spec.h"
#include "src/gpu/kernel.h"
#include "src/sim/simulator.h"

namespace lithos {

// Handle identifying a grant. Encodes (slot, generation): a handle to a
// completed or aborted grant never aliases a live one even when the slot is
// recycled.
using GrantId = uint64_t;
inline constexpr GrantId kInvalidGrant = 0;

// Completed-grant notification payload.
struct GrantInfo {
  GrantId id = kInvalidGrant;
  int client_id = 0;
  uint64_t stream_tag = 0;
  const KernelDesc* kernel = nullptr;
  uint32_t block_lo = 0;
  uint32_t block_hi = 0;
  TimeNs submit_time = 0;
  TimeNs start_time = 0;
  TimeNs end_time = 0;
  int allocated_tpcs = 0;
  int freq_mhz_at_start = 0;

  DurationNs Duration() const { return end_time - start_time; }
};

// A unit of work handed to the engine by a scheduling backend.
struct WorkItem {
  const KernelDesc* kernel = nullptr;  // not owned; outlives the grant
  uint32_t block_lo = 0;               // [block_lo, block_hi); 0/0 = full grid
  uint32_t block_hi = 0;
  int client_id = 0;
  uint64_t stream_tag = 0;
  // Fixed launch/prelude overhead added to the grant latency; the Kernel
  // Atomizer charges its prelude cost here.
  DurationNs extra_overhead_ns = 0;
  // Relative weight when sharing TPCs with other grants: a TPC hosting grants
  // with weights {w_i} gives grant i a w_i / sum(w) share. Hardware stream
  // priority (the Priority baseline) is modelled as a larger weight for
  // high-priority grants; plain MPS uses equal weights.
  double share_weight = 1.0;
  std::function<void(const GrantInfo&)> on_complete;
};

// Cumulative accounting snapshot. The per-client map is materialized from the
// engine's flat accumulator by Stats(); the accounting hot path never touches
// a map.
struct EngineStats {
  double energy_joules = 0;
  double busy_tpc_seconds = 0;      // integral of |busy TPCs| over time
  double elapsed_seconds = 0;       // wall-clock covered by the integrals
  double idle_energy_joules = 0;    // idle-power component of energy
  uint64_t grants_completed = 0;
  uint64_t grants_aborted = 0;
  // Per-client integral of allocated (not effective) TPC-seconds; capacity
  // savings in Fig. 17 compare these between right-sized and full runs.
  std::map<int, double> allocated_tpc_seconds;
};

class ExecutionEngine {
 public:
  ExecutionEngine(Simulator* sim, const GpuSpec& spec);
  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  const GpuSpec& spec() const { return spec_; }

  // --- Grant lifecycle -----------------------------------------------------

  // Begins executing `item` on `mask` immediately. The mask may overlap other
  // grants' masks (sharing). An empty block range means the full grid.
  GrantId Launch(WorkItem item, const TpcMask& mask);

  // Suspends a grant, preserving progress and releasing its TPCs.
  void Pause(GrantId id);

  // Resumes a paused grant on a (possibly different) TPC set.
  void Resume(GrantId id, const TpcMask& mask);

  // Moves a running grant onto a different TPC set without losing progress.
  void Reassign(GrantId id, const TpcMask& mask);

  // Terminates a grant. The completion callback is NOT invoked. Returns the
  // original work item so reset-style schedulers (REEF) can relaunch it from
  // scratch; accumulated progress is discarded.
  WorkItem Abort(GrantId id);

  bool IsActive(GrantId id) const { return Resolve(id) != nullptr; }

  // --- Device state (all O(1); maintained incrementally) -------------------

  // TPCs with at least one running (non-paused) grant.
  const TpcMask& BusyMask() const { return busy_mask_; }
  int NumRunningGrants() const { return running_grants_; }

  // --- DVFS ----------------------------------------------------------------

  // Requests a clock change; takes effect after spec().freq_switch_latency.
  // Repeated requests coalesce (the most recent target wins).
  void RequestFrequencyMhz(int mhz);
  int CurrentFrequencyMhz() const { return current_mhz_; }

  // --- Power gating --------------------------------------------------------

  // Powers the device down (or back up). A gated engine draws only
  // spec().gated_power_w instead of idle power — the fleet controller's
  // energy lever for nodes shed at the diurnal trough. Gating requires an
  // idle device: the caller must drain all running grants first.
  void SetPowerGated(bool gated);
  bool power_gated() const { return power_gated_; }

  // --- Accounting ----------------------------------------------------------

  // Flushes the power/allocation integrals up to Now() and returns them.
  const EngineStats& Stats();

  // Clears the integrals (used by harnesses to discard warm-up).
  void ResetStats();

  // Instantaneous power draw at current state (W).
  double InstantPowerW() const;

  // --- Observability -------------------------------------------------------

  // Attaches a binary trace recorder (nullptr detaches). Every grant launch /
  // completion / abort / checkpoint, DVFS request and transition, and power
  // gate flip appends a TraceLayer::kEngine record tagged with `node`/`zone`
  // (-1 for an engine outside a fleet). Disabled tracing costs one
  // predictable branch per instrumentation point.
  void SetTrace(TraceRecorder* trace, int32_t node = -1, int32_t zone = -1) {
    trace_ = trace;
    trace_node_ = node;
    trace_zone_ = zone;
  }

 private:
  // Slab entry: grants are recycled through a free list; `generation`
  // increments on every free so stale GrantIds never resolve.
  struct Grant {
    bool occupied = false;
    bool paused = false;
    uint32_t generation = 1;
    GrantId id = kInvalidGrant;
    WorkItem item;
    TpcMask mask;
    double progress = 0;          // fraction of work done, [0, 1]
    // CurrentLatencyNs as of the last RescheduleGrant: the rate progress
    // accrues at until the next checkpoint (see CheckpointGrant).
    double latency_ns = 0;
    TimeNs last_checkpoint = 0;
    TimeNs submit_time = 0;
    TimeNs start_time = 0;
    int freq_at_start = 0;
    EventId completion_event = 0;
  };

  static uint32_t SlotOf(GrantId id) { return static_cast<uint32_t>(id); }
  static uint32_t GenOf(GrantId id) { return static_cast<uint32_t>(id >> 32); }
  static GrantId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<GrantId>(gen) << 32) | slot;
  }

  Grant* Resolve(GrantId id);
  const Grant* Resolve(GrantId id) const;
  uint32_t AllocGrantSlot();
  void FreeGrantSlot(uint32_t slot);

  // Ground-truth latency of the grant's full work under current conditions
  // (effective TPCs and co-residency tax fused into one mask pass).
  double CurrentLatencyNs(const Grant& g) const;

  // Folds elapsed time into the power/allocation integrals (O(active
  // clients)). Must run before any mutation that changes power draw, the busy
  // mask, or per-client allocation rates.
  void FlushAccounting();

  // Folds elapsed time into one grant's progress at its current rate, read
  // from the latency_ns memo. Must run before anything changes that rate.
  void CheckpointGrant(Grant& g);

  // Affected set: running grants whose mask overlaps `touched`. Checkpoint
  // before the mutation (rates are about to change), reschedule after (rates
  // have changed). Disjoint grants keep rate, progress, and completion event.
  void CheckpointOverlapping(const TpcMask& touched);
  void RescheduleOverlapping(const TpcMask& touched);
  // DVFS transitions change every running grant's rate.
  void CheckpointAllRunning();
  void RescheduleAllRunning();

  // Recomputes the grant's latency into its latency_ns memo and moves its
  // completion event to the new finish time (in-place Reschedule when the
  // event is live, fresh ScheduleAt otherwise).
  void RescheduleGrant(Grant& g);
  void OnGrantFinished(GrantId id);

  // TPC bookkeeping + incremental device state (busy mask, running count,
  // per-client running/allocation counters, active-client list).
  void AddToTpcs(Grant& g);
  void RemoveFromTpcs(Grant& g);
  void EnsureClient(int client_id);

  Simulator* sim_;
  GpuSpec spec_;
  int total_tpcs_;  // spec_.TotalTpcs(), which sums gpc_tpcs on every call

  std::vector<Grant> grants_;            // slab; iterate by slot, skip !occupied
  std::vector<uint32_t> free_grants_;

  std::array<int, kMaxTpcs> sharers_{};          // running (non-paused) grants per TPC
  std::array<double, kMaxTpcs> share_weight_{};  // sum of share weights per TPC

  // Incrementally maintained device state.
  TpcMask busy_mask_;
  int running_grants_ = 0;
  std::vector<int> active_clients_;      // client ids with >= 1 running grant
  std::vector<int> client_running_;      // running grants per client id
  std::vector<int> client_alloc_tpcs_;   // sum of mask bits over running grants
  std::vector<double> client_alloc_seconds_;  // flat integral; Stats() builds the map

  int current_mhz_;
  int desired_mhz_;
  EventId switch_event_ = 0;
  bool power_gated_ = false;

  TimeNs last_account_ = 0;
  EngineStats stats_;

  TraceRecorder* trace_ = nullptr;  // forward-declared in simulator.h
  int32_t trace_node_ = -1;
  int32_t trace_zone_ = -1;
};

}  // namespace lithos

#endif  // LITHOS_GPU_EXECUTION_ENGINE_H_
