// Configuration of the LithOS backend: only what callers actually vary.
//
// LithOS is transparent (paper §4): its mechanisms run without per-workload
// tuning. The four feature switches select which mechanisms run (the Fig. 19
// ablation and the §7.1 scheduling-only comparisons toggle them), and the
// latency-slip parameter k = 1.1 bounds right-sizing degradation to ~10%
// (Sections 7.2, 7.3). Everything else is a named constant beside its one
// reader: atom sizing and the Prelude cost model in kernel_atomizer.h, the
// best-effort backlog cap in lithos_backend.cc, the right-sizer's probe in
// right_sizer.cc, the DVFS slip and cadence in dvfs_manager.h, and the
// predictor's prior and smoothing in latency_predictor.h.
#ifndef LITHOS_CORE_CONFIG_H_
#define LITHOS_CORE_CONFIG_H_

namespace lithos {

struct LithosConfig {
  // --- Feature switches (the ablation in Fig. 19 toggles these) -------------
  bool enable_atomization = true;
  bool enable_stealing = true;
  bool enable_rightsizing = false;   // off in scheduling-only comparisons (§7.1)
  bool enable_dvfs = false;          // off in scheduling-only comparisons (§7.1)
  // Dedicated-deployment allocation: every kernel occupies the client's full
  // quota even when its grid cannot use it. This is the overprovisioned
  // baseline that Fig. 17's capacity savings are measured against; normal
  // scheduling caps the width at the kernel's occupancy bound.
  bool allocate_full_quota = false;

  // --- TPC Scheduler / sync queues --------------------------------------------
  // Maximum outstanding atoms per high-priority client before the dispatcher
  // throttles (sync-queue backlog threshold, Fig. 8 step 5). Best-effort
  // clients use the fixed kMaxOutstandingBe (lithos_backend.cc).
  int max_outstanding_hp = 4;

  // --- Right-sizing ------------------------------------------------------------
  // Latency-slip parameter k: accept up to this multiplicative latency
  // increase in exchange for fewer TPCs (k = 1.1 in §7.2).
  double rightsizing_slip = 1.10;

  // --- DVFS ---------------------------------------------------------------------
  // Number of batches observed at f_max before scaling begins (the learning
  // period, §4.6 "Operation").
  int dvfs_learning_batches = 3;
};

}  // namespace lithos

#endif  // LITHOS_CORE_CONFIG_H_
