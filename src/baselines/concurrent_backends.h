// The concurrency-based comparison systems: MPS, stream Priority, REEF, TGS,
// and Orion. All five run kernels across the full device and differ in how
// (or whether) they restrict best-effort work.
//
//   * MpsBackend     — NVIDIA MPS: every kernel launches immediately and
//                      fair-shares SMs; maximal throughput, zero isolation
//                      (Fig. 3, Fig. 13).
//   * PriorityBackend— CUDA stream priority: kernels launch immediately, but
//                      high-priority work receives a larger hardware share;
//                      running BE blocks are never preempted, so interference
//                      remains (the paper measures 2.89x latency inflation).
//   * ReefBackend    — the paper's REEF re-implementation: "BE kernels are
//                      not launched if any HP app is running" — a kernel-
//                      boundary gate. Once a BE kernel launches it runs to
//                      completion, which is exactly the HoL-blocking that
//                      Fig. 20 exposes with growing BE kernel durations.
//   * TgsBackend     — TGS-style adaptive rate control: BE launch rate is
//                      multiplicatively reduced whenever HP work was recently
//                      delayed, and slowly recovers. The controller assumes a
//                      steady arrival rate, which bursty inference violates
//                      (the weakness Section 7.1 observes).
//   * OrionBackend   — Orion-style contention-aware gating: a BE kernel may
//                      co-run only if its (offline-profiled) compute/memory
//                      profile does not contend with any in-flight HP kernel.
#ifndef LITHOS_BASELINES_CONCURRENT_BACKENDS_H_
#define LITHOS_BASELINES_CONCURRENT_BACKENDS_H_

#include <deque>
#include <string>
#include <unordered_set>

#include "src/baselines/baseline_base.h"

namespace lithos {

// --- MPS ---------------------------------------------------------------------

class MpsBackend : public BaselineBackend {
 public:
  MpsBackend(Simulator* sim, ExecutionEngine* engine) : BaselineBackend(sim, engine) {}
  std::string Name() const override { return "MPS"; }
  void OnStreamReady(Stream* stream) override;
};

// --- CUDA stream priority -------------------------------------------------------

class PriorityBackend : public BaselineBackend {
 public:
  // hp_weight models the hardware's preferential block scheduling for
  // higher-priority streams.
  PriorityBackend(Simulator* sim, ExecutionEngine* engine, double hp_weight = 8.0)
      : BaselineBackend(sim, engine), hp_weight_(hp_weight) {}
  std::string Name() const override { return "Priority"; }
  void OnStreamReady(Stream* stream) override;

 private:
  double hp_weight_;
};

// --- REEF (kernel-boundary BE gating) ----------------------------------------------

class ReefBackend : public BaselineBackend {
 public:
  ReefBackend(Simulator* sim, ExecutionEngine* engine) : BaselineBackend(sim, engine) {}
  std::string Name() const override { return "REEF"; }
  void OnStreamReady(Stream* stream) override;

 protected:
  void HandleHeadComplete(Stream* stream, const GrantInfo& info) override;

 private:
  bool AnyHpActive() const;
  void PumpBestEffort();

  // REEF pipelines groups of BE kernels into the device queue for throughput
  // (its dynamic kernel padding); without the reset capability (which needs
  // kernel source modifications the paper's re-implementation lacks), a
  // window already in the queue cannot be recalled when HP work arrives —
  // the HoL blocking Fig. 20 measures.
  static constexpr int kBeWindow = 8;
  int be_window_remaining_ = 0;

  std::deque<Stream*> be_waiting_;
  std::unordered_set<Stream*> be_waiting_set_;
};

// --- TGS (adaptive rate control) ------------------------------------------------------

class TgsBackend : public BaselineBackend {
 public:
  TgsBackend(Simulator* sim, ExecutionEngine* engine) : BaselineBackend(sim, engine) {}
  std::string Name() const override { return "TGS"; }
  void OnStreamReady(Stream* stream) override;

 protected:
  void HandleHeadComplete(Stream* stream, const GrantInfo& info) override;

 private:
  void PumpBestEffort();

  // Rate-control state: the BE inter-launch gap grows multiplicatively when
  // HP work coexists and decays when the HP side is idle.
  DurationNs be_gap_ = 0;
  TimeNs be_earliest_launch_ = 0;
  std::deque<Stream*> be_waiting_;
  std::unordered_set<Stream*> be_waiting_set_;
  bool be_timer_armed_ = false;

  static constexpr DurationNs kMinGap = 0;
  static constexpr DurationNs kMaxGap = FromMillis(50);
  static constexpr double kGrow = 2.0;
  static constexpr double kDecay = 0.95;
  static constexpr DurationNs kInitialGap = FromMillis(1);
};

// --- Orion (contention-aware gating, offline profiles) ---------------------------------

class OrionBackend : public BaselineBackend {
 public:
  OrionBackend(Simulator* sim, ExecutionEngine* engine) : BaselineBackend(sim, engine) {}
  std::string Name() const override { return "Orion"; }
  void OnStreamReady(Stream* stream) override;

 protected:
  void HandleHeadComplete(Stream* stream, const GrantInfo& info) override;

 private:
  // Orion ships offline per-kernel profiles; reading the descriptor's
  // sensitivity field stands in for that profiling step.
  static bool ComputeBound(const KernelDesc& k) { return k.freq_sensitivity >= 0.5; }
  bool Contends(const KernelDesc& be_kernel) const;
  void PumpBestEffort();

  std::deque<Stream*> be_waiting_;
  std::unordered_set<Stream*> be_waiting_set_;
};

}  // namespace lithos

#endif  // LITHOS_BASELINES_CONCURRENT_BACKENDS_H_
