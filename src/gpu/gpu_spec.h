// Static description of a simulated GPU: compute topology (GPC/TPC/SM),
// occupancy limits, DVFS states, and power-model coefficients.
//
// Presets mirror the devices discussed in the paper: the evaluation testbed
// (NVIDIA A100 SXM4 40GB, 108 SMs = 54 TPCs across 7 GPCs) and the H100
// described in Section 2.1 (8 GPCs, 9 TPCs per GPC, 2 SMs per TPC).
#ifndef LITHOS_GPU_GPU_SPEC_H_
#define LITHOS_GPU_GPU_SPEC_H_

#include <bitset>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace lithos {

// Upper bound on TPCs in any modelled device; masks are fixed-size bitsets.
inline constexpr int kMaxTpcs = 128;
using TpcMask = std::bitset<kMaxTpcs>;

// Builds a mask with TPCs [lo, hi) set.
TpcMask TpcRange(int lo, int hi);

// Calls f(t) for every set TPC t < limit, in ascending order. Walks the mask a
// 64-bit word at a time (count-trailing-zeros, then clear the lowest set
// bit), so the cost is O(set bits) rather than O(limit). Ascending order keeps
// floating-point sums over the mask in the same order as a bit-by-bit loop.
template <typename F>
inline void ForEachTpc(const TpcMask& mask, int limit, F&& f) {
  static_assert(kMaxTpcs == 128, "ForEachTpc splits the mask into two words");
  const uint64_t words[2] = {((mask << 64) >> 64).to_ullong(), (mask >> 64).to_ullong()};
  for (int w = 0; w < 2; ++w) {
    const int base = 64 * w;
    if (limit <= base) {
      return;
    }
    uint64_t bits = words[w];
    if (limit - base < 64) {
      bits &= (uint64_t{1} << (limit - base)) - 1;
    }
    while (bits != 0) {
      f(base + __builtin_ctzll(bits));
      bits &= bits - 1;
    }
  }
}

// Lowest set TPC index, or -1 when empty.
int FirstTpc(const TpcMask& mask);

struct GpuSpec {
  std::string name;

  // Number of TPCs in each GPC; the vector length is the GPC count. MIG
  // partitions are carved along these boundaries.
  std::vector<int> gpc_tpcs;
  int sms_per_tpc = 2;
  int cores_per_sm = 128;

  // Per-SM occupancy limits (CUDA compute capability 8.0 values).
  int max_threads_per_sm = 2048;
  int max_blocks_per_sm = 32;
  int registers_per_sm = 65536;
  int smem_per_sm_bytes = 164 * 1024;

  // DVFS: supported graphics-clock states span [min_mhz, max_mhz] in steps of
  // mhz_step. Switching takes freq_switch_latency (~50ms on current GPUs,
  // Section 4.6 of the paper).
  int max_mhz = 1410;
  int min_mhz = 705;
  int mhz_step = 15;
  DurationNs freq_switch_latency = FromMillis(50);

  // Power model:
  //   P = idle_power_w * (idle_freq_floor + (1-idle_freq_floor) * f/f_max)
  //     + dynamic_power_w * busy_tpc_fraction * (f / f_max)^freq_power_exponent.
  // The exponent folds in voltage scaling (P_dyn ~ f * V^2 with V roughly
  // proportional to f over the DVFS range); idle draw also falls with the
  // clock (uncore/SM leakage at lower voltage), bottoming out at the floor.
  double idle_power_w = 80.0;
  double dynamic_power_w = 320.0;
  double freq_power_exponent = 2.4;
  double idle_freq_floor = 0.45;
  // Residual draw of a power-gated (drained and powered-off) device: the
  // standby rails a fleet controller cannot shed without unracking the host.
  double gated_power_w = 8.0;

  double memory_gib = 40.0;
  double memory_bandwidth_gbps = 1555.0;

  // Intra-SM co-residency contention (MPS-style stacking): a kernel whose
  // TPCs are shared with foreign work runs slower by up to this factor due to
  // issue-slot, L1, and memory-bandwidth interference. The penalty a grant
  // pays scales with the foreign share of its TPCs and shrinks with the
  // fraction of the device the kernel could occupy alone — a device-filling
  // GEMM hides contention that a small latency-critical kernel cannot.
  double coresidency_penalty = 8.0;

  int NumGpcs() const { return static_cast<int>(gpc_tpcs.size()); }
  int TotalTpcs() const { return std::accumulate(gpc_tpcs.begin(), gpc_tpcs.end(), 0); }

  // Inclusive TPC index range [lo, hi) covered by the given GPC.
  std::pair<int, int> GpcTpcRange(int gpc) const;

  // Mask of all TPCs on the device.
  TpcMask AllTpcs() const { return TpcRange(0, TotalTpcs()); }

  // All supported clock states, descending from max to min.
  std::vector<int> SupportedFrequenciesMhz() const;

  // Closest supported state <= requested (clamped to [min, max]).
  int ClampFrequency(int mhz) const;

  // A100 SXM4 40GB: 7 GPCs, 54 TPCs (108 SMs), 1410 MHz boost clock.
  static GpuSpec A100();

  // H100 SXM5: 8 GPCs x 9 TPCs per Section 2.1 of the paper.
  static GpuSpec H100();
};

}  // namespace lithos

#endif  // LITHOS_GPU_GPU_SPEC_H_
