#include "src/gpu/gpu_spec.h"

#include <algorithm>

#include "src/common/check.h"

namespace lithos {

TpcMask TpcRange(int lo, int hi) {
  LITHOS_CHECK_GE(lo, 0);
  LITHOS_CHECK_LE(hi, kMaxTpcs);
  if (hi <= lo) {
    return TpcMask{};
  }
  // hi - lo ones at the bottom, then moved up to start at lo.
  return (~TpcMask{} >> (kMaxTpcs - (hi - lo))) << lo;
}

int FirstTpc(const TpcMask& mask) {
  for (int i = 0; i < kMaxTpcs; ++i) {
    if (mask.test(i)) {
      return i;
    }
  }
  return -1;
}

std::pair<int, int> GpuSpec::GpcTpcRange(int gpc) const {
  LITHOS_CHECK_GE(gpc, 0);
  LITHOS_CHECK_LT(gpc, NumGpcs());
  int lo = 0;
  for (int g = 0; g < gpc; ++g) {
    lo += gpc_tpcs[g];
  }
  return {lo, lo + gpc_tpcs[gpc]};
}

std::vector<int> GpuSpec::SupportedFrequenciesMhz() const {
  std::vector<int> freqs;
  for (int f = max_mhz; f >= min_mhz; f -= mhz_step) {
    freqs.push_back(f);
  }
  return freqs;
}

int GpuSpec::ClampFrequency(int mhz) const {
  if (mhz >= max_mhz) {
    return max_mhz;
  }
  if (mhz <= min_mhz) {
    return min_mhz;
  }
  // Round down to the nearest supported step below max.
  const int steps_below = (max_mhz - mhz + mhz_step - 1) / mhz_step;
  return std::max(min_mhz, max_mhz - steps_below * mhz_step);
}

GpuSpec GpuSpec::A100() {
  GpuSpec spec;
  spec.name = "A100-SXM4-40GB";
  // 54 TPCs over 7 GPCs (108 SMs), the paper's evaluation testbed.
  spec.gpc_tpcs = {8, 8, 8, 8, 8, 7, 7};
  spec.sms_per_tpc = 2;
  spec.cores_per_sm = 64;
  spec.max_mhz = 1410;
  spec.min_mhz = 705;
  spec.mhz_step = 15;
  spec.idle_power_w = 80.0;
  spec.dynamic_power_w = 320.0;
  spec.memory_gib = 40.0;
  spec.memory_bandwidth_gbps = 1555.0;
  return spec;
}

GpuSpec GpuSpec::H100() {
  GpuSpec spec;
  spec.name = "H100-SXM5-80GB";
  spec.gpc_tpcs = {9, 9, 9, 9, 8, 8, 8, 8};  // 68 TPCs usable.
  spec.sms_per_tpc = 2;
  spec.cores_per_sm = 128;
  spec.max_mhz = 1980;
  spec.min_mhz = 825;
  spec.mhz_step = 15;
  spec.idle_power_w = 100.0;
  spec.dynamic_power_w = 600.0;
  spec.memory_gib = 80.0;
  spec.memory_bandwidth_gbps = 3350.0;
  spec.smem_per_sm_bytes = 228 * 1024;
  return spec;
}

}  // namespace lithos
