// Efficiency knobs: hardware right-sizing and transparent DVFS on a single
// service — how much capacity and energy LithOS saves at a bounded latency
// slip (the paper's Sections 7.2 and 7.3 on one workload).
//
//   ./examples/energy_rightsizing
#include <cstdio>

#include "src/experiments/harness.h"
#include "src/obs/energy.h"

using namespace lithos;

int main() {
  AppSpec app;
  app.role = AppRole::kHpLatency;
  app.model = "Llama 3";
  app.load_rps = 0.6;
  app.slo = FromMillis(2000);
  app.quota_tpcs = GpuSpec::A100().TotalTpcs();

  StackingConfig base;
  base.system = SystemKind::kLithos;
  base.warmup = FromSeconds(2);
  base.duration = FromSeconds(12);
  base.lithos.allocate_full_quota = true;  // dedicated-GPU deployment
  const StackingResult before = RunStacking(base, {app});

  StackingConfig rs = base;
  rs.lithos.enable_rightsizing = true;
  rs.lithos.rightsizing_slip = 1.10;  // accept up to 10% slower kernels
  const StackingResult with_rs = RunStacking(rs, {app});

  StackingConfig dvfs = rs;
  dvfs.lithos.enable_dvfs = true;
  const StackingResult with_both = RunStacking(dvfs, {app});

  auto capacity = [](const StackingResult& r) { return TotalCapacityTpcSeconds(r.engine); };

  std::printf("Llama 3 serving at %.1f rps (dedicated A100)\n\n", app.load_rps);
  std::printf("%-28s %12s %12s %10s %10s\n", "configuration", "TPC-seconds", "energy (J)",
              "p99 (ms)", "freq (MHz)");
  std::printf("%-28s %12.1f %12.1f %10.1f %10s\n", "baseline (full allocation)",
              capacity(before), before.engine.energy_joules, before.apps[0].p99_ms, "1410");
  std::printf("%-28s %12.1f %12.1f %10.1f %10s\n", "+ right-sizing (k=1.1)",
              capacity(with_rs), with_rs.engine.energy_joules, with_rs.apps[0].p99_ms, "1410");
  std::printf("%-28s %12.1f %12.1f %10.1f %10s\n", "+ DVFS (k=1.1)", capacity(with_both),
              with_both.engine.energy_joules, with_both.apps[0].p99_ms, "learned");

  std::printf("\ncapacity saved by right-sizing : %5.1f%%\n",
              100 * Savings(capacity(before), capacity(with_rs)));
  std::printf("energy saved by RS + DVFS      : %5.1f%%\n",
              100 * Savings(before.engine.energy_joules, with_both.engine.energy_joules));
  std::printf("p99 cost                       : %5.1f%%\n",
              100 * (with_both.apps[0].p99_ms / before.apps[0].p99_ms - 1.0));
  return 0;
}
