// Microbenchmarks (google-benchmark) of the LithOS mechanisms' hot paths:
// TPC acquisition/release, atom planning, predictor lookups, and the
// execution engine's event throughput. These bound the CPU-side overhead a
// real interposition layer would add per kernel launch.
#include <benchmark/benchmark.h>

#include "src/core/kernel_atomizer.h"
#include "src/core/latency_predictor.h"
#include "src/core/tpc_scheduler.h"
#include "src/gpu/execution_engine.h"
#include "src/sim/simulator.h"

namespace lithos {
namespace {

void BM_TpcAcquireRelease(benchmark::State& state) {
  const GpuSpec spec = GpuSpec::A100();
  LithosConfig cfg;
  TpcScheduler sched(spec, cfg);
  sched.RegisterClient(1, PriorityClass::kHighPriority, 40);
  sched.RegisterClient(2, PriorityClass::kBestEffort, 0);
  for (auto _ : state) {
    const TpcMask mask = sched.Acquire(1, static_cast<int>(state.range(0)));
    sched.Release(1, mask);
  }
}
BENCHMARK(BM_TpcAcquireRelease)->Arg(8)->Arg(32)->Arg(54);

void BM_AtomizerPlan(benchmark::State& state) {
  const GpuSpec spec = GpuSpec::A100();
  LithosConfig cfg;
  KernelAtomizer atomizer(cfg);
  KernelDesc k = MakeKernel("k", static_cast<uint32_t>(state.range(0)), FromMillis(20), 0.95,
                            0.8, spec, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(atomizer.Plan(k, FromMillis(20), 11, spec));
  }
}
BENCHMARK(BM_AtomizerPlan)->Arg(1000)->Arg(100000);

void BM_PredictorPredict(benchmark::State& state) {
  const GpuSpec spec = GpuSpec::A100();
  LatencyPredictor predictor(spec);
  const OperatorKey key{1, 3, 0xfeed};
  for (int t : {1, 13, 27, 40, 54}) {
    ExecConditions c;
    c.tpcs = t;
    c.freq_mhz = spec.max_mhz;
    predictor.Record(key, c, FromMillis(10) / t + FromMicros(100));
  }
  ExecConditions c;
  c.tpcs = 20;
  c.freq_mhz = spec.max_mhz;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.Predict(key, c));
  }
}
BENCHMARK(BM_PredictorPredict);

void BM_PredictorRecord(benchmark::State& state) {
  const GpuSpec spec = GpuSpec::A100();
  LatencyPredictor predictor(spec);
  ExecConditions c;
  c.tpcs = 27;
  c.freq_mhz = spec.max_mhz;
  uint32_t ordinal = 0;
  for (auto _ : state) {
    predictor.Record(OperatorKey{1, ordinal++ % 256, 0xbeef}, c, FromMicros(300),
                     FromMicros(310));
  }
}
BENCHMARK(BM_PredictorRecord);

void BM_EngineKernelChurn(benchmark::State& state) {
  // Launch->complete cycles through the simulator: the per-kernel cost of the
  // whole substrate.
  Simulator sim;
  const GpuSpec spec = GpuSpec::A100();
  ExecutionEngine engine(&sim, spec);
  KernelDesc k = MakeKernel("k", 4096, FromMicros(100), 0.9, 0.5, spec);
  for (auto _ : state) {
    WorkItem item;
    item.kernel = &k;
    item.client_id = 1;
    engine.Launch(std::move(item), spec.AllTpcs());
    sim.RunToCompletion();
  }
}
BENCHMARK(BM_EngineKernelChurn);

void BM_EngineSharedChurn(benchmark::State& state) {
  // The LithOS shape: 4-8 concurrent grants on overlapping 18-TPC masks, so
  // every launch and completion re-rates the co-tenants it shares TPCs with.
  // Beside BM_EngineKernelChurn's single full-device grant, this gives the
  // engine's per-grant cost for partial, shared masks.
  Simulator sim;
  const GpuSpec spec = GpuSpec::A100();
  ExecutionEngine engine(&sim, spec);
  KernelDesc k = MakeKernel("k", 4096, FromMicros(100), 0.9, 0.5, spec);
  int grants = 4;
  for (auto _ : state) {
    for (int i = 0; i < grants; ++i) {
      WorkItem item;
      item.kernel = &k;
      item.client_id = 1 + i;
      const int lo = (7 * i) % 36;
      benchmark::DoNotOptimize(engine.Launch(std::move(item), TpcRange(lo, lo + 18)));
    }
    sim.RunToCompletion();
    grants = grants == 8 ? 4 : grants + 1;
  }
}
BENCHMARK(BM_EngineSharedChurn);

void BM_SimulatorEventLoop(benchmark::State& state) {
  Simulator sim;
  for (auto _ : state) {
    sim.ScheduleAfter(1, [] {});
    sim.Step();
  }
}
BENCHMARK(BM_SimulatorEventLoop);

}  // namespace
}  // namespace lithos

BENCHMARK_MAIN();
